"""Automated verification of the paper's qualitative claims.

EXPERIMENTS.md promises the reproduction preserves the *shape* of the
paper's results.  This module makes that promise executable: each
:class:`Claim` is a predicate over one attack column's aggregates
(defense × SPC cells plus the no-defense baseline), and
:func:`check_table_claims` returns a PASS/FAIL verdict per claim.

The claims encode the paper's §V-D narrative, not exact numbers:

- C1 *attack embeds*: baseline ASR is high while baseline ACC is usable;
- C2 *ours works*: Grad-Prune at the top SPC cuts ASR by at least half
  without catastrophic ACC loss;
- C3 *identity*: ASR + RA ≤ 1 in every cell (metric sanity);
- C4 *CLP is data-free*: its cells are identical across SPC values;
- C5 *recovery*: where Grad-Prune cuts ASR, RA rises above the baseline RA;
- C6 *budget monotonicity (soft)*: Grad-Prune's ASR at the largest SPC is
  no worse than at the smallest (more data should not hurt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .metrics import BackdoorMetrics
from .runner import AggregateResult

__all__ = ["Claim", "ClaimVerdict", "TABLE_CLAIMS", "check_table_claims", "format_verdicts"]


@dataclass
class ClaimVerdict:
    """Outcome of checking one claim."""

    claim_id: str
    description: str
    passed: bool
    detail: str


@dataclass
class Claim:
    """A named predicate over (aggregates, baseline)."""

    claim_id: str
    description: str
    check: Callable[[Sequence[AggregateResult], BackdoorMetrics], ClaimVerdict]


def _cells(aggregates: Sequence[AggregateResult], defense: str) -> List[AggregateResult]:
    return sorted((a for a in aggregates if a.defense == defense), key=lambda a: a.spc)


def _c1_attack_embeds(aggregates, baseline) -> ClaimVerdict:
    passed = baseline.asr >= 0.7 and baseline.acc >= 0.6
    return ClaimVerdict(
        "C1", "attack embeds (baseline ASR>=0.70 at ACC>=0.60)", passed,
        f"baseline ACC={baseline.acc:.3f} ASR={baseline.asr:.3f}",
    )


def _c2_ours_works(aggregates, baseline) -> ClaimVerdict:
    ours = _cells(aggregates, "grad_prune")
    if not ours:
        return ClaimVerdict("C2", "Grad-Prune present", False, "no grad_prune cells")
    best = ours[-1]  # largest SPC
    asr_halved = best.asr_mean <= 0.5 * baseline.asr + 1e-9
    acc_kept = best.acc_mean >= baseline.acc - 0.20
    return ClaimVerdict(
        "C2",
        "Grad-Prune at top SPC halves ASR with ACC within 0.20 of baseline",
        asr_halved and acc_kept,
        f"ASR {baseline.asr:.3f}->{best.asr_mean:.3f}, ACC {baseline.acc:.3f}->{best.acc_mean:.3f}",
    )


def _c3_identity(aggregates, baseline) -> ClaimVerdict:
    violations = [
        f"{a.defense}/spc{a.spc}" for a in aggregates if a.asr_mean + a.ra_mean > 1.0 + 1e-6
    ]
    return ClaimVerdict(
        "C3", "ASR + RA <= 1 in every cell", not violations,
        "ok" if not violations else f"violated in {violations}",
    )


def _c4_clp_data_free(aggregates, baseline) -> ClaimVerdict:
    clp = _cells(aggregates, "clp")
    if len(clp) < 2:
        return ClaimVerdict("C4", "CLP SPC-invariant", True, "single SPC cell; trivially holds")
    reference = clp[0]
    same = all(
        abs(c.acc_mean - reference.acc_mean) < 1e-9
        and abs(c.asr_mean - reference.asr_mean) < 1e-9
        for c in clp[1:]
    )
    return ClaimVerdict(
        "C4", "CLP cells identical across SPC (data-free)", same,
        f"ASR per SPC: {[round(c.asr_mean, 4) for c in clp]}",
    )


def _c5_recovery(aggregates, baseline) -> ClaimVerdict:
    ours = _cells(aggregates, "grad_prune")
    if not ours:
        return ClaimVerdict("C5", "Grad-Prune present", False, "no grad_prune cells")
    best = ours[-1]
    if best.asr_mean > 0.5 * baseline.asr:
        return ClaimVerdict(
            "C5", "RA rises where ASR falls", True,
            "ASR not halved here; claim not applicable (vacuously true)",
        )
    passed = best.ra_mean >= baseline.ra + 0.05
    return ClaimVerdict(
        "C5", "RA rises where ASR falls", passed,
        f"RA {baseline.ra:.3f}->{best.ra_mean:.3f}",
    )


def _c6_budget_monotone(aggregates, baseline) -> ClaimVerdict:
    ours = _cells(aggregates, "grad_prune")
    if len(ours) < 2:
        return ClaimVerdict("C6", "budget monotonicity", True, "single SPC; trivially holds")
    passed = ours[-1].asr_mean <= ours[0].asr_mean + 0.15
    return ClaimVerdict(
        "C6",
        "Grad-Prune ASR at top SPC <= ASR at lowest SPC (+0.15 noise margin)",
        passed,
        f"ASR spc{ours[0].spc}={ours[0].asr_mean:.3f} vs spc{ours[-1].spc}={ours[-1].asr_mean:.3f}",
    )


TABLE_CLAIMS: List[Claim] = [
    Claim("C1", "attack embeds", _c1_attack_embeds),
    Claim("C2", "Grad-Prune halves ASR, keeps ACC", _c2_ours_works),
    Claim("C3", "ASR + RA <= 1", _c3_identity),
    Claim("C4", "CLP SPC-invariant", _c4_clp_data_free),
    Claim("C5", "RA recovery", _c5_recovery),
    Claim("C6", "budget monotonicity", _c6_budget_monotone),
]


def check_table_claims(
    aggregates: Sequence[AggregateResult],
    baseline: BackdoorMetrics,
    claims: Optional[List[Claim]] = None,
) -> List[ClaimVerdict]:
    """Evaluate every claim on one attack column; returns verdicts in order."""
    return [claim.check(aggregates, baseline) for claim in (claims or TABLE_CLAIMS)]


def format_verdicts(verdicts: Sequence[ClaimVerdict], header: str = "") -> str:
    """Human-readable PASS/FAIL report."""
    lines = [header] if header else []
    for verdict in verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        lines.append(f"  [{status}] {verdict.claim_id} {verdict.description} — {verdict.detail}")
    return "\n".join(lines)
