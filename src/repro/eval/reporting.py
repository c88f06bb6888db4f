"""Result presentation: paper-style tables and scatter series (Figs. 1-2).

Tables I and II report, per attack and SPC, one 'ACC | ASR | RA' row per
defense (mean±std).  Figures 1 and 2 are scatter plots of ACC-vs-ASR and
RA-vs-ASR across all scenarios; :func:`scatter_series` extracts exactly the
(x, y) series a plotting tool would consume, and :func:`render_scatter_text`
draws a dependency-free ASCII rendition for terminal inspection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .metrics import BackdoorMetrics
from .runner import AggregateResult

__all__ = ["format_table", "scatter_series", "render_scatter_text"]


def format_table(
    results: Dict[str, List[AggregateResult]],
    baseline: Dict[str, BackdoorMetrics],
    title: str = "",
) -> str:
    """Render a paper-style table.

    Parameters
    ----------
    results:
        ``{attack_name: [AggregateResult, ...]}`` — each list covers the
        defense × SPC grid for that attack.
    baseline:
        ``{attack_name: BackdoorMetrics}`` no-defense reference row.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for attack, aggregates in results.items():
        lines.append(f"\nAttack: {attack}")
        base = baseline.get(attack)
        if base is not None:
            lines.append(
                f"  {'baseline':<12} {'-':>4}  "
                f"ACC {base.acc * 100:6.2f}        | ASR {base.asr * 100:6.2f}        | RA {base.ra * 100:6.2f}"
            )
        for agg in sorted(aggregates, key=lambda a: (a.spc, a.defense)):
            lines.append(
                f"  {agg.defense:<12} {agg.spc:>4}  "
                f"ACC {agg.acc_mean * 100:6.2f}±{agg.acc_std * 100:5.2f} | "
                f"ASR {agg.asr_mean * 100:6.2f}±{agg.asr_std * 100:5.2f} | "
                f"RA {agg.ra_mean * 100:6.2f}±{agg.ra_std * 100:5.2f}"
            )
    return "\n".join(lines)


def scatter_series(
    results: Iterable[AggregateResult],
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Figure 1/2 data: per defense, ACC-vs-ASR and RA-vs-ASR point lists.

    Returns ``{defense: {"acc_vs_asr": [(asr, acc), ...],
    "ra_vs_asr": [(asr, ra), ...]}}`` with values in percent, matching the
    paper's axes (x = ASR, y = ACC or RA).
    """
    series: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for agg in results:
        entry = series.setdefault(agg.defense, {"acc_vs_asr": [], "ra_vs_asr": []})
        entry["acc_vs_asr"].append((agg.asr_mean * 100, agg.acc_mean * 100))
        entry["ra_vs_asr"].append((agg.asr_mean * 100, agg.ra_mean * 100))
    return series


def render_scatter_text(
    series: Dict[str, Dict[str, List[Tuple[float, float]]]],
    which: str = "acc_vs_asr",
    width: int = 60,
    height: int = 20,
) -> str:
    """ASCII scatter plot (x = ASR %, y = ACC or RA %).

    Each defense gets a distinct marker; legend appended below the axes.
    """
    if which not in ("acc_vs_asr", "ra_vs_asr"):
        raise ValueError(f"unknown series {which!r}")
    markers = "ox+*#@%&sd"
    canvas = [[" "] * width for _ in range(height)]
    legend: List[str] = []
    for idx, (defense, entry) in enumerate(sorted(series.items())):
        marker = markers[idx % len(markers)]
        legend.append(f"{marker} = {defense}")
        for x, y in entry[which]:
            col = min(width - 1, max(0, int(round(x / 100 * (width - 1)))))
            row = min(height - 1, max(0, int(round((100 - y) / 100 * (height - 1)))))
            canvas[row][col] = marker
    y_label = "ACC%" if which == "acc_vs_asr" else "RA%"
    lines = [f"{y_label} ^"]
    for row in canvas:
        lines.append("     |" + "".join(row))
    lines.append("     +" + "-" * width + "> ASR%")
    lines.append("     " + "   ".join(legend))
    return "\n".join(lines)
