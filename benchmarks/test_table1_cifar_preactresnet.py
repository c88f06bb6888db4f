"""Table I bench: SynthCIFAR / PreactResNet-18, all defenses × SPC × attacks.

Each benchmark function regenerates one attack column of the paper's
Table I: every defense at every SPC setting, aggregated over trials.  The
rendered rows land in ``benchmarks/out/table1.txt`` and the raw aggregates
in ``benchmarks/out/table1_<attack>.json`` (reused by the Figure 1 bench).

Run with ``pytest benchmarks/ --benchmark-only``.  Set
``REPRO_BENCH_PROFILE=paper`` for the full five-trial grid.
"""

import pytest

from repro.eval import check_table_claims, experiment_spec, format_table, format_verdicts
from repro.orchestrator import Orchestrator, OrchestratorConfig

from conftest import store_results, write_text

SPEC = experiment_spec("table1")
MODEL = "preact_resnet18"


def run_attack_column(attack: str):
    result = Orchestrator(OrchestratorConfig(workers=0)).run(SPEC, attacks=(attack,)).experiment
    aggregates = result.results[MODEL][attack]
    baseline = result.baselines[MODEL][attack]
    store_results(f"table1_{attack}", aggregates, baseline)
    text = format_table(
        {attack: aggregates}, {attack: baseline},
        title=f"Table I ({SPEC.profile.name} profile) — {MODEL} / {attack}",
    )
    verdicts = format_verdicts(
        check_table_claims(aggregates, baseline), header=f"paper-shape claims — {attack}"
    )
    write_text(f"table1_{attack}", text + "\n\n" + verdicts)
    print("\n" + text + "\n" + verdicts)
    return aggregates


@pytest.mark.parametrize("attack", SPEC.attacks)
def test_table1_attack_column(benchmark, attack):
    aggregates = benchmark.pedantic(run_attack_column, args=(attack,), rounds=1, iterations=1)
    # Regeneration contract: one row per (defense, SPC) cell.
    expected = len(SPEC.defenses) * len(SPEC.profile.spc_values)
    assert len(aggregates) == expected
    for agg in aggregates:
        assert 0.0 <= agg.acc_mean <= 1.0
        assert 0.0 <= agg.asr_mean <= 1.0
