"""Table II bench: SynthCIFAR / VGG-19+BN, all defenses × SPC × attacks.

Same structure as the Table I bench with the VGG-19+BN architecture; rows
land in ``benchmarks/out/table2.txt`` / ``table2_<attack>.json``.
"""

import pytest

from repro.eval import check_table_claims, experiment_spec, format_table, format_verdicts
from repro.orchestrator import Orchestrator, OrchestratorConfig

from conftest import store_results, write_text

SPEC = experiment_spec("table2")
MODEL = "vgg19_bn"


def run_attack_column(attack: str):
    result = Orchestrator(OrchestratorConfig(workers=0)).run(SPEC, attacks=(attack,)).experiment
    aggregates = result.results[MODEL][attack]
    baseline = result.baselines[MODEL][attack]
    store_results(f"table2_{attack}", aggregates, baseline)
    text = format_table(
        {attack: aggregates}, {attack: baseline},
        title=f"Table II ({SPEC.profile.name} profile) — {MODEL} / {attack}",
    )
    verdicts = format_verdicts(
        check_table_claims(aggregates, baseline), header=f"paper-shape claims — {attack}"
    )
    write_text(f"table2_{attack}", text + "\n\n" + verdicts)
    print("\n" + text + "\n" + verdicts)
    return aggregates


@pytest.mark.parametrize("attack", SPEC.attacks)
def test_table2_attack_column(benchmark, attack):
    aggregates = benchmark.pedantic(run_attack_column, args=(attack,), rounds=1, iterations=1)
    expected = len(SPEC.defenses) * len(SPEC.profile.spc_values)
    assert len(aggregates) == expected
    for agg in aggregates:
        assert 0.0 <= agg.acc_mean <= 1.0
        assert 0.0 <= agg.asr_mean <= 1.0
