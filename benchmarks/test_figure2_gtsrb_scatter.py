"""Figure 2 bench: SynthGTSRB, four architectures, {FT-SAM, ANP, Grad-Prune}.

The paper's Figure 2 scatters ACC & RA vs ASR for the three strongest
defenses across PreactResNet-18, VGG-19+BN, EfficientNet-B3, and
MobileNetV3-Large on GTSRB.  One benchmark function per architecture; the
quick profile runs the BadNets column (attacks scale with the paper
profile).  Output: ``benchmarks/out/figure2_<model>.txt`` + series JSON.
"""

import json
import os

import pytest

from repro.eval import (
    experiment_spec,
    figure_svg,
    format_table,
    render_scatter_text,
    scatter_series,
)
from repro.orchestrator import Orchestrator, OrchestratorConfig

from conftest import OUT_DIR, store_results, write_text

SPEC = experiment_spec("figure2")
# The quick profile exercises the architecture axis (the figure's point)
# on one attack; the paper profile runs all four attacks.
ATTACKS = SPEC.attacks if SPEC.profile.name == "paper" else ("badnets",)


def run_model_panel(model: str):
    result = Orchestrator(OrchestratorConfig(workers=0)).run(
        SPEC, models=(model,), attacks=ATTACKS
    ).experiment
    pooled = []
    for attack in ATTACKS:
        aggregates = result.results[model][attack]
        store_results(f"figure2_{model}_{attack}", aggregates, result.baselines[model][attack])
        pooled.extend(aggregates)
    series = scatter_series(pooled)
    table = format_table(result.results[model], result.baselines[model],
                         title=f"Figure 2 panel ({SPEC.profile.name}) — {model}")
    text = "\n\n".join(
        [table,
         render_scatter_text(series, "acc_vs_asr"),
         render_scatter_text(series, "ra_vs_asr")]
    )
    write_text(f"figure2_{model}", text)
    with open(os.path.join(OUT_DIR, f"figure2_series_{model}.json"), "w") as handle:
        json.dump(series, handle, indent=2)
    with open(os.path.join(OUT_DIR, f"figure2_{model}.svg"), "w") as handle:
        handle.write(figure_svg(series, title=f"Figure 2 — {model}"))
    print("\n" + text)
    return series


@pytest.mark.parametrize("model", SPEC.models)
def test_figure2_model_panel(benchmark, out_dir, model):
    series = benchmark.pedantic(run_model_panel, args=(model,), rounds=1, iterations=1)
    assert set(series) == set(SPEC.defenses)
    for entry in series.values():
        assert len(entry["acc_vs_asr"]) == len(SPEC.profile.spc_values) * len(ATTACKS)
