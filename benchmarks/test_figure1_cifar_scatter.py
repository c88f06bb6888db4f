"""Figure 1 bench: ACC & RA vs ASR scatter over the SynthCIFAR grids.

Figure 1 in the paper visualizes the Table I + II grids as scatter plots
(x = ASR, y = ACC or RA, one marker per defense).  This bench assembles the
series from the Table benches' stored aggregates when available — running
the full grid twice would be pure waste — and falls back to computing a
reduced slice itself.  Output: ``benchmarks/out/figure1_*.txt`` (ASCII
scatter) and ``figure1_series.json`` (the numeric series a plotting tool
would consume).
"""

import json
import os

import pytest

from repro.eval import experiment_spec, figure_svg, render_scatter_text, scatter_series
from repro.orchestrator import Orchestrator, OrchestratorConfig

from conftest import OUT_DIR, load_results, write_text

SPEC = experiment_spec("figure1")
TABLE_OF_MODEL = {"preact_resnet18": "table1", "vgg19_bn": "table2"}


def collect_series(model: str):
    table = TABLE_OF_MODEL[model]
    pooled = []
    missing = []
    for attack in SPEC.attacks:
        stored = load_results(f"{table}_{attack}")
        if stored is None:
            missing.append(attack)
        else:
            pooled.extend(stored["aggregates"])
    if missing:
        result = Orchestrator(OrchestratorConfig(workers=0)).run(
            SPEC, models=(model,), attacks=tuple(missing)
        ).experiment
        for attack in missing:
            pooled.extend(result.results[model][attack])
    return scatter_series(pooled)


def render_and_store(model: str):
    series = collect_series(model)
    acc_plot = render_scatter_text(series, "acc_vs_asr")
    ra_plot = render_scatter_text(series, "ra_vs_asr")
    text = f"Figure 1 — {model}\n\n{acc_plot}\n\n{ra_plot}"
    write_text(f"figure1_{model}", text)
    path = os.path.join(OUT_DIR, f"figure1_series_{model}.json")
    with open(path, "w") as handle:
        json.dump(series, handle, indent=2)
    with open(os.path.join(OUT_DIR, f"figure1_{model}.svg"), "w") as handle:
        handle.write(figure_svg(series, title=f"Figure 1 — {model}"))
    print("\n" + text)
    return series


@pytest.mark.parametrize("model", SPEC.models)
def test_figure1_scatter(benchmark, out_dir, model):
    series = benchmark.pedantic(render_and_store, args=(model,), rounds=1, iterations=1)
    assert set(series) <= set(SPEC.defenses)
    assert len(series) >= 1
    for entry in series.values():
        for x, y in entry["acc_vs_asr"] + entry["ra_vs_asr"]:
            assert 0.0 <= x <= 100.0
            assert 0.0 <= y <= 100.0
