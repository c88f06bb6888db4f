"""Shared benchmark fixtures: runner with persistent model cache, result store.

Benchmarks write their tables/series to ``benchmarks/out/`` so Figure
benches can reuse Table results and EXPERIMENTS.md can quote them.
Backdoored models are cached under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR``), so re-running benches skips attack training.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.eval import AggregateResult, BackdoorMetrics, BenchmarkRunner

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# The fast-vs-reference probes time the reference kernels of the test
# package (``tests/nn/reference.py``), importable from the repo root.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.append(_REPO_ROOT)


def host_info() -> Dict:
    """Host facts needed to interpret a BENCH file: cores, BLAS, thread env."""
    info = {
        "cpu_count": os.cpu_count(),
        "thread_env": {
            key: os.environ.get(key)
            for key in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            )
        },
    }
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except TypeError:  # older numpy: show_config has no mode kwarg
        info["blas"] = {"name": "unknown", "version": None}
    return info


@pytest.fixture(scope="session")
def runner() -> BenchmarkRunner:
    return BenchmarkRunner(verbose=True)


@pytest.fixture(scope="session")
def out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def store_results(
    name: str,
    aggregates: List[AggregateResult],
    baseline: Optional[BackdoorMetrics] = None,
    extra: Optional[Dict] = None,
) -> str:
    """Persist one bench slice's aggregates as JSON; returns the path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "aggregates": [asdict(a) for a in aggregates],
        "baseline": asdict(baseline) if baseline else None,
        "extra": extra or {},
    }
    path = os.path.join(OUT_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return path


def load_results(name: str) -> Optional[Dict]:
    """Load a previously stored bench slice, or None."""
    path = os.path.join(OUT_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    payload["aggregates"] = [AggregateResult(**a) for a in payload["aggregates"]]
    if payload["baseline"]:
        payload["baseline"] = BackdoorMetrics(**payload["baseline"])
    return payload


def write_text(name: str, text: str) -> str:
    """Write a rendered table/figure to out/<name>.txt."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
