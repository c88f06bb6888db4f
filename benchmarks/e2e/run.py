#!/usr/bin/env python3
"""End-to-end benchmark of the Grad-Prune pipeline, run from the repo root.

    python3 benchmarks/e2e/run.py prepare      # one-time checkpoint training
    python3 benchmarks/e2e/run.py              # every workload, end-to-end metrics
    python3 benchmarks/e2e/run.py --workload defense-preact --seed 3 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload grid-table1 --trace 1   # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke      # toy-scale self-check, under a minute

Workloads, metrics and units are declared in ``BENCHMARK.json`` at the repo
root.  Each workload runs in its own subprocess (``workloads.py``) under the
default environment: the runner refuses to start while an engine override
(``REPRO_ENGINE_*``) or ``REPRO_DISABLE_FAST_PATH`` is set.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable report with the run's provenance goes to
stderr and to ``.bench_build/e2e/results/``.  The exit code is 0 only when
every correctness check passed, and 2 when the checkout cannot run at all.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS_PY = os.path.join(HERE, "workloads.py")
CACHE = os.path.join(ROOT, ".bench_build", "e2e")

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a workload run must end within this (prepare excluded)
PREPARE_LIMIT_S = 700.0  # with RUN_LIMIT_S, within the first run's 900 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def log(message: str = "") -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over the library sources and the benchmark, so a result names
    the code it measured even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance() -> Dict:
    import numpy as np

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repo's HEAD
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except TypeError:  # numpy without show_config(mode=...)
        blas = {"name": "unknown", "version": None}
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------
def _reap_group(pgid: int, wait_s: float = 5.0) -> None:
    """Kill what is left of a child's process group (a crashed workload's
    tile-pool workers) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(args: List[str], timeout: float, env: Optional[Dict] = None) -> Optional[Dict]:
    """Run ``workloads.py`` in its own process group; its last stdout line
    parsed as JSON, or None if it failed or ran out of time."""
    proc = subprocess.Popen(
        [sys.executable, WORKLOADS_PY, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        log(f"workloads.py {' '.join(args)}: no result within {timeout:.0f}s")
        return None
    finally:
        _reap_group(proc.pid)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"workloads.py {' '.join(args)}: exit code {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"workloads.py {' '.join(args)}: last line is not JSON: {lines[-1][:200]}")
        return None


def ensure_prepared(toy: bool, force: bool = False) -> None:
    """Train the backdoored checkpoints once per checkout (not measured).

    Training pins ``REPRO_ENGINE_WORKERS=1``: on a small host the inline
    engine trains several times faster, and the checkpoint is an input, not
    a measurement.
    """
    scale_dir = os.path.join(CACHE, "toy" if toy else "full")
    os.makedirs(scale_dir, exist_ok=True)
    marker = os.path.join(scale_dir, "prepared.json")
    with open(os.path.join(scale_dir, "prepare.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs prepare once
        if os.path.exists(marker) and not force:
            return
        log(f"preparing {'toy' if toy else 'full'}-scale checkpoints (one-time)...")
        started = time.perf_counter()
        env = dict(os.environ, REPRO_ENGINE_WORKERS="1")
        summary = run_child(["prepare"] + (["--toy"] if toy else []), PREPARE_LIMIT_S, env)
        if summary is None:
            raise CheckoutError("prepare failed")
        summary["seconds"] = time.perf_counter() - started
        with open(marker, "w") as handle:
            json.dump(summary, handle, indent=2)
        log(f"prepared in {summary['seconds']:.1f}s: {json.dumps(summary['prepared'])}")


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool,
                 spec: Dict, deadline: float, setup_samples: int = SETUP_SAMPLES) -> Dict:
    """Run one workload; returns the result object for it (see module doc)."""
    flags = ["--seed", str(seed)] + (["--toy"] if toy else [])
    crashed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
               "problems": ["workload process failed"]}
    setups: List[float] = []

    def sample_setups(count: int) -> bool:
        for _ in range(count):
            sample = run_child([name, "--setup-only"] + flags, deadline - time.monotonic())
            if sample is None:
                return False
            setups.append(sample["setup_s"])
        return True

    # Set-up samples sit before and after the measuring process: a shared
    # host's speed drifts over seconds, and spreading them steadies the median.
    extra = 0 if trace else setup_samples - 1
    if not sample_setups(extra // 2):
        return crashed
    child = run_child(
        [name, "--seconds", str(seconds), "--trace", str(int(trace))] + flags,
        deadline - time.monotonic(),
    )
    if child is None or not sample_setups(extra - extra // 2):
        # A crashed workload fails every operation it was meant to run.
        return crashed
    setups.append(child["setup_s"])
    if trace:
        values = dict(child["layers"])
        declared = spec["per_layer"]
    else:
        values = {
            "latency_ms": child["latency_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name} did not report {missing}")
    problems = list(child["problems"])
    return {
        "correct": child["failed"] == 0 and not problems,
        "attempted": max(1, int(child["attempted"])),
        "failed": int(child["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "problems": problems,
        "setup_samples_s": setups,
        "op_walls_s": child["op_walls_s"],
        "request_tail": child.get("request_tail"),
        "top_self": child.get("top_self"),
    }


def report(name: str, result: Dict) -> None:
    log(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        log(f"   {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
    if result.get("request_tail"):
        tail = result["request_tail"]
        log(f"   request latency p{tail['q']:g} = {tail['ms']:.3f} ms "
            f"over {tail['count']} requests")
    for row in result.get("top_self") or []:
        log(f"   self {row['self_s']:9.4f}s  total {row['total_s']:9.4f}s  "
            f"calls {row['calls']:6d}  {row['name']}")
    for problem in result.get("problems", [])[:10]:
        log(f"   FAILED CHECK: {problem}")


def save(name: str, seed: int, trace: bool, result: Dict, prov: Dict) -> None:
    directory = os.path.join(CACHE, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump({"workload": name, "seed": seed, "trace": trace,
                   "provenance": prov, **result}, handle, indent=2)


def public(result: Dict) -> Dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


# ----------------------------------------------------------------------
# Smoke check
# ----------------------------------------------------------------------
def smoke(spec: Dict) -> int:
    """Every workload at toy scale, untraced and traced: every declared
    metric is reported, checks pass, traced self times cover the wall."""
    ensure_prepared(toy=True)
    failures = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            name = workload["name"]
            result = run_workload(name, 0, 1.0, trace, True, spec,
                                  time.monotonic() + RUN_LIMIT_S, setup_samples=1)
            report(f"{name} (toy, trace={int(trace)})", result)
            if not result["correct"]:
                failures.append(f"{name}: correctness ({result.get('problems')})")
            if trace and result["metrics"]:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if abs(coverage - 1.0) > 0.05:
                    failures.append(f"{name}: traced self times cover {coverage:.3f} of wall")
    for failure in failures:
        log(f"SMOKE FAILURE: {failure}")
    log("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("prepare",))
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    overrides = sorted(k for k in os.environ
                       if k.startswith("REPRO_ENGINE_") or k == "REPRO_DISABLE_FAST_PATH")
    if overrides:
        log(f"refusing to run with {overrides} set: the benchmark measures the default program")
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}: nothing to measure")
        return 2
    try:
        if args.smoke:
            return smoke(spec)
        if args.command == "prepare":
            ensure_prepared(toy=False, force=True)
            return 0
        ensure_prepared(toy=False)
        prov = provenance()
        log(f"provenance: {json.dumps(prov)}")
        results = {}
        for name in [args.workload] if args.workload else names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), False,
                                  spec, time.monotonic() + RUN_LIMIT_S)
            report(name, result)
            save(name, args.seed, bool(args.trace), result, prov)
            results[name] = result
    except CheckoutError as exc:
        log(f"cannot run: {exc}")
        return 2
    if args.workload:
        final = public(results[args.workload])
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
