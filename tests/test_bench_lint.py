"""Repo-policy lint: bench workloads carry wall-clock guards and stay out of tier-1.

Three standing rules, enforced as tests so they survive refactors:

1. Every file that marks tests ``pytest.mark.bench`` (open-loop soak or
   timing workloads) must reference ``hard_timeout`` — a wedged drain
   thread or timing loop has to fail loudly, never hang CI.
2. Tier-1 runs must deselect bench workloads: ``pyproject.toml`` keeps
   ``-m 'not bench'`` in ``addopts`` and declares the marker, and the
   telemetry soak test actually carries the marker so the default run
   skips it.
3. Every recorded ``benchmarks/out/BENCH_*.json`` carries a ``host`` block
   (``cpu_count``, ``blas``, ``thread_env``), so a number is never read
   without the machine it was measured on.
"""

import glob
import json
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _test_files(*relative_dirs):
    found = []
    for rel in relative_dirs:
        base = os.path.join(REPO_ROOT, rel)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.startswith("test_") and name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return found


def _source(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestBenchGuards:
    def test_every_bench_marked_file_uses_hard_timeout(self):
        offenders = []
        for path in _test_files("benchmarks", "tests"):
            source = _source(path)
            if "pytest.mark.bench" in source and "hard_timeout" not in source:
                offenders.append(os.path.relpath(path, REPO_ROOT))
        assert not offenders, (
            "bench-marked files without a hard_timeout wall-clock guard: "
            f"{offenders} — wrap the workload (or add an autouse guard fixture)"
        )

    def test_bench_files_exist_so_the_rule_is_not_vacuous(self):
        marked = [
            path for path in _test_files("benchmarks", "tests")
            if "pytest.mark.bench" in _source(path)
        ]
        assert marked, "expected at least one bench-marked workload in the repo"


class TestTierOneSelection:
    def _pyproject(self):
        return _source(os.path.join(REPO_ROOT, "pyproject.toml"))

    def test_addopts_deselect_bench(self):
        match = re.search(r"^addopts\s*=\s*(.+)$", self._pyproject(), re.MULTILINE)
        assert match, "pyproject.toml must set tool.pytest.ini_options.addopts"
        assert "not bench" in match.group(1)

    def test_bench_marker_is_declared(self):
        assert re.search(r'"bench:', self._pyproject())

    def test_telemetry_soak_is_bench_marked(self):
        soak = os.path.join(REPO_ROOT, "tests", "telemetry", "test_soak.py")
        assert os.path.exists(soak)
        assert re.search(
            r"^pytestmark\s*=\s*pytest\.mark\.bench", _source(soak), re.MULTILINE
        ), "the telemetry soak test must be deselected from tier-1 runs"


class TestBenchProvenance:
    def test_every_bench_json_records_its_host(self):
        pattern = os.path.join(REPO_ROOT, "benchmarks", "out", "BENCH_*.json")
        paths = sorted(glob.glob(pattern))
        assert paths, "expected recorded BENCH_*.json files"
        required = {"cpu_count", "blas", "thread_env"}
        offenders = []
        for path in paths:
            host = json.loads(_source(path)).get("host")
            if not isinstance(host, dict) or not required <= set(host):
                offenders.append(os.path.basename(path))
        assert not offenders, f"BENCH files without a host block: {offenders}"
