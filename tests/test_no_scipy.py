"""Repo-policy lint: the runtime needs numpy only, never scipy.

scipy is a ``dev`` extra for the test oracles (``scipy.fft``,
``scipy.signal``).  Nothing under ``src/`` may import it, and importing the
library and its CLI must not load it: scipy brings its own OpenBLAS and
worker thread, which every process would pay for at start-up.
"""

import ast
import json
import os
import subprocess
import sys

import repro

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _scipy_imports(path):
    """``(line, snippet)`` for every statement in ``path`` that imports scipy."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {a.name}")
                for a in node.names
                if a.name.split(".")[0] == "scipy"
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] == "scipy":
                found.append((node.lineno, f"from {node.module} import ..."))
    return sorted(found)


def _package_modules():
    for dirpath, _dirnames, filenames in os.walk(PACKAGE_ROOT):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_no_src_module_imports_scipy():
    offenders = [
        f"{os.path.relpath(path, PACKAGE_ROOT)}:{line}: {snippet}"
        for path in _package_modules()
        for line, snippet in _scipy_imports(path)
    ]
    assert not offenders, f"repro modules import scipy: {offenders}"


def test_the_check_sees_every_kind_of_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy\nimport numpy, scipy.fft as f\nfrom scipy import fft\n"
        "def g():\n    from scipy.signal import correlate2d\n"
        "import scipyx\nfrom . import scipy\nfrom .scipy import x\n"
    )
    assert [line for line, _ in _scipy_imports(str(probe))] == [1, 2, 3, 5]


def test_importing_the_library_and_cli_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import repro, repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [], f"importing repro and repro.cli loaded {loaded}"
