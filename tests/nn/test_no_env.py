"""Repo-policy lint: no environment variable changes what ``repro.nn`` computes.

Every op has one runtime kernel, and the reference kernels live in
``tests/nn/reference.py``, so nothing under ``src/repro/nn/`` may read the
environment: no ``os.environ`` and no ``os.getenv``, however imported.
"""

import ast
import os

import repro.nn

NN_ROOT = os.path.dirname(os.path.abspath(repro.nn.__file__))
BANNED = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path):
    """``(line, snippet)`` for every environment read in the module at ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {a.name}") for a in node.names if a.name in BANNED
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in BANNED
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def _nn_modules():
    for dirpath, _dirnames, filenames in os.walk(NN_ROOT):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def test_no_nn_module_reads_the_environment():
    offenders = [
        f"{os.path.relpath(path, NN_ROOT)}:{line}: {snippet}"
        for path in _nn_modules()
        for line, snippet in _env_reads(path)
    ]
    assert not offenders, f"repro.nn modules read the environment: {offenders}"


def test_the_check_sees_every_kind_of_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport os as _os\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = _os.getenv('Y')\n"
    )
    assert [line for line, _ in _env_reads(str(probe))] == [3, 4, 5]
