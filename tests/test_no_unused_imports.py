"""Repo-policy lint: every name a ``src/repro`` module imports is used.

An import nothing reads still costs a module load at start-up and tells
the reader a dependency exists where none does.  Package ``__init__``
modules are skipped: importing names to re-export them is their job.
Elsewhere each imported name (``from __future__`` aside) must be loaded as
an ``ast.Name`` somewhere in its module, or be listed in the module's
``__all__``.
"""

import ast
import os

import repro

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _declared_all(tree):
    """Names in a literal module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def _unused_imports(path):
    """``(line, name)`` for every name ``path`` imports and never reads."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    used = loaded | _declared_all(tree)
    return sorted((line, name) for line, name in imported if name not in used)


def _modules():
    for dirpath, _dirnames, filenames in os.walk(PACKAGE_ROOT):
        for name in sorted(filenames):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(dirpath, name)


def test_no_src_module_has_an_unused_import():
    offenders = [
        f"{os.path.relpath(path, PACKAGE_ROOT)}:{line}: {name}"
        for path in _modules()
        for line, name in _unused_imports(path)
    ]
    assert not offenders, f"unused imports: {offenders}"


def test_the_check_sees_every_kind_of_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "from .x import y as z, w\n"
        "__all__ = ['w']\n"
        "def f() -> 'List':\n"
        "    import json\n"
        "    return np.zeros(1), Dict\n"
    )
    assert _unused_imports(str(probe)) == [(2, "os"), (2, "os"), (4, "List"), (5, "z"), (8, "json")]
