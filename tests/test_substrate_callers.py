"""Repo-policy lint: the substrate exports only what something calls.

``repro.nn`` and ``repro.data`` exist to serve the models, defenses,
attacks, grids, benchmarks and examples.  Every name in the ``__all__`` of
a module under them must be referenced (an ``ast.Name`` or
``ast.Attribute`` load) somewhere in ``src/``, ``benchmarks/`` or
``examples/``, outside its own definition.  A name that only tests reach
is not API: delete it.  There is no allow-list.  A submodule re-exported
with ``from . import name`` is a namespace; its own ``__all__`` is checked.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUBSTRATE = [os.path.join(ROOT, "src", "repro", sub) for sub in ("nn", "data")]
CALLERS = [os.path.join(ROOT, sub) for sub in ("src", "benchmarks", "examples")]


def _modules(directories):
    for directory in directories:
        for dirpath, _dirnames, filenames in os.walk(directory):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _exports(path):
    """``__all__`` names of the module at ``path``, minus re-exported submodules."""
    tree = _parse(path)
    submodules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts if elt.value not in submodules]
    return []


def _unreferenced(substrate, callers):
    """``(module path, name)`` for every export that no caller references."""
    defined = {}
    for path in _modules(substrate):
        for name in _exports(path):
            defined.setdefault(name, set()).add(path)
    referenced = set()
    for path in _modules(callers):
        tree = _parse(path)
        # Node id -> the exported name whose top-level definition holds it.
        inside = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in defined.get(
                node.name, ()
            ):
                inside.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if isinstance(node.ctx, ast.Load) and name in defined and inside.get(id(node)) != name:
                referenced.add(name)
    return sorted(
        (path, name)
        for name, paths in defined.items()
        if name not in referenced
        for path in paths
    )


def test_every_substrate_export_has_a_caller():
    offenders = [
        f"{os.path.relpath(path, ROOT)}: {name}"
        for path, name in _unreferenced(SUBSTRATE, CALLERS)
    ]
    assert not offenders, f"exported but referenced by nothing outside tests: {offenders}"


def test_the_check_sees_every_kind_of_reference(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from . import sub\n"
        "from .api import by_attr, by_name, self_only, unused\n"
        '__all__ = ["sub", "by_attr", "by_name", "self_only", "unused"]\n'
    )
    (pkg / "sub.py").write_text("")
    (pkg / "api.py").write_text(
        '__all__ = ["by_attr", "by_name", "self_only", "unused"]\n'
        "def by_attr(): pass\n"
        "def by_name(): pass\n"
        "def self_only(n): return self_only(n - 1) if n else 0\n"
        "def unused(): pass\n"
    )
    (tmp_path / "caller.py").write_text(
        "import pkg.api as api\nfrom pkg import by_name\nby_name()\napi.by_attr()\n"
    )
    found = _unreferenced([str(pkg)], [str(tmp_path)])
    assert sorted({name for _, name in found}) == ["self_only", "unused"]
