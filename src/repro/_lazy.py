"""Package namespaces that import a submodule on first use (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` one table that maps each
submodule to the public names it defines::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "badnets": ("BadNetsAttack",),
        "registry": ("ATTACK_REGISTRY", "build_attack"),
    })

Importing the package then runs none of its submodules.  The first
``repro.attacks.BadNetsAttack`` (or ``from repro.attacks import
BadNetsAttack``) imports ``repro.attacks.badnets`` and binds the class in
the package, so later lookups are plain attribute reads.  Names listed in
``submodules`` resolve to the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports", "resolve"]


def lazy_exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from its export table."""
    owner = {name: module for module, names in table.items() for name in names}
    # An export named like a submodule would be shadowed by that module
    # object once anything imports the submodule.
    clashes = sorted(set(owner) & set(table))
    if clashes:
        raise ValueError(f"{package}: exports {clashes} share a submodule's name")
    exports = [*submodules, *owner]

    def __getattr__(name: str):
        if name in owner:
            value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return exports, __getattr__, __dir__


def resolve(ref: str):
    """The object a ``"package.module:attribute"`` reference names, imported on demand."""
    module, _, attribute = ref.partition(":")
    return getattr(importlib.import_module(module), attribute)
