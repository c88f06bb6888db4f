"""Attack registry: build any attack by name.

Each entry names the ``"module:class"`` that defines it, so looking up the
registry imports no attack; :func:`build_attack` imports only the one it
builds.
"""

from __future__ import annotations

from typing import Dict

from .._lazy import resolve
from .base import BackdoorAttack

__all__ = ["ATTACK_REGISTRY", "build_attack"]

# The paper's four evaluation attacks plus two extension attacks cited in
# its related-work/threat-model discussion (SIG, dynamic triggers).
ATTACK_REGISTRY: Dict[str, str] = {
    "badnets": "repro.attacks.badnets:BadNetsAttack",
    "blended": "repro.attacks.blended:BlendedAttack",
    "lf": "repro.attacks.low_frequency:LowFrequencyAttack",
    "bpp": "repro.attacks.bpp:BPPAttack",
    "sig": "repro.attacks.sig:SIGAttack",
    "dynamic_patch": "repro.attacks.dynamic:DynamicPatchAttack",
}


def build_attack(name: str, **kwargs) -> BackdoorAttack:
    """Instantiate an attack by registry name."""
    if name not in ATTACK_REGISTRY:
        raise KeyError(f"unknown attack {name!r}; choose from {sorted(ATTACK_REGISTRY)}")
    return resolve(ATTACK_REGISTRY[name])(**kwargs)
