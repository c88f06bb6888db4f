"""Backdoor attacks: BadNets, Blended, Low-Frequency, BPP (paper §V-A), plus
SIG, dynamic-patch and LIRA extensions, and the poisoner that trains them in."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("BackdoorAttack",),
    "badnets": ("BadNetsAttack",),
    "blended": ("BlendedAttack",),
    "low_frequency": ("LowFrequencyAttack",),
    "bpp": ("BPPAttack", "floyd_steinberg_dither"),
    "sig": ("SIGAttack",),
    "dynamic": ("DynamicPatchAttack",),
    "lira": ("LiraAttack", "LiraTrainLog", "TriggerGenerator", "train_lira"),
    "poisoner": ("PoisonInfo", "poison_dataset", "train_backdoored_model"),
    "registry": ("ATTACK_REGISTRY", "build_attack"),
})
