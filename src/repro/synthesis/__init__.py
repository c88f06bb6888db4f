"""Trigger synthesis: Neural-Cleanse-style inversion and detection.

Provides the defender's synthesis capability assumed in paper §III-C and
the trigger-free Grad-Prune pipeline the paper names as future work.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "inversion": ("InvertedTrigger", "invert_trigger", "detect_backdoor"),
    "synthesized_attack": ("SynthesizedTriggerAttack", "grad_prune_without_trigger"),
    "strip": ("StripDetector", "StripResult", "prediction_entropy", "strip_entropy_scores"),
})
