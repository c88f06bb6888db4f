"""Trigger synthesis: Neural-Cleanse-style inversion and detection.

Provides the defender's synthesis capability assumed in paper §III-C and
the trigger-free Grad-Prune pipeline the paper names as future work.
"""

from .inversion import InvertedTrigger, detect_backdoor, invert_trigger
from .strip import (
    StripDetector,
    StripResult,
    prediction_entropy,
    strip_entropy_scores,
)
from .synthesized_attack import SynthesizedTriggerAttack, grad_prune_without_trigger

__all__ = [
    "InvertedTrigger",
    "invert_trigger",
    "detect_backdoor",
    "SynthesizedTriggerAttack",
    "grad_prune_without_trigger",
    "StripDetector",
    "StripResult",
    "prediction_entropy",
    "strip_entropy_scores",
]
