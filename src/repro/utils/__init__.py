"""Shared utilities: seeding, logging, timing."""

from .logging import Timer, get_logger, log_event
from .seeding import seed_sequence
from .timing import best_of_seconds, hard_timeout, latency_summary, percentiles

__all__ = [
    "seed_sequence",
    "get_logger",
    "log_event",
    "Timer",
    "percentiles",
    "latency_summary",
    "best_of_seconds",
    "hard_timeout",
]
