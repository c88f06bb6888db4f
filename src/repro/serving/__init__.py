"""``repro.serving`` — the defense-serving gateway (``repro serve``).

Turns the repaired-model fast path, the GEMM engine, and STRIP input
filtering into a long-lived serving process: a content-addressed model
registry with atomic hot-swap, an async micro-batching request queue, an
optional per-batch STRIP pre-filter, a synthetic traffic generator, and a
stdlib HTTP front.  See DESIGN.md §11.
"""

from .batcher import BatcherStats, BatchRequest, MicroBatcher, QueueFullError
from .gateway import CLEAN, FILTERED, ServeConfig, ServingGateway, Verdict
from .http import GatewayHTTPServer, serve_http
from .registry import ModelRegistry, RegisteredModel, state_fingerprint
from .traffic import STANDARD_MIXES, TrafficGenerator, TrafficMix, TrafficReport

__all__ = [
    "CLEAN",
    "FILTERED",
    "STANDARD_MIXES",
    "BatchRequest",
    "BatcherStats",
    "GatewayHTTPServer",
    "MicroBatcher",
    "ModelRegistry",
    "QueueFullError",
    "RegisteredModel",
    "ServeConfig",
    "ServingGateway",
    "TrafficGenerator",
    "TrafficMix",
    "TrafficReport",
    "Verdict",
    "serve_http",
    "state_fingerprint",
]
