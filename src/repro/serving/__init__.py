"""``repro.serving`` — the defense-serving gateway (``repro serve``).

Turns the repaired-model fast path, the GEMM engine, and STRIP input
filtering into a long-lived serving process: a content-addressed model
registry with atomic hot-swap, an async micro-batching request queue, an
optional per-batch STRIP pre-filter, a synthetic traffic generator, and a
stdlib HTTP front.  See DESIGN.md §11.  Names resolve on first use, so a
process that never serves HTTP never imports ``http.server``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "batcher": ("BatchRequest", "BatcherStats", "MicroBatcher", "QueueFullError"),
    "gateway": ("CLEAN", "FILTERED", "ServeConfig", "ServingGateway", "Verdict"),
    "http": ("GatewayHTTPServer", "serve_http"),
    "registry": ("ModelRegistry", "RegisteredModel", "state_fingerprint"),
    "traffic": ("STANDARD_MIXES", "TrafficGenerator", "TrafficMix", "TrafficReport"),
})
