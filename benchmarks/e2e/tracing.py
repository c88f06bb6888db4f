"""Span tracer that times calls into each layer's public functions.

Nothing under ``src/`` knows about this module: :meth:`Tracer.instrument`
replaces a layer's public function or method *where its caller looks it up*
(a class attribute, or the importing module's global) with a wrapper that
opens a span, and :meth:`Tracer.restore` puts every original back.

A span records its name, start, end, parent span and thread.  Parents come
from a per-thread stack, so spans opened on the serving gateway's drain
thread form their own tree.  Spans are kept in memory; :meth:`summary` folds
them into per-name busy time, self time (duration minus the time its direct
children cover) and call counts when the workload ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "LAYER_CALLS"]


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    request: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _gemm_work(call, _result) -> Dict[str, float]:
    """Computed flop and bytes of ``execute(a, b)``: a (M, K) @ b (K, N)."""
    a, b = call["a"], call["b"]
    m, k = a.shape
    n = b.shape[1]
    return {"flop": 2.0 * m * n * k, "bytes": float((m * k + k * n + m * n) * a.itemsize)}


def _gemm_tn_work(call, _result) -> Dict[str, float]:
    """Computed flop and bytes of ``execute_tn(a, b)``: a (R, M).T @ b (R, N)."""
    a, b = call["a"], call["b"]
    r, m = a.shape
    n = b.shape[1]
    return {"flop": 2.0 * m * n * r, "bytes": float((r * m + r * n + m * n) * a.itemsize)}


def _images_work(call, _result) -> Dict[str, float]:
    """Batch size of one ``CompiledInference`` call."""
    return {"images": float(call["x"].shape[0])}


def _hit_work(_call, result) -> Dict[str, float]:
    """Whether an ``ArtifactStore.get_*`` call found its key."""
    return {"hits": float(result is not None)}


def _prune_work(call, history) -> Dict[str, float]:
    """Rounds of one pruning run, and the images its fused evaluator swept
    (one initial sweep plus one per round over both validation splits)."""
    per_sweep = len(call["clean_val"]) + len(call["backdoor_val"])
    return {
        "rounds": float(len(history.rounds)),
        "rolled_back": float(sum(r.rolled_back for r in history.rounds)),
        "eval_images": float((len(history.rounds) + 1) * per_sweep),
    }


def _tune_work(call, history) -> Dict[str, float]:
    """Epochs of one fine-tuning run and the samples it trained on."""
    backdoor = call.get("backdoor_train")
    per_epoch = len(call["clean_train"]) + (len(backdoor) if backdoor is not None else 0)
    epochs = len(history.train_losses)
    return {"epochs": float(epochs), "samples": float(epochs * per_epoch)}


def _poison_work(call, _result) -> Dict[str, float]:
    """Samples the adversary's training run went through."""
    epochs = getattr(call.get("config"), "epochs", 0)
    return {"samples": float(len(call["train_set"]) * epochs)}


# (module, attribute path inside it, span name, outermost only, work counter)
#
# The attribute is patched in the module its caller reads it from: the
# pruner imports compute_filter_scores by name, scoring imports
# unlearning_loss_backward, the runner imports train_backdoored_model and the
# orchestrator imports execute_task.  "Outermost only" keeps recursive calls
# (a model's sub-module calls) inside one span.  A work counter maps the
# call's arguments and result to named amounts, summed per span name.
LAYER_CALLS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("repro.core.defense", "GradPruneDefense.apply", "core.defense.apply", False, None),
    ("repro.core.pruner", "GradientPruner.prune", "core.pruner.prune", False, _prune_work),
    ("repro.core.pruner", "compute_filter_scores", "core.scoring.compute_filter_scores", False, None),
    ("repro.core.scoring", "unlearning_loss_backward", "core.unlearning.unlearning_loss_backward", False, None),
    ("repro.core.evaluator", "FusedEvaluator.evaluate", "core.evaluator.evaluate", False, None),
    ("repro.core.tuner", "FineTuner.tune", "core.tuner.tune", False, _tune_work),
    ("repro.nn.module", "Module.__call__", "nn.module.forward", True, None),
    ("repro.nn.tensor", "Tensor.backward", "nn.tensor.backward", True, None),
    ("repro.nn.optim", "SGD.step", "nn.optim.step", False, None),
    ("repro.nn.inference", "CompiledInference.__init__", "nn.inference.compile", False, None),
    ("repro.nn.inference", "CompiledInference.__call__", "nn.inference.forward", False, _images_work),
    ("repro.nn.engine.gemm", "TiledGemmEngine.execute", "nn.engine.execute", False, _gemm_work),
    ("repro.nn.engine.gemm", "TiledGemmEngine.execute_tn", "nn.engine.execute_tn", False, _gemm_tn_work),
    ("repro.eval.runner", "train_backdoored_model", "attacks.poisoner.train_backdoored_model", False, _poison_work),
    ("repro.eval.runner", "evaluate_backdoor_metrics", "eval.metrics.evaluate_backdoor_metrics", False, None),
    ("repro.eval.metrics", "evaluate_backdoor_metrics", "eval.metrics.evaluate_backdoor_metrics", False, None),
    ("repro.orchestrator.orchestrator", "execute_task", "orchestrator.task", False, None),
    ("repro.orchestrator.artifacts", "ArtifactStore.get_state", "orchestrator.artifacts.get_state", False, _hit_work),
    ("repro.orchestrator.artifacts", "ArtifactStore.put_state", "orchestrator.artifacts.put_state", False, None),
    ("repro.orchestrator.artifacts", "ArtifactStore.get_json", "orchestrator.artifacts.get_json", False, _hit_work),
    ("repro.orchestrator.artifacts", "ArtifactStore.put_json", "orchestrator.artifacts.put_json", False, None),
)


class Tracer:
    """In-memory spans plus call/work counters for one workload process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._counter_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), request)
            )

    def record(self, name: str, start: float, end: float, request: Optional[int] = None,
               parent: Optional[int] = None) -> int:
        """Add a span whose times were measured elsewhere (e.g. a gateway
        request's queue wait, read back from its verdict).  It belongs to
        no real thread (thread 0)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, parent, name, start, end, 0, request))
        return span_id

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _wrap(self, original, name: str, outermost: bool, work: Optional[Callable]):
        tracer = self
        signature = inspect.signature(original) if work is not None else None

        def call(args, kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if work is not None:
                amounts = work(signature.bind(*args, **kwargs).arguments, result)
                with tracer._counter_lock:
                    for key, value in amounts.items():
                        tracer.counters[f"{name}.{key}"] += value
            return result

        def traced(*args, **kwargs):
            if not outermost:
                return call(args, kwargs)
            active = getattr(tracer._local, "active", None)
            if active is None:
                active = tracer._local.active = set()
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            try:
                return call(args, kwargs)
            finally:
                active.discard(name)

        return traced

    def instrument(self) -> "Tracer":
        """Patch every entry point in ``LAYER_CALLS``; :meth:`restore` undoes it."""
        for module_name, path, name, outermost, work in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, outermost, work))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def summary(self, thread: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, busy ``total_s`` and ``self_s``; only
        the spans of ``thread`` when given."""
        spans = [span for span in self.spans if thread is None or span.thread == thread]
        covered: Dict[int, float] = defaultdict(float)
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            parent = by_id.get(span.parent) if span.parent is not None else None
            if parent is not None:
                # Clip to the parent: a child never covers time outside it.
                overlap = min(span.end, parent.end) - max(span.start, parent.start)
                covered[parent.span_id] += max(0.0, overlap)
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += span.seconds - covered[span.span_id]
        return table
