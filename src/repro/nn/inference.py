"""Compile-for-inference pass: conv–BN folding over a traced model.

The pruning loop (paper §IV-B) is evaluation-bound: every round re-runs
eval-mode forward passes over the validation splits.  In eval mode a
``BatchNorm2d`` is an affine per-channel map ``y = x * scale + shift`` with

    scale = gamma / sqrt(running_var + eps)
    shift = beta - running_mean * scale

so whenever a convolution's output feeds *only* that batch norm, the map can
be folded into the convolution itself:

    W' = W * scale[:, None, None, None]        b' = shift + scale * b

eliminating one full output-sized elementwise pass per BN layer.

:class:`CompiledInference` discovers foldable (conv, bn) pairs by *tracing*
one forward pass — recording, per module call, the identity of its input and
output tensors — rather than by pattern-matching the module tree, so it is
correct for any ``forward`` control flow the models express.  A pair is
folded only when the BN is the sole traced consumer of the conv's output and
both modules run exactly once per forward.  Tracing finds folds that
structural conv→BN matching would miss: in a pre-activation ResNet block no
conv feeds "its own" BN, yet each block's first conv output is consumed
solely by the *next* BN (``conv2(bn2(conv1(x)).relu())``), which folds the
same way.  Models with no qualifying pairs compile to zero folds and still
run the no-grad kernels of :mod:`repro.nn.functional`.  The folded BN
affine is the conv bias, which the GEMM engine adds in place on its output;
activations after the BN run as ordinary modules.

Folded weights are cached and **invalidated automatically** when
``repro.models.pruning_utils`` mutates conv filters (prune/unprune/mask
re-application); the next call refolds from the live parameters.  Code that
mutates weights through other channels must call :func:`invalidate_compiled`
(or :meth:`CompiledInference.invalidate`) itself.

The original model is never left modified: folded tensors are swapped in
around each compiled call and restored in a ``finally`` block, so external
snapshots (state dicts, pruning saves) always observe the true parameters.
Kernel scratch comes from the process-wide
:func:`repro.nn.functional.workspace`; a compiled view owns no memory
beyond its folded weights.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .layers import BatchNorm2d, Conv2d
from .module import Module
from .tensor import Tensor, no_grad

__all__ = [
    "CompiledInference",
    "compile_for_inference",
    "trace_conv_bn_pairs",
    "fold_conv_bn_arrays",
    "invalidate_compiled",
]

# model -> weak set of CompiledInference instances whose folded caches track it.
_COMPILED: "weakref.WeakKeyDictionary[Module, weakref.WeakSet]" = weakref.WeakKeyDictionary()


def invalidate_compiled(model: Module) -> None:
    """Drop cached folded weights of every compiled view of ``model``.

    Called by the pruning utilities after any in-place filter mutation; safe
    to call for models that were never compiled.
    """
    for compiled in _COMPILED.get(model, ()):  # pragma: no branch
        compiled.invalidate()


def _register(model: Module, compiled: "CompiledInference") -> None:
    bucket = _COMPILED.get(model)
    if bucket is None:
        bucket = weakref.WeakSet()
        _COMPILED[model] = bucket
    bucket.add(compiled)


def trace_conv_bn_pairs(model: Module, example_input: Tensor) -> List[Tuple[Conv2d, BatchNorm2d]]:
    """Run one traced eval forward and return the foldable (conv, BN) pairs.

    Every module's ``forward`` is temporarily wrapped to record the identity
    of its (single-tensor) input and output.  A pair qualifies when:

    - an eval-mode :class:`BatchNorm2d` consumed exactly the output tensor of
      a :class:`Conv2d`,
    - that tensor was consumed by no other traced module, and
    - both modules ran exactly once (weight-shared reuse is not foldable).

    The trace only sees *module* boundaries: a conv output that additionally
    feeds raw tensor arithmetic (e.g. a residual add) outside any module
    cannot be detected.  No architecture in the model zoo does this — conv
    outputs either go straight into a BN or the pattern is rejected because
    another module consumed the tensor first.
    """
    calls: List[Tuple[Module, Optional[int], Optional[Tensor]]] = []
    keep: List[Tuple[Optional[Tensor], object]] = []  # pin tensors so ids stay unique
    wrapped: List[Module] = []
    seen: set = set()
    for _, module in model.named_modules():
        if id(module) in seen:
            continue
        seen.add(id(module))
        original = module.forward

        def _make_wrapper(mod: Module, orig):
            def _wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                inp = args[0] if args and isinstance(args[0], Tensor) else None
                calls.append(
                    (mod, id(inp) if inp is not None else None, out if isinstance(out, Tensor) else None)
                )
                keep.append((inp, out))
                return out

            return _wrapper

        module.forward = _make_wrapper(module, original)
        wrapped.append(module)

    try:
        with no_grad():
            model(example_input)
    finally:
        for module in wrapped:
            module.__dict__.pop("forward", None)

    call_counts = Counter(id(mod) for mod, _, _ in calls)
    consumers: Dict[int, List[Module]] = defaultdict(list)
    producers: Dict[int, Conv2d] = {}
    for mod, inp_id, out in calls:
        if inp_id is not None:
            consumers[inp_id].append(mod)
        if isinstance(mod, Conv2d) and out is not None:
            producers[id(out)] = mod

    # Each conv and BN runs once and the conv's output has one consumer, so
    # no module can land in two pairs.
    pairs: List[Tuple[Conv2d, BatchNorm2d]] = []
    for mod, inp_id, _ in calls:
        if not isinstance(mod, BatchNorm2d) or mod.training or inp_id is None:
            continue
        conv = producers.get(inp_id)
        if (
            conv is not None
            and call_counts[id(conv)] == 1
            and call_counts[id(mod)] == 1
            and len(consumers[inp_id]) == 1
        ):
            pairs.append((conv, mod))
    return pairs


def fold_conv_bn_arrays(
    conv: Conv2d, bn: BatchNorm2d
) -> Tuple[np.ndarray, np.ndarray]:
    """Folded ``(weight, bias)`` arrays for a conv followed by an eval BN."""
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = (bn.weight.data * inv_std).astype(conv.weight.data.dtype)
    weight = conv.weight.data * scale.reshape(-1, 1, 1, 1)
    # Store the folded weight physically in (kh, kw, C_in, C_out) unfold
    # order, exposed as a logical (C_out, C_in, kh, kw) transpose view: the
    # GEMM conv kernel then uses it as its operand without repacking.
    weight = np.ascontiguousarray(weight.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1)
    bias = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        bias = bias + scale * conv.bias.data
    return weight, bias.astype(weight.dtype)


class CompiledInference:
    """An inference-only view of a model with conv–BN pairs folded.

    Parameters
    ----------
    model:
        The model to compile.  It is put in eval mode (folding is meaningless
        under batch statistics) and traced once with ``example_input``.
    example_input:
        A representative input batch (a :class:`Tensor` or array); only its
        layout matters, a single sample suffices.

    Calling the compiled object runs the underlying model inside
    :class:`repro.nn.tensor.no_grad` with folded weights swapped in; the
    original parameters are restored before the call returns, even on error.
    Folded arrays are cached across calls and recomputed lazily after
    :meth:`invalidate` (triggered automatically by the pruning utilities).
    """

    def __init__(self, model: Module, example_input) -> None:
        if not isinstance(example_input, Tensor):
            example_input = Tensor(np.asarray(example_input, dtype=np.float32))
        self.model = model
        model.eval()
        self._pairs = trace_conv_bn_pairs(model, example_input)
        self._folded: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._stack: Optional[List[Tuple[np.ndarray, Optional[Tensor]]]] = None
        _register(model, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_folded(self) -> int:
        """Number of conv–BN pairs folded by this compilation."""
        return len(self._pairs)

    @property
    def pairs(self) -> List[Tuple[Conv2d, BatchNorm2d]]:
        return list(self._pairs)

    def invalidate(self) -> None:
        """Forget cached folded weights; the next call refolds from live params."""
        self._folded = None

    # ------------------------------------------------------------------
    # Hot-swap preparation
    # ------------------------------------------------------------------
    def prefold(self) -> "CompiledInference":
        """Fold eagerly instead of on the first call.

        The serving gateway prepares a replacement checkpoint *off* the
        request path: folding here means the first post-swap batch pays no
        fold latency.
        """
        self._ensure_folded()
        return self

    def warmup(self, example_input) -> "CompiledInference":
        """Prefold and run one folded forward on ``example_input``.

        This grows the workspace slabs to the example's batch shape, so the
        first production batch no larger than it allocates no scratch.  The
        warmup output is discarded.
        """
        self.prefold()
        self(example_input)
        return self

    # ------------------------------------------------------------------
    # Folding mechanics
    # ------------------------------------------------------------------
    def _ensure_folded(self) -> None:
        if self._folded is None:
            self._folded = [fold_conv_bn_arrays(conv, bn) for conv, bn in self._pairs]

    def _swap_in(self) -> None:
        stack: List[Tuple[np.ndarray, Optional[Tensor]]] = []
        for (conv, bn), (weight, bias) in zip(self._pairs, self._folded):
            stack.append((conv.weight.data, conv.bias))
            conv.weight.data = weight
            # A plain Tensor (not Parameter) dodges _parameters registration,
            # so state-dict keys are untouched while folded.
            object.__setattr__(conv, "bias", Tensor(bias))
            bn._folded_passthrough = True
        self._stack = stack

    def _swap_out(self) -> None:
        for (conv, bn), (weight_data, bias_obj) in zip(self._pairs, self._stack):
            conv.weight.data = weight_data
            object.__setattr__(conv, "bias", bias_obj)
            bn._folded_passthrough = False
        self._stack = None

    # ------------------------------------------------------------------
    # Model protocol
    # ------------------------------------------------------------------
    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        if not self._pairs:
            with no_grad():
                return self.model(x)
        self._ensure_folded()
        self._swap_in()
        try:
            with no_grad():
                return self.model(x)
        finally:
            self._swap_out()

    def eval(self) -> "CompiledInference":
        """Keep the wrapped model in eval mode (mirrors the Module protocol)."""
        self.model.eval()
        return self

    def train(self, mode: bool = True) -> "CompiledInference":
        if mode:
            raise RuntimeError(
                "CompiledInference is eval-only; train the underlying model directly"
            )
        return self.eval()

    def __repr__(self) -> str:
        return f"CompiledInference(num_folded={self.num_folded}, model={type(self.model).__name__})"


def compile_for_inference(model: Module, example_input) -> CompiledInference:
    """Compile ``model`` for fast eval-mode inference (see :class:`CompiledInference`)."""
    return CompiledInference(model, example_input)
