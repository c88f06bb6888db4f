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
benefit from the kernel-level fast path in :mod:`repro.nn.functional`.

When a folded BN's output feeds exactly one traced :class:`ReLU` module,
the activation is *fused* as well: the conv runs with ``activation="relu"``
so the GEMM engine applies the BN affine (now the conv bias) and the ReLU
in place on the GEMM output, and the ReLU module becomes a passthrough —
folded inference never materializes an un-activated intermediate.
Architectures that call the tensor-method ``.relu()`` (pre-activation
ResNets) fold without activation fusion, which is merely the PR 2 behavior.

Folded weights are cached and **invalidated automatically** when
``repro.models.pruning_utils`` mutates conv filters (prune/unprune/mask
re-application); the next call refolds from the live parameters.  Code that
mutates weights through other channels must call :func:`invalidate_compiled`
(or :meth:`CompiledInference.invalidate`) itself.

The original model is never left modified: folded tensors are swapped in
around each compiled call and restored in a ``finally`` block, so external
snapshots (state dicts, pruning saves) always observe the true parameters.

Set ``REPRO_DISABLE_FAST_PATH=1`` to make compiled models run the plain
reference forward, which bisects regressions between the kernel layer and
this orchestration layer.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .engine import PlannedArena
from .functional import fast_path_enabled, use_arena
from .layers import BatchNorm2d, Conv2d, ReLU
from .module import Module
from .tensor import Tensor, no_grad

__all__ = [
    "CompiledInference",
    "FoldChain",
    "compile_for_inference",
    "trace_conv_bn_pairs",
    "trace_fold_chains",
    "fold_conv_bn_arrays",
    "invalidate_compiled",
]


@dataclass(frozen=True)
class FoldChain:
    """One traced conv→BN(→ReLU) chain eligible for folding.

    ``relu`` is the downstream :class:`ReLU` module when the BN's output is
    consumed by exactly one traced module, that module is a ReLU, and it
    runs once per forward — in which case the activation is fused into the
    convolution's GEMM epilogue and the ReLU becomes a passthrough while
    folded.  ``None`` when the activation is applied some other way (e.g.
    the tensor-method ``.relu()`` the pre-activation ResNets use, which the
    module-boundary trace cannot see).
    """

    conv: Conv2d
    bn: BatchNorm2d
    relu: Optional[ReLU] = None

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
    """Back-compat view of :func:`trace_fold_chains` as (conv, bn) pairs."""
    return [(chain.conv, chain.bn) for chain in trace_fold_chains(model, example_input)]


def trace_fold_chains(model: Module, example_input: Tensor) -> List[FoldChain]:
    """Run one traced eval forward and return foldable conv→BN(→ReLU) chains.

    Every module's ``forward`` is temporarily wrapped to record the identity
    of its (single-tensor) input and output.  A pair qualifies when:

    - an eval-mode :class:`BatchNorm2d` consumed exactly the output tensor of
      a :class:`Conv2d`,
    - that tensor was consumed by no other traced module, and
    - both modules ran exactly once (weight-shared reuse is not foldable).

    A qualifying pair is extended to a chain when the BN's own output is
    consumed by exactly one traced module, that module is a :class:`ReLU`,
    and it runs exactly once (a weight-shared ReLU reused across layers
    cannot be turned into a passthrough for just one of its call sites).

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

    chains: List[FoldChain] = []
    claimed: set = set()
    for mod, inp_id, out in calls:
        if not isinstance(mod, BatchNorm2d) or mod.training or inp_id is None:
            continue
        conv = producers.get(inp_id)
        if conv is None:
            continue
        if call_counts[id(conv)] != 1 or call_counts[id(mod)] != 1:
            continue
        if len(consumers[inp_id]) != 1:
            continue
        if id(conv) in claimed or id(mod) in claimed:
            continue
        relu: Optional[ReLU] = None
        if out is not None:
            bn_consumers = consumers.get(id(out), [])
            if (
                len(bn_consumers) == 1
                and isinstance(bn_consumers[0], ReLU)
                and call_counts[id(bn_consumers[0])] == 1
                and id(bn_consumers[0]) not in claimed
            ):
                relu = bn_consumers[0]
                claimed.add(id(relu))
        chains.append(FoldChain(conv, mod, relu))
        claimed.add(id(conv))
        claimed.add(id(mod))
    return chains


def fold_conv_bn_arrays(
    conv: Conv2d, bn: BatchNorm2d
) -> Tuple[np.ndarray, np.ndarray]:
    """Folded ``(weight, bias)`` arrays for a conv followed by an eval BN."""
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = (bn.weight.data * inv_std).astype(conv.weight.data.dtype)
    weight = conv.weight.data * scale.reshape(-1, 1, 1, 1)
    # Store the folded weight physically in (kh, kw, C_in, C_out) unfold
    # order, exposed as a logical (C_out, C_in, kh, kw) transpose view: the
    # fast conv kernel then uses it as its GEMM operand without repacking.
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
        self._chains = trace_fold_chains(model, example_input)
        self._folded: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._stack: Optional[List[Tuple[np.ndarray, Optional[Tensor]]]] = None
        # Per-model scratch plan: the first call under each (shape, dtype)
        # records the fast path's allocation trace, then every later call
        # serves all conv intermediates from preallocated lifetime-shared
        # slabs (see repro.nn.engine.planner).
        self._arena = PlannedArena()
        _register(model, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_folded(self) -> int:
        """Number of conv–BN pairs folded by this compilation."""
        return len(self._chains)

    @property
    def num_fused_activations(self) -> int:
        """Folded chains whose ReLU is fused into the conv GEMM epilogue."""
        return sum(1 for chain in self._chains if chain.relu is not None)

    @property
    def pairs(self) -> List[Tuple[Conv2d, BatchNorm2d]]:
        return [(chain.conv, chain.bn) for chain in self._chains]

    @property
    def chains(self) -> List[FoldChain]:
        return list(self._chains)

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
        """Prefold and run one folded forward to trace the arena plan.

        After this, the first production batch of the same shape runs
        entirely from preplanned slabs.  The warmup output is discarded.
        """
        self.prefold()
        self(example_input)
        return self

    # ------------------------------------------------------------------
    # Folding mechanics
    # ------------------------------------------------------------------
    def _ensure_folded(self) -> None:
        if self._folded is None:
            self._folded = [
                fold_conv_bn_arrays(chain.conv, chain.bn) for chain in self._chains
            ]

    def _swap_in(self) -> None:
        stack: List[Tuple[np.ndarray, Optional[Tensor]]] = []
        for chain, (weight, bias) in zip(self._chains, self._folded):
            conv, bn = chain.conv, chain.bn
            stack.append((conv.weight.data, conv.bias))
            conv.weight.data = weight
            # A plain Tensor (not Parameter) dodges _parameters registration,
            # so state-dict keys are untouched while folded.
            object.__setattr__(conv, "bias", Tensor(bias))
            bn._folded_passthrough = True
            if chain.relu is not None:
                # ReLU runs in the conv's GEMM epilogue; the module
                # becomes an identity so the activated output passes through.
                conv._fused_activation = "relu"
                chain.relu._folded_passthrough = True
        self._stack = stack

    def _swap_out(self) -> None:
        for chain, (weight_data, bias_obj) in zip(self._chains, self._stack):
            chain.conv.weight.data = weight_data
            object.__setattr__(chain.conv, "bias", bias_obj)
            chain.bn._folded_passthrough = False
            if chain.relu is not None:
                chain.conv._fused_activation = None
                chain.relu._folded_passthrough = False
        self._stack = None

    # ------------------------------------------------------------------
    # Model protocol
    # ------------------------------------------------------------------
    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float32))
        if not self._chains or not fast_path_enabled():
            with no_grad():
                return self.model(x)
        self._ensure_folded()
        self._arena.begin((x.data.shape, x.data.dtype.str))
        self._swap_in()
        try:
            with use_arena(self._arena), no_grad():
                return self.model(x)
        finally:
            self._swap_out()
            self._arena.end()

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
        return (
            f"CompiledInference(num_folded={self.num_folded}, "
            f"num_fused_activations={self.num_fused_activations}, "
            f"model={type(self.model).__name__})"
        )


def compile_for_inference(model: Module, example_input) -> CompiledInference:
    """Compile ``model`` for fast eval-mode inference (see :class:`CompiledInference`)."""
    return CompiledInference(model, example_input)
