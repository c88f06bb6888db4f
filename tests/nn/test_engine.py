"""Tests for the GEMM execution engine (repro.nn.engine).

Covers the static memory planner, the inline GEMM and its fused epilogue
(including inside a daemonic orchestrator-style child), epilogue fusion
plumbing, the depthwise kernel's use of the planned training arena, and the
fork hygiene hook.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Linear,
    Module,
    ReLU,
    Tensor,
    compile_for_inference,
    no_grad,
)
from repro.nn import functional as F
from repro.nn.engine import (
    PlannedArena,
    SlabRequest,
    engine,
    plan_slabs,
    reset_engine,
)
from repro.nn.engine import gemm as gemm_mod

RNG = np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts and ends with fresh engine counters."""
    reset_engine()
    yield
    reset_engine()


# ---------------------------------------------------------------------------
# Memory planner
# ---------------------------------------------------------------------------
class TestPlanner:
    def test_disjoint_tags_share_a_slab(self):
        plan = plan_slabs(
            [
                SlabRequest("pad", 1000, start=0, end=2),
                SlabRequest("wmat", 400, start=3, end=5),
                SlabRequest("cols", 2000, start=1, end=5),
            ]
        )
        # pad and wmat never live at once -> same slab; cols overlaps both.
        assert plan.assignment["pad"] == plan.assignment["wmat"]
        assert plan.assignment["cols"] != plan.assignment["pad"]
        assert plan.total_bytes == 2000 + 1000
        assert plan.shared_bytes_saved == 400

    def test_overlapping_tags_get_distinct_slabs(self):
        plan = plan_slabs(
            [
                SlabRequest("a", 100, start=0, end=3),
                SlabRequest("b", 100, start=1, end=2),
            ]
        )
        assert plan.assignment["a"] != plan.assignment["b"]

    def test_arena_record_then_planned_views(self):
        arena = PlannedArena()
        arena.begin("sig")
        first = arena.get("pad", (8, 8), np.float32)
        arena.release("pad")
        arena.get("wmat", (4, 4), np.float32)
        arena.release("wmat")
        arena.end()
        plan = arena.plan_for("sig")
        assert plan is not None
        assert plan.assignment["pad"] == plan.assignment["wmat"]

        arena.begin("sig")
        planned = arena.get("pad", (8, 8), np.float32)
        planned_w = arena.get("wmat", (4, 4), np.float32)
        arena.end()
        assert planned.shape == (8, 8)
        # Shared slab: both views alias the same backing bytes.
        assert np.shares_memory(planned, planned_w)
        assert not np.shares_memory(planned, first)  # record pass used fallback

    def test_arena_falls_back_for_unplanned_requests(self):
        arena = PlannedArena()
        arena.begin("sig")
        arena.get("pad", (4,), np.float32)
        arena.end()
        arena.begin("sig")
        bigger = arena.get("pad", (1024,), np.float32)  # larger than planned
        unknown = arena.get("other", (4,), np.float32)  # tag not in plan
        arena.end()
        assert bigger.shape == (1024,)
        assert unknown.shape == (4,)

    def test_same_event_sequence_shares_one_plan(self):
        arena = PlannedArena()
        for signature, n in (("mid", 16), ("large", 64), ("small", 4)):
            arena.begin(signature)
            arena.get("pad", (n,), np.float32)
            arena.release("pad")
            arena.get("cols", (2 * n,), np.float32)
            arena.end()
        plan = arena.plan_for("large")
        assert arena.plan_for("mid") is plan and arena.plan_for("small") is plan
        # Sized to the largest recording; pad and cols never overlap.
        assert plan.slab_sizes == [2 * 64 * 4]

        views = []
        for signature, n in (("small", 4), ("large", 64)):
            arena.begin(signature)
            views.append(arena.get("cols", (2 * n,), np.float32))
            arena.end()
        assert np.shares_memory(*views)  # one slab set serves both sizes

    def test_different_event_sequence_keeps_its_own_plan(self):
        arena = PlannedArena()
        arena.begin("a")
        arena.get("pad", (8,), np.float32)
        arena.release("pad")
        arena.end()
        arena.begin("b")
        arena.get("pad", (8,), np.float32)
        arena.get("cols", (8,), np.float32)  # pad still live: a new sequence
        arena.end()
        plan_a, plan_b = arena.plan_for("a"), arena.plan_for("b")
        assert plan_a is not plan_b
        assert set(plan_a.assignment) == {"pad"}
        assert plan_b.assignment["pad"] != plan_b.assignment["cols"]

    def test_clear_drops_plans(self):
        arena = PlannedArena()
        arena.begin("sig")
        arena.get("pad", (4,), np.float32)
        arena.end()
        arena.clear()
        assert arena.plan_for("sig") is None
        assert arena.nbytes == 0


# ---------------------------------------------------------------------------
# Engine execution
# ---------------------------------------------------------------------------
def _gemm_case(m=512, k=96, n=80, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    return a, b, bias


class TestEngineExecute:
    def test_inline_epilogue_matches_numpy(self):
        a, b, bias = _gemm_case()
        expected = np.maximum(a @ b + bias, 0.0)
        got = engine().execute(a, b, bias=bias, activation="relu")
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)

    def test_unsupported_activation_raises(self):
        a, b, _ = _gemm_case(m=8, k=4, n=4)
        with pytest.raises(ValueError):
            engine().execute(a, b, activation="gelu")

    def test_execute_tn_accumulate_requires_out(self):
        a, _, _ = _gemm_case(m=16, k=8, n=4)
        with pytest.raises(ValueError, match="out buffer"):
            engine().execute_tn(a, a, accumulate=True)


def _daemon_gemms(queue) -> None:
    """Body of a daemonic fork child: big GEMMs, then report errors."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4096, 576)).astype(np.float32)
    b = rng.standard_normal((576, 64)).astype(np.float32)
    bias = rng.standard_normal(64).astype(np.float32)
    c = rng.standard_normal((4096, 64)).astype(np.float32)
    base = rng.standard_normal((576, 64)).astype(np.float32)

    fused = engine().execute(a, b, bias=bias, activation="relu")
    acc = base.copy()
    engine().execute_tn(a, c, out=acc, accumulate=True)
    queue.put(
        {
            "execute_err": float(np.abs(fused - np.maximum(a @ b + bias, 0.0)).max()),
            "execute_tn_err": float(np.abs(acc - (base + a.T @ c)).max()),
            "children": len(multiprocessing.active_children()),
            "totals": dict(engine().totals),
        }
    )


class TestDaemonicChild:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="fork unavailable"
    )
    def test_large_gemms_run_inline_in_daemonic_child(self):
        """Orchestrator pool workers are daemonic and may not fork; GEMMs far
        above any old dispatch threshold must still run there, in-process."""
        engine().execute(*_gemm_case(m=8, k=4, n=4)[:2])  # parent state to forget
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_daemon_gemms, args=(queue,), daemon=True)
        proc.start()
        try:
            report = queue.get(timeout=120)
        finally:
            proc.join(timeout=30)
        assert proc.exitcode == 0
        assert report["execute_err"] <= 1e-4
        assert report["execute_tn_err"] <= 1e-3
        assert report["children"] == 0
        # The fork hook dropped the parent's counters: the child saw only its own.
        assert report["totals"] == {"calls": 2, "inline_calls": 2}


# ---------------------------------------------------------------------------
# conv2d fused-activation plumbing
# ---------------------------------------------------------------------------
class _FusedNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = Conv2d(3, 8, 3, padding=1, rng=rng)
        self.bn = BatchNorm2d(8)
        self.relu = ReLU()
        self.fc = Linear(8 * 8 * 8, 4, rng=rng)
        self.bn.running_mean[:] = rng.standard_normal(8).astype(np.float32)
        self.bn.running_var[:] = (0.5 + rng.uniform(0.1, 2.0, 8)).astype(np.float32)
        self.bn.weight.data[:] = rng.standard_normal(8).astype(np.float32)
        self.bn.bias.data[:] = rng.standard_normal(8).astype(np.float32)

    def forward(self, x):
        h = self.relu(self.bn(self.conv(x)))
        return self.fc(h.reshape(h.shape[0], -1))


class _SharedReluNet(Module):
    """One ReLU instance used twice: folding must NOT fuse it."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.conv1 = Conv2d(3, 4, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(4)
        self.conv2 = Conv2d(4, 4, 3, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(4)
        self.relu = ReLU()
        self.fc = Linear(4 * 6 * 6, 2, rng=rng)

    def forward(self, x):
        h = self.relu(self.bn1(self.conv1(x)))
        h = self.relu(self.bn2(self.conv2(h)))
        return self.fc(h.reshape(h.shape[0], -1))


class TestFusedActivation:
    def test_activation_on_grad_call_raises(self):
        x = Tensor(RNG.standard_normal((1, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(RNG.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="inference-only"):
            F.conv2d(x, w, activation="relu")

    @pytest.mark.parametrize("groups", [1, 3])
    def test_unknown_activation_raises(self, groups):
        x = Tensor(RNG.standard_normal((1, 3, 6, 6)).astype(np.float32))
        w = Tensor(RNG.standard_normal((3, 3 // groups, 3, 3)).astype(np.float32))
        with no_grad(), pytest.raises(ValueError, match="unsupported fused activation"):
            F.conv2d(x, w, groups=groups, activation="gelu")

    def test_fused_conv_matches_separate_relu(self):
        x = Tensor(RNG.standard_normal((2, 3, 6, 6)).astype(np.float32))
        w = Tensor(RNG.standard_normal((4, 3, 3, 3)).astype(np.float32))
        b = Tensor(RNG.standard_normal(4).astype(np.float32))
        with no_grad():
            fused = F.conv2d(x, w, b, padding=1, activation="relu").data
            separate = F.conv2d(x, w, b, padding=1).relu().data
        np.testing.assert_allclose(fused, separate, rtol=1e-5, atol=1e-6)

    def test_compiled_model_fuses_relu_and_restores_state(self):
        model = _FusedNet()
        model.eval()
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        with F.use_arena(F.workspace()):
            pass  # no-op sanity: context manager importable/usable
        compiled = compile_for_inference(model, Tensor(x[:1]))
        assert compiled.num_folded == 1
        assert compiled.num_fused_activations == 1

        previous = os.environ.get(F.FAST_PATH_ENV)
        os.environ[F.FAST_PATH_ENV] = "1"
        try:
            with no_grad():
                reference = model(Tensor(x)).data
        finally:
            if previous is None:
                os.environ.pop(F.FAST_PATH_ENV, None)
            else:
                os.environ[F.FAST_PATH_ENV] = previous

        out = compiled(Tensor(x)).data
        np.testing.assert_allclose(out, reference, rtol=1e-3, atol=1e-4)
        # Fusion flags are swap-scoped: everything restored after the call.
        assert model.conv._fused_activation is None
        assert model.relu._folded_passthrough is False
        assert model.bn._folded_passthrough is False

    def test_shared_relu_is_not_fused(self):
        model = _SharedReluNet()
        model.eval()
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        compiled = compile_for_inference(model, Tensor(x[:1]))
        assert compiled.num_folded == 2
        assert compiled.num_fused_activations == 0

    def test_planned_arena_reused_across_calls(self):
        model = _FusedNet()
        model.eval()
        x = RNG.standard_normal((4, 3, 8, 8)).astype(np.float32)
        compiled = compile_for_inference(model, Tensor(x[:1]))
        first = compiled(Tensor(x)).data.copy()  # recording pass
        signature = ((4, 3, 8, 8), np.dtype(np.float32).str)
        assert compiled._arena.plan_for(signature) is not None
        second = compiled(Tensor(x)).data  # planned pass
        np.testing.assert_allclose(first, second, rtol=1e-6, atol=1e-7)


class TestPlanSharingAcrossBatchSizes:
    """A compiled model's trace has one event sequence at every batch size,
    so the arena keeps one plan however many batch sizes it has served."""

    @pytest.mark.parametrize("name", ["preact_resnet18", "mobilenet_v3_large"])
    def test_every_batch_size_fits_in_the_largest_plan(self, name):
        from repro.models import build_model

        model = build_model(name, num_classes=4, seed=0)
        x = RNG.standard_normal((32, 3, 16, 16)).astype(np.float32)
        alone = compile_for_inference(model, Tensor(x[:1]))
        alone(Tensor(x))
        budget = alone._arena.nbytes

        compiled = compile_for_inference(model, Tensor(x[:1]))
        for n in range(1, 33):  # each size records, then widens the plan
            compiled(Tensor(x[:n]))
        plan = compiled._arena.plan_for(((32, 3, 16, 16), x.dtype.str))
        for n in range(1, 33):  # every size now runs from the batch-32 slabs
            assert compiled._arena.plan_for(((n, 3, 16, 16), x.dtype.str)) is plan
            got = compiled(Tensor(x[:n])).data
            with no_grad():
                expected = model(Tensor(x[:n])).data
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)
        assert compiled._arena.nbytes <= budget


# ---------------------------------------------------------------------------
# Depthwise tap-loop kernel and the training arena
# ---------------------------------------------------------------------------
class TestDepthwiseArena:
    def test_planned_steps_stay_flat_and_padded_input_never_aliases_a_slab(self, monkeypatch):
        from repro.nn.engine.training import train_step_arena, training_step

        rng = np.random.default_rng(21)
        conv = Conv2d(6, 6, 5, stride=2, padding=2, groups=6, rng=rng)
        x = rng.standard_normal((3, 6, 11, 11)).astype(np.float32)
        signature = ("depthwise-arena-test", x.shape)

        sizes = []
        for _ in range(3):
            conv.zero_grad()
            with training_step(signature):
                out = conv(Tensor(x, requires_grad=True))
                (out * out).sum().backward()
            sizes.append(train_step_arena().nbytes)
        assert sizes[1] == sizes[2], sizes

        with monkeypatch.context() as env:
            env.setenv(F.FAST_PATH_ENV, "1")
            conv.zero_grad()
            out = conv(Tensor(x, requires_grad=True))
            (out * out).sum().backward()
            expected = conv.weight.grad.copy()
        # Between forward and backward, unrelated depthwise convs of the same
        # shape on other data overwrite every "pad"/"taps" slab in both the
        # inference and the training arenas.  dW must not notice.
        other = rng.standard_normal(x.shape).astype(np.float32)
        conv.zero_grad()
        with training_step(signature):
            out = conv(Tensor(x, requires_grad=True))
            with no_grad():
                conv(Tensor(other))
            conv(Tensor(other, requires_grad=True))
            (out * out).sum().backward()
        np.testing.assert_allclose(conv.weight.grad, expected, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Fork hygiene
# ---------------------------------------------------------------------------
class TestForkHook:
    def test_child_hook_clears_arenas_and_engine(self):
        a, b, bias = _gemm_case()
        engine().execute(a, b, bias=bias)
        assert gemm_mod._ENGINE is not None
        F.workspace().get("pad", (16,), np.float32)
        assert len(F.workspace()) > 0

        arena = PlannedArena()
        arena.begin("sig")
        arena.get("pad", (16,), np.float32)
        arena.end()
        assert arena.plan_for("sig") is not None

        F._after_fork_in_child()

        assert len(F.workspace()) == 0
        assert arena.plan_for("sig") is None
        assert gemm_mod._ENGINE is None

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no register_at_fork")
    def test_forked_child_sees_empty_workspace(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        F.workspace().get("pad", (1024,), np.float32)
        assert len(F.workspace()) > 0
        queue = ctx.SimpleQueue()

        def child(q):
            q.put(len(F.workspace()))

        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        proc.join(timeout=30)
        assert queue.get() == 0
        # The parent's arena is untouched by the child's hook.
        assert len(F.workspace()) > 0
