"""Tests for the GEMM execution engine (repro.nn.engine) and the workspace.

Covers the inline GEMM and its bias epilogue (including inside a daemonic
orchestrator-style child), every branch of the ``groups == 1`` conv
backward, the one process-wide scratch workspace shared by inference and
training, and the fork hygiene hook.
"""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from repro.nn import Conv2d, Tensor, compile_for_inference, no_grad
from repro.nn import functional as F
from repro.nn.engine import engine, reset_engine
from repro.nn.engine import gemm as gemm_mod
from tests.nn.reference import reference_kernels

RNG = np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts and ends with fresh engine counters."""
    reset_engine()
    yield
    reset_engine()


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
        expected = a @ b + bias
        got = engine().execute(a, b, bias=bias)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)


def _daemon_gemms(queue) -> None:
    """Body of a daemonic fork child: big GEMMs, then report errors."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4096, 576)).astype(np.float32)
    b = rng.standard_normal((576, 64)).astype(np.float32)
    bias = rng.standard_normal(64).astype(np.float32)
    c = rng.standard_normal((4096, 64)).astype(np.float32)

    product = engine().execute(a, b, bias=bias)
    dw = engine().execute_tn(a, c)
    queue.put(
        {
            "execute_err": float(np.abs(product - (a @ b + bias)).max()),
            "execute_tn_err": float(np.abs(dw - a.T @ c).max()),
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


class TestPlanSharingAcrossBatchSizes:
    """The one workspace only grows: after a batch-32 forward, every smaller
    batch runs from the same slabs, so serving many batch sizes costs no
    more scratch than serving the largest one."""

    @pytest.mark.parametrize("name", ["preact_resnet18", "mobilenet_v3_large"])
    def test_every_batch_size_fits_in_the_largest_plan(self, name):
        from repro.models import build_model

        model = build_model(name, num_classes=4, seed=0)
        x = RNG.standard_normal((32, 3, 16, 16)).astype(np.float32)
        compiled = compile_for_inference(model, Tensor(x[:1]))

        def forwards(n):
            got = compiled(Tensor(x[:n])).data
            with no_grad():
                expected = model(Tensor(x[:n])).data
            return got, expected

        # The workspace is process-wide: clear it before each measurement so
        # only this model's scratch is counted.
        F.workspace().clear()
        forwards(32)
        budget = F.workspace().nbytes

        F.workspace().clear()
        for n in range(1, 33):
            got, expected = forwards(n)
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)
        assert F.workspace().nbytes <= budget


# ---------------------------------------------------------------------------
# No-grad convs in cache-sized blocks of images; the gradient path whole
# ---------------------------------------------------------------------------
# A 3x3 stride-1 unfold of an (8, 32, 32) image is 288 KiB, so 7 images fill
# one block; at stride 2 an image is 72 KiB and 28 fill one.  A (64, 32, 32)
# image unfolds to 2.25 MiB, more than the bound, and runs alone.
BLOCK_CASES = [
    pytest.param(7, 8, 1, 1, id="one-block"),
    pytest.param(28, 8, 1, 4, id="several-blocks"),
    pytest.param(16, 8, 1, 3, id="partial-last-block"),
    pytest.param(64, 8, 2, 3, id="stride-2"),
    pytest.param(1, 64, 1, 1, id="one-image-over-the-bound"),
    pytest.param(3, 64, 1, 3, id="images-over-the-bound"),
]


class TestNoGradConvBlocks:
    """A no-grad ``groups == 1`` conv unfolds one block of images at a time,
    so its scratch stays within ``F._BLOCK_BYTES`` at any batch size."""

    def test_unfold_slabs_stay_within_the_bound(self):
        conv = Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(1))
        x = RNG.standard_normal((64, 8, 32, 32)).astype(np.float32)
        whole_unfold = 64 * 32 * 32 * 9 * 8 * 4  # 18 MiB
        assert whole_unfold > F._BLOCK_BYTES
        F.workspace().clear()
        with no_grad():
            conv(Tensor(x))
        slabs = F.workspace()._slabs
        assert slabs["cols_gemm"].nbytes <= F._BLOCK_BYTES
        assert slabs["pad"].nbytes <= F._BLOCK_BYTES

    @pytest.mark.parametrize("n, c_in, stride, gemms", BLOCK_CASES)
    def test_blocks_match_reference(self, n, c_in, stride, gemms):
        rng = np.random.default_rng(n + c_in + stride)
        conv = Conv2d(c_in, 8, 3, stride=stride, padding=1, rng=rng)
        conv.bias.data[:] = rng.standard_normal(8).astype(np.float32)
        x = rng.standard_normal((n, c_in, 32, 32)).astype(np.float32)
        with no_grad():
            got = conv(Tensor(x)).data
        assert engine().totals["calls"] == gemms
        with reference_kernels(), no_grad():
            expected = conv(Tensor(x)).data
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)

    def test_compiled_preact_labels_match_reference_at_batch_128(self):
        from repro.models import build_model

        model = build_model("preact_resnet18", num_classes=10, seed=0).eval()
        x = RNG.standard_normal((128, 3, 32, 32)).astype(np.float32)
        compiled = compile_for_inference(model, Tensor(x[:1]))
        got = compiled(Tensor(x)).data
        with reference_kernels(), no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-4)
        np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    def test_gradient_path_runs_one_whole_batch_gemm(self):
        """A conv that builds a graph runs one whole-batch GEMM, bitwise, even
        when its unfold exceeds the bound.  Blocking it would save no scratch:
        the backward's dW is one GEMM over the whole batch's re-unfolded
        columns.  And it would change the training bits, because OpenBLAS's
        per-row sums depend on the GEMM's row count, so blocked outputs differ
        in the last float32 bits.  ``TestGoldenGrid`` pins those bits."""
        rng = np.random.default_rng(2)
        conv = Conv2d(8, 8, 3, padding=1, rng=rng)
        conv.bias.data[:] = rng.standard_normal(8).astype(np.float32)
        x = rng.standard_normal((64, 8, 32, 32)).astype(np.float32)
        got = conv(Tensor(x, requires_grad=True)).data
        assert engine().totals["calls"] == 1

        cols = F._im2col_gemm(x, (3, 3), (1, 1), (1, 1))
        assert cols.nbytes > F._BLOCK_BYTES
        w_mat = conv.weight.data.transpose(2, 3, 1, 0).reshape(72, 8)
        gemm = np.matmul(cols, w_mat)
        gemm += conv.bias.data
        expected = gemm.reshape(64, 32, 32, 8).transpose(0, 3, 1, 2)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# groups == 1 conv backward: gather and scatter dX, re-unfolded dW
# ---------------------------------------------------------------------------
CONV_GRID = [
    pytest.param(k, s, p, id=f"k{k}-s{s}-p{p}")
    for k in (1, 2, 3, 5)
    for s in (1, 2)
    for p in sorted({0, k - 1, k})
]


class TestConvBackwardGrid:
    """dX, dW and db of the ``groups == 1`` kernel against the reference.

    Stride-1 convs with ``padding < kernel`` take the gather dX, the rest the
    col2im scatter; dW re-unfolds the input in both.  The grid reaches every
    branch deterministically, at the property suite's tolerances.  With
    ``interleave``, a no-grad forward of the same layer on other data
    overwrites the workspace between the forward and its backward.
    """

    @pytest.mark.parametrize("interleave", [False, True], ids=["plain", "interleave"])
    @pytest.mark.parametrize("kernel, stride, padding", CONV_GRID)
    def test_grads_match_reference(self, kernel, stride, padding, interleave):
        rng = np.random.default_rng(100 * kernel + 10 * stride + padding)
        conv = Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
        conv.bias.data[:] = rng.standard_normal(4).astype(np.float32)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)

        def grads(interleave):
            xt = Tensor(x.copy(), requires_grad=True)
            out = conv(xt)
            if interleave:
                with no_grad():
                    conv(Tensor(x[::-1] * 2.0 + 1.0))
            (out * out).sum().backward()
            found = (xt.grad.copy(), conv.weight.grad.copy(), conv.bias.grad.copy())
            conv.zero_grad()
            return found

        got = grads(interleave)
        with reference_kernels():
            expected = grads(False)
        for name, g, e in zip(("dX", "dW", "db"), got, expected):
            np.testing.assert_allclose(g, e, rtol=1e-4, atol=1e-5, err_msg=name)

    def test_forward_keeps_no_columns(self):
        """Between forward and backward a train-mode conv holds its output and
        little else: no unfolded columns (9x the input for a 3x3 kernel)."""
        rng = np.random.default_rng(4)
        conv = Conv2d(16, 16, 3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((8, 16, 32, 32)).astype(np.float32), requires_grad=True)
        conv(x)  # warm-up: the workspace slabs exist from here on
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.5 * out.data.nbytes, (held, out.data.nbytes)
        (out * out).sum().backward()
        assert x.grad.shape == x.shape


# ---------------------------------------------------------------------------
# Depthwise tap-loop kernel and the shared workspace
# ---------------------------------------------------------------------------
class TestDepthwiseArena:
    def test_planned_steps_stay_flat_and_padded_input_never_aliases_a_slab(self):
        """Repeated training steps reuse the workspace without growing it, and
        the padded input the backward keeps is never a workspace slab: the
        workspace is shared by training and inference, so convs interleaved
        between a forward and its backward overwrite every slab."""
        rng = np.random.default_rng(21)
        conv = Conv2d(6, 6, 5, stride=2, padding=2, groups=6, rng=rng)
        x = rng.standard_normal((3, 6, 11, 11)).astype(np.float32)

        sizes = []
        for _ in range(3):
            conv.zero_grad()
            out = conv(Tensor(x, requires_grad=True))
            (out * out).sum().backward()
            sizes.append(F.workspace().nbytes)
        assert sizes[0] == sizes[1] == sizes[2], sizes

        with reference_kernels():
            conv.zero_grad()
            out = conv(Tensor(x, requires_grad=True))
            (out * out).sum().backward()
            expected = conv.weight.grad.copy()
        # Between forward and backward, unrelated depthwise convs of the same
        # shape on other data, no-grad and gradient alike, overwrite every
        # "pad"/"taps" slab.  dW must not notice.
        other = rng.standard_normal(x.shape).astype(np.float32)
        conv.zero_grad()
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

        F._after_fork_in_child()

        assert len(F.workspace()) == 0
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
