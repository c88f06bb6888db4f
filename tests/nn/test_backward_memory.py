"""Memory fence for the autograd graph: what it keeps, and what backward frees.

The forward of a training step leaves its graph on the tape: the arrays each
backward closure kept (the conv input, BatchNorm's ``x_hat``, the depthwise
padded input, ReLU's output, ...).  The graph's vertices hold no op's data,
so an output nothing reads in backward (a conv output under BatchNorm, a
residual sum) is freed as soon as the caller drops it.  ``backward()`` frees
each vertex's gradient and kept arrays once its parents have their share, so
the backward should peak near that tape rather than at about twice it, and a
training loop should not carry one step's graph into the next step's
forward.  Measured with tracemalloc (numpy reports its buffers to it) after
one warm-up step, so the workspace slabs and the parameters' ``.grad``
buffers already exist.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy
from repro.nn import functional as F

MiB = 2**20

# Keeping every interior gradient until the caller drops the graph reads
# about 1.8 tapes for a single backward and 2.8 for the loop.
MAX_PEAK_OVER_TAPE = 1.4


def _batch(n):
    rng = np.random.default_rng(0)
    return rng.random((n, 3, 32, 32), dtype=np.float32), rng.integers(0, 10, n)


def tape_and_backward_peak(model, images, labels):
    """Bytes one forward leaves on the tape, and the peak during its
    ``backward()`` above the pre-forward baseline, after a warm-up step."""
    cross_entropy(model(Tensor(images)), labels).backward()
    model.zero_grad(set_to_none=False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(model(Tensor(images)), labels)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        return tape, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,train", [("preact_resnet18", True), ("mobilenet_v3_large", False)])
def test_backward_peaks_near_the_tape(name, train):
    model = build_model(name, num_classes=10, seed=1).train(train)
    tape, peak = tape_and_backward_peak(model, *_batch(8))
    assert peak <= MAX_PEAK_OVER_TAPE * tape, (peak / tape, tape)


def test_training_loop_does_not_hold_the_previous_graph():
    model = build_model("preact_resnet18", num_classes=10, seed=1).train()
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    images, labels = _batch(8)

    def step():  # the loop of ``train_classifier`` and ``FineTuner``
        loss = cross_entropy(model(Tensor(images)), labels)
        optimizer.zero_grad(set_to_none=False)
        loss.backward()
        optimizer.step()
        return loss

    step()  # warm-up: momentum buffers and the workspace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(model(Tensor(images)), labels)
        tape = tracemalloc.get_traced_memory()[0] - base
        del loss
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(2):
            loss = step()  # as in a training loop, ``loss`` outlives its step
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= MAX_PEAK_OVER_TAPE * tape, (peak / tape, tape)


# When every op result kept its parents' data, a batch-8 forward left 9.73 MiB
# (preact_resnet18, train) and 9.03 MiB (mobilenet_v3_large, eval) on the tape.
@pytest.mark.parametrize(
    "name,train,max_tape_mib",
    [("preact_resnet18", True, 9.73 / 2), ("mobilenet_v3_large", False, 7.5)],
)
def test_tape_keeps_only_what_backward_reads(name, train, max_tape_mib):
    model = build_model(name, num_classes=10, seed=1).train(train)
    tape, _ = tape_and_backward_peak(model, *_batch(8))
    assert tape <= max_tape_mib * MiB, tape / MiB


def test_dropped_output_is_freed_before_backward():
    rng = np.random.default_rng(0)
    images = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    weights = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)

    def run(hold_output):
        x = Tensor(images, requires_grad=True)
        w = Tensor(weights, requires_grad=True)
        gamma = Tensor(np.ones(6, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(6, np.float32), requires_grad=True)
        y = F.conv2d(x, w, padding=1)
        z, _, _ = F.batch_norm2d_train(y, gamma, beta, 1e-5)
        output = weakref.ref(y.data)
        held = y if hold_output else None
        del y
        alive = output() is not None
        z.sum().backward()
        del held  # held across the backward
        return alive, [t.grad for t in (x, w, gamma, beta)]

    held_alive, held_grads = run(hold_output=True)
    dropped_alive, dropped_grads = run(hold_output=False)
    assert held_alive
    assert not dropped_alive  # BatchNorm's closure keeps x_hat, not its input
    for held, dropped in zip(held_grads, dropped_grads):
        assert np.array_equal(held, dropped)
