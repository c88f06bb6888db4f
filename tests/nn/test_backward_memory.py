"""Memory fence for ``Tensor.backward``'s release of the graph.

The forward of a training step leaves its graph on the tape: every layer's
output plus the arrays its backward closure saved (BatchNorm's ``x_hat``, the
depthwise padded input, ...).  ``backward()`` frees each node's gradient and
saved arrays once its parents have their share, so the backward should peak
near that tape rather than at about twice it, and a training loop should not
carry one step's graph into the next step's forward.  Measured with
tracemalloc (numpy reports its buffers to it) after one warm-up step, so the
workspace slabs and the parameters' ``.grad`` buffers already exist.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import SGD, Tensor, cross_entropy

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
