"""Fused pruning-loop evaluator: clean accuracy + Eq. 2 loss in one sweep.

Each pruning round must re-measure two quantities on the held-out validation
splits: the main-task (clean) accuracy and the unlearning loss on the
triggered validation set.  The reference implementation walks the model over
the two datasets in two separate passes; :class:`FusedEvaluator` concatenates
the splits once at construction and computes both metrics from a **single
batched forward sweep** over the combined array, running the model through a
:class:`repro.nn.inference.CompiledInference` view (conv–BN folding + the
no-grad kernels).  Batches are packed across the split boundary, so no
partial batch is wasted between the two datasets.

Numerical contract: the returned accuracy is bit-identical to
:func:`repro.training.evaluate_accuracy` modulo conv–BN folding's float
reassociation, and the loss matches
:func:`repro.core.unlearning.unlearning_loss_value` within float32 tolerance
(the sum reduction is batching-invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data.dataset import ImageDataset
from ..nn import Tensor, cross_entropy
from ..nn.inference import CompiledInference
from ..nn.module import Module

__all__ = ["FusedEvalReport", "FusedEvaluator"]


@dataclass
class FusedEvalReport:
    """One fused validation sweep: both stopping-rule metrics plus telemetry."""

    accuracy: float
    unlearning_loss: float
    seconds: float
    num_folded: int = 0


class FusedEvaluator:
    """Evaluate clean accuracy and the unlearning loss in one forward sweep.

    Parameters
    ----------
    model:
        The model under pruning; evaluated in eval mode.
    clean_val:
        Clean validation split (drives the accuracy floor ``alpha``).
    backdoor_val:
        Triggered validation split with *correct* labels (drives Eq. 2).
    batch_size:
        Forward batch size over the concatenated array.

    Forwards run through a compiled conv–BN-folded view of the model, which
    prune/unprune mutations invalidate automatically.
    """

    def __init__(
        self,
        model: Module,
        clean_val: ImageDataset,
        backdoor_val: ImageDataset,
        batch_size: int = 128,
    ) -> None:
        if len(clean_val) == 0:
            raise ValueError("cannot evaluate on an empty clean validation set")
        if len(backdoor_val) == 0:
            raise ValueError("empty backdoor set")
        self._model = model
        self._clean_count = len(clean_val)
        self._images = np.concatenate([clean_val.images, backdoor_val.images], axis=0)
        self._clean_labels = np.asarray(clean_val.labels)
        self._backdoor_labels = np.asarray(backdoor_val.labels)
        self.batch_size = batch_size
        self._compiled = CompiledInference(model, Tensor(self._images[:1]))

    @property
    def num_folded(self) -> int:
        """Conv–BN pairs folded by the compiled view."""
        return self._compiled.num_folded

    def evaluate(self) -> FusedEvalReport:
        """One fused sweep; returns accuracy, Eq. 2 loss, and wall time."""
        start_time = time.perf_counter()
        self._model.eval()
        total = self._images.shape[0]
        boundary = self._clean_count
        correct = 0
        loss_total = 0.0
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            logits = self._compiled(Tensor(self._images[start:stop])).data
            if start < boundary:  # clean part: accuracy
                clean_stop = min(stop, boundary)
                predictions = logits[: clean_stop - start].argmax(axis=1)
                correct += int((predictions == self._clean_labels[start:clean_stop]).sum())
            if stop > boundary:  # backdoor part: Eq. 2 sum-reduced cross-entropy
                bd_start = max(start, boundary)
                labels = self._backdoor_labels[bd_start - boundary : stop - boundary]
                loss = cross_entropy(
                    Tensor(logits[bd_start - start :]), labels, reduction="sum"
                )
                loss_total += loss.item()
        return FusedEvalReport(
            accuracy=correct / boundary,
            unlearning_loss=loss_total,
            seconds=time.perf_counter() - start_time,
            num_folded=self.num_folded,
        )
