"""NAD baseline (Li et al., 2021): Neural Attention Distillation.

Two stages: (1) fine-tune a copy of the backdoored model on clean data to
obtain a *teacher*; (2) fine-tune the original (student) with the combined
loss ``CE + beta * sum_l AT(student_l, teacher_l)``, where ``AT`` is the
L2 distance between normalized spatial attention maps (channel-wise mean of
squared activations) at matched intermediate layers.  The distillation term
steers the student's attention away from trigger regions the teacher no
longer attends to.
"""

from __future__ import annotations

import copy
from typing import Dict, List

import numpy as np

from ..data.dataset import DataLoader
from ..nn import SGD, Tensor, cross_entropy, no_grad
from ..nn.module import Module
from ..models.pruning_utils import iter_conv_layers
from .base import Defense, DefenderData, DefenseReport
from .finetune import FineTuningDefense

__all__ = ["NADDefense", "attention_map"]


def attention_map(features: Tensor) -> Tensor:
    """Normalized spatial attention: mean over channels of squared features.

    Input (N, C, H, W) -> flattened, L2-normalized (N, H*W).  Stays on the
    autograd graph so the distillation loss backpropagates into the student.
    """
    attention = (features * features).mean(axis=1)  # (N, H, W)
    flat = attention.flatten(start_dim=1)
    norm = (flat * flat).sum(axis=1, keepdims=True).pow(0.5) + 1e-8
    return flat / norm


def _attention_layers(model: Module, count: int) -> List[str]:
    """Pick the last ``count`` conv layers as distillation points."""
    names = [name for name, _ in iter_conv_layers(model)]
    return names[-count:]


class NADDefense(Defense):
    """Neural attention distillation.

    Parameters
    ----------
    beta:
        Weight of the attention-distillation term.
    teacher_epochs:
        Fine-tuning epochs to build the teacher.
    epochs, lr, batch_size, seed:
        Student distillation hyperparameters.
    num_attention_layers:
        How many (final) conv layers to distill.
    """

    name = "nad"

    def __init__(
        self,
        beta: float = 500.0,
        teacher_epochs: int = 10,
        epochs: int = 10,
        lr: float = 0.01,
        batch_size: int = 32,
        num_attention_layers: int = 3,
        seed: int = 0,
    ) -> None:
        self.beta = beta
        self.teacher_epochs = teacher_epochs
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.num_attention_layers = num_attention_layers
        self.seed = seed

    def apply(self, model: Module, data: DefenderData) -> DefenseReport:
        """Distill the student toward a clean-fine-tuned teacher's attention."""
        # Stage 1: teacher = clean-fine-tuned copy of the student.
        teacher = copy.deepcopy(model)
        FineTuningDefense(
            lr=self.lr, epochs=self.teacher_epochs, batch_size=self.batch_size, seed=self.seed
        ).apply(teacher, data)
        teacher.eval()

        layer_names = _attention_layers(model, self.num_attention_layers)
        student_convs = dict(iter_conv_layers(model))
        teacher_convs = dict(iter_conv_layers(teacher))

        student_feats: Dict[str, Tensor] = {}
        teacher_feats: Dict[str, Tensor] = {}
        handles = []
        for name in layer_names:
            def s_hook(_m, out, _name=name):
                student_feats[_name] = out

            def t_hook(_m, out, _name=name):
                teacher_feats[_name] = out

            handles.append(student_convs[name].register_forward_hook(s_hook))
            handles.append(teacher_convs[name].register_forward_hook(t_hook))

        optimizer = SGD(model.parameters(), lr=self.lr, momentum=0.9, weight_decay=5e-4)
        loader = DataLoader(
            data.clean_train,
            batch_size=min(self.batch_size, max(1, len(data.clean_train))),
            shuffle=True,
            rng=np.random.default_rng(self.seed),
        )
        losses: List[float] = []
        try:
            for _epoch in range(self.epochs):
                model.train()
                epoch_loss, batches = 0.0, 0
                for images, labels in loader:
                    batch = Tensor(images)
                    with no_grad():
                        teacher(batch)
                    logits = model(batch)
                    loss = cross_entropy(logits, labels)
                    for name in layer_names:
                        student_at = attention_map(student_feats[name])
                        teacher_at = Tensor(attention_map(teacher_feats[name]).data)
                        diff = student_at - teacher_at
                        loss = loss + self.beta * (diff * diff).sum(axis=1).mean()
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    epoch_loss += loss.item()
                    batches += 1
                losses.append(epoch_loss / max(batches, 1))
        finally:
            for handle in handles:
                handle.remove()
        model.eval()
        return DefenseReport(
            name=self.name,
            details={"attention_layers": layer_names, "losses": losses},
        )
