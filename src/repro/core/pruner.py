"""Iterative gradient-based filter pruning (paper §IV-B).

Each round:

1. compute Eq. 3 scores on the defender's *training* backdoor data;
2. prune the filter with the highest ξ (zero its weights and bias);
3. re-evaluate the unlearning loss and the main-task (clean) accuracy on the
   held-out *validation* data.

The loop stops when the validation clean accuracy falls below the threshold
``alpha`` (the offending prune is rolled back) or when the configured
:class:`~repro.core.stopping.StoppingPolicy` says so — by default the
paper's fixed patience ``P_p``
(:class:`~repro.core.stopping.PatienceStopping`); pass
:class:`~repro.core.stopping.AdaptiveStopping` for the plateau/score-mass
rule evaluated in the ``ablation_stopping_adaptive`` benchmark.

Both per-round validation metrics come from one fused forward sweep
(:class:`repro.core.evaluator.FusedEvaluator`) over a conv–BN-folded
compiled view of the model; each :class:`PruningRound` records how long its
scoring backward and validation sweep took, so bench runs can attribute
wall time.

Every round is also published on the telemetry bus
(:mod:`repro.telemetry`) as a ``prune_round`` event — filter identity and
score, loss/accuracy trajectory, per-phase timings, and the stopping
policy's internal state — bracketed by ``prune_started`` /
``prune_finished``.  With no sink attached the emission is a no-op check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..data.dataset import ImageDataset
from ..models.pruning_utils import FilterRef, PruningMask
from ..nn.module import Module
from ..telemetry import emit
from .evaluator import FusedEvaluator
from .scoring import compute_filter_scores, top_filter
from .stopping import PatienceStopping, RoundSignals, StoppingPolicy

__all__ = ["PruningRound", "PruningHistory", "GradientPruner"]

_SOURCE = "core.pruner"


@dataclass
class PruningRound:
    """Telemetry of one pruning round.

    ``score_seconds`` is the Eq. 3 scoring pass (unlearning-loss backward on
    the defender's training backdoor set); ``eval_seconds`` is the fused
    validation sweep driving the stopping rule.
    """

    round_index: int
    pruned: FilterRef
    score: float
    val_unlearning_loss: float
    val_accuracy: float
    rolled_back: bool = False
    score_seconds: float = 0.0
    eval_seconds: float = 0.0


@dataclass
class PruningHistory:
    """Full record of a pruning run."""

    rounds: List[PruningRound] = field(default_factory=list)
    initial_val_accuracy: float = float("nan")
    initial_val_loss: float = float("nan")
    stop_reason: str = ""
    stop_policy: str = "patience"
    initial_eval_seconds: float = 0.0
    num_folded_layers: int = 0

    @property
    def num_pruned(self) -> int:
        return sum(1 for r in self.rounds if not r.rolled_back)

    @property
    def total_score_seconds(self) -> float:
        return sum(r.score_seconds for r in self.rounds)

    @property
    def total_eval_seconds(self) -> float:
        return self.initial_eval_seconds + sum(r.eval_seconds for r in self.rounds)

    def per_layer_pruned(self) -> Dict[str, int]:
        """Effective (non-rolled-back) prune count per conv layer."""
        counts: Dict[str, int] = {}
        for record in self.rounds:
            if not record.rolled_back:
                counts[record.pruned.layer] = counts.get(record.pruned.layer, 0) + 1
        return counts


class GradientPruner:
    """The paper's gradient-informed pruning loop.

    Parameters
    ----------
    alpha:
        Absolute clean-accuracy floor on the validation set.  When None, it
        is derived per-run as ``initial_val_accuracy - max_acc_drop``.
    max_acc_drop:
        Acceptable accuracy reduction used to derive ``alpha`` (this is the
        "intuitive" knob the paper advertises: defenders state how much
        clean accuracy they are willing to spend).
    patience:
        The paper's ``P_p``: rounds without validation-loss improvement
        before stopping.  Ignored when ``stopping`` is given.
    max_rounds:
        Hard cap on pruning rounds (safety net; the paper's loop is bounded
        by the filter count).
    batch_size:
        Batch size for loss/score computation.
    stopping:
        A :class:`~repro.core.stopping.StoppingPolicy` instance replacing
        the default ``PatienceStopping(patience)``.  The accuracy floor
        ``alpha`` applies regardless of policy.
    """

    def __init__(
        self,
        alpha: Optional[float] = None,
        max_acc_drop: float = 0.10,
        patience: int = 10,
        max_rounds: Optional[int] = None,
        batch_size: int = 128,
        stopping: Optional[StoppingPolicy] = None,
    ) -> None:
        if alpha is not None and not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if max_acc_drop < 0:
            raise ValueError(f"max_acc_drop must be >= 0, got {max_acc_drop}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.alpha = alpha
        self.max_acc_drop = max_acc_drop
        self.patience = patience
        self.max_rounds = max_rounds
        self.batch_size = batch_size
        self.stopping = stopping

    def prune(
        self,
        model: Module,
        backdoor_train: ImageDataset,
        clean_val: ImageDataset,
        backdoor_val: ImageDataset,
        mask: Optional[PruningMask] = None,
    ) -> PruningHistory:
        """Run the pruning loop; returns history.  ``mask`` records prunes.

        ``backdoor_train`` drives scoring; ``clean_val`` / ``backdoor_val``
        drive the stopping rule, never the scores (paper §IV-B's split).
        """
        mask = mask if mask is not None else PruningMask(model)
        policy = self.stopping if self.stopping is not None else PatienceStopping(self.patience)
        history = PruningHistory(stop_policy=policy.name)
        evaluator = FusedEvaluator(model, clean_val, backdoor_val, batch_size=self.batch_size)
        initial = evaluator.evaluate()
        history.initial_val_accuracy = initial.accuracy
        history.initial_val_loss = initial.unlearning_loss
        history.initial_eval_seconds = initial.seconds
        history.num_folded_layers = evaluator.num_folded
        alpha = self.alpha
        if alpha is None:
            alpha = max(0.0, history.initial_val_accuracy - self.max_acc_drop)

        policy.reset(history.initial_val_loss)
        round_index = 0
        max_rounds = self.max_rounds if self.max_rounds is not None else float("inf")
        emit(
            "prune_started", _SOURCE,
            policy=policy.name, alpha=alpha, max_rounds=self.max_rounds,
            initial_val_accuracy=initial.accuracy,
            initial_val_loss=initial.unlearning_loss,
            num_folded_layers=evaluator.num_folded,
        )

        while round_index < max_rounds:
            score_start = time.perf_counter()
            pruned_set = set(mask.pruned_refs)
            scores, _train_loss = compute_filter_scores(
                model, backdoor_train, exclude=pruned_set, batch_size=self.batch_size
            )
            score_seconds = time.perf_counter() - score_start
            if not scores:
                history.stop_reason = "no prunable filters remain"
                break
            target = top_filter(scores)
            top_score = scores[target]
            score_mass = float(sum(scores.values()))
            saved = mask.prune(target)

            report = evaluator.evaluate()
            val_loss = report.unlearning_loss
            val_acc = report.accuracy
            record = PruningRound(
                round_index=round_index,
                pruned=target,
                score=top_score,
                val_unlearning_loss=val_loss,
                val_accuracy=val_acc,
                score_seconds=score_seconds,
                eval_seconds=report.seconds,
            )

            broke_floor = val_acc < alpha
            stop_reason: Optional[str] = None
            if broke_floor:
                # This prune broke the main task: roll it back and stop.
                mask.unprune(target, saved)
                record.rolled_back = True
                stop_reason = (
                    f"validation accuracy {val_acc:.4f} fell below alpha={alpha:.4f}"
                )
            history.rounds.append(record)
            if stop_reason is None:
                stop_reason = policy.update(
                    RoundSignals(
                        round_index=round_index,
                        val_loss=val_loss,
                        val_accuracy=val_acc,
                        top_score=top_score,
                        score_mass=score_mass,
                        num_pruned=history.num_pruned,
                    )
                )
            emit(
                "prune_round", _SOURCE,
                round=round_index, layer=target.layer, filter=target.index,
                score=top_score, score_mass=score_mass,
                val_loss=val_loss, val_acc=val_acc,
                rolled_back=record.rolled_back, num_pruned=history.num_pruned,
                score_seconds=score_seconds, eval_seconds=report.seconds,
                policy=policy.name, policy_state=policy.state(),
            )
            if stop_reason is not None:
                history.stop_reason = stop_reason
                break
            round_index += 1
        else:
            history.stop_reason = f"reached max_rounds={self.max_rounds}"

        if not history.stop_reason:
            history.stop_reason = f"reached max_rounds={self.max_rounds}"
        emit(
            "prune_finished", _SOURCE,
            rounds=len(history.rounds), num_pruned=history.num_pruned,
            stop_reason=history.stop_reason, policy=policy.name,
            per_layer=history.per_layer_pruned(),
            score_seconds=history.total_score_seconds,
            eval_seconds=history.total_eval_seconds,
        )
        return history
