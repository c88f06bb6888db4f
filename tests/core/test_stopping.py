"""The pruner's fixed ``P_p`` stop rule (paper §IV-B), driven through
``GradientPruner.prune``.

Most cases replace the validation sweep with a scripted loss sequence,
because on the tiny fixtures the loss never improves after round 0, so no
real run there exercises the counter reset.
"""

import copy
import json

import numpy as np
import pytest

from repro.core import FusedEvalReport, GradientPruner
from repro.data.splits import defender_split
from repro.telemetry import MemorySink, TelemetryBus, set_bus


@pytest.fixture()
def pruning_setup(backdoored_tiny_model, tiny_reservoir, tiny_attack):
    clean_train, clean_val = defender_split(
        tiny_reservoir, spc=20, rng=np.random.default_rng(0)
    )
    return {
        "model": copy.deepcopy(backdoored_tiny_model),
        "backdoor_train": tiny_attack.triggered_with_true_labels(clean_train),
        "clean_val": clean_val,
        "backdoor_val": tiny_attack.triggered_with_true_labels(clean_val),
    }


def _prune(setup, pruner):
    return pruner.prune(
        setup["model"], setup["backdoor_train"], setup["clean_val"], setup["backdoor_val"]
    )


def _scripted_prune(monkeypatch, setup, losses, patience):
    """Prune with each validation sweep replaced by the next scripted loss.

    ``losses[0]`` is the initial sweep and ``losses[i]`` is round ``i - 1``'s;
    accuracy stays at 1.0, so only the patience rule can stop the run before
    the script runs out (``max_rounds``).
    """
    sweeps = iter(losses)

    class ScriptedEvaluator:
        num_folded = 0

        def __init__(self, *args, **kwargs):
            pass

        def evaluate(self):
            return FusedEvalReport(accuracy=1.0, unlearning_loss=next(sweeps), seconds=0.0)

    monkeypatch.setattr("repro.core.pruner.FusedEvaluator", ScriptedEvaluator)
    pruner = GradientPruner(alpha=0.0, patience=patience, max_rounds=len(losses) - 1)
    return _prune(setup, pruner)


def _recorded(run):
    """Call ``run()`` with a fresh telemetry bus; returns its sink and the result."""
    sink = MemorySink()
    bus = TelemetryBus()
    bus.attach(sink)
    previous = set_bus(bus)
    try:
        return sink, run()
    finally:
        set_bus(previous)


class TestPatienceStopping:
    def test_stops_after_patience_flat_rounds(self, monkeypatch, pruning_setup):
        history = _scripted_prune(monkeypatch, pruning_setup, [1.0] * 6, patience=3)
        assert len(history.rounds) == 3
        assert history.stop_reason == "unlearning loss did not improve for 3 rounds"

    def test_improvement_resets_counter(self, monkeypatch, pruning_setup):
        losses = [1.0, 1.1, 0.9, 0.95, 0.95, 0.5]
        history = _scripted_prune(monkeypatch, pruning_setup, losses, patience=2)
        assert len(history.rounds) == 4
        assert history.stop_reason == "unlearning loss did not improve for 2 rounds"

    def test_initial_loss_is_the_first_best(self, monkeypatch, pruning_setup):
        # Equal to the initial loss is no improvement: patience 1 stops at once.
        history = _scripted_prune(monkeypatch, pruning_setup, [0.5, 0.5, 0.1], patience=1)
        assert len(history.rounds) == 1
        assert history.stop_reason == "unlearning loss did not improve for 1 rounds"

    def test_state_is_json_clean(self, pruning_setup):
        # A real sweep: the stop state must reach the bus as plain JSON
        # numbers, before any sink sanitizes it.
        pruner = GradientPruner(alpha=0.0, patience=2, max_rounds=3)
        sink, history = _recorded(lambda: _prune(pruning_setup, pruner))
        rounds = [e.fields for e in sink.named("prune_round")]
        assert len(rounds) == len(history.rounds) >= 1
        for fields in rounds:
            state = {k: fields[k] for k in ("best_loss", "since_improvement")}
            assert json.loads(json.dumps(state, allow_nan=False)) == state
            assert 0 <= state["since_improvement"] <= 2
            assert state["best_loss"] <= history.initial_val_loss

    def test_invalid_patience(self):
        for patience in (0, -1):
            with pytest.raises(ValueError, match="patience must be >= 1"):
                GradientPruner(patience=patience)


class TestPrunerIntegration:
    def test_prune_round_events_stream_policy_state(self, monkeypatch, pruning_setup):
        losses = [1.0, 1.1, 0.9, 0.95, 0.95]
        sink, _ = _recorded(
            lambda: _scripted_prune(monkeypatch, pruning_setup, losses, patience=2)
        )
        (started,) = sink.named("prune_started")
        assert started.fields["patience"] == 2
        rounds = [e.fields for e in sink.named("prune_round")]
        assert [r["best_loss"] for r in rounds] == pytest.approx([1.0, 0.9, 0.9, 0.9])
        assert [r["since_improvement"] for r in rounds] == [1, 0, 1, 2]
        (finished,) = sink.named("prune_finished")
        assert finished.fields["rounds"] == len(rounds)
