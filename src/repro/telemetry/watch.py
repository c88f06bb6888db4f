"""``repro watch``: live terminal dashboard over a run's event streams.

Tails the append-only files a run produces — the orchestrator's durable
``ledger.jsonl``, the one record of task lifecycle, plus any
``telemetry*.jsonl`` written by :class:`~repro.telemetry.sinks.JsonlSink`
(one per process when workers emit through ``REPRO_TELEMETRY_DIR``) —
folds the records into a :class:`WatchState`, and renders a compact
dashboard:

- task progress (queued/running/done/failed), completion rate and ETA;
- live ASR/ACC proxies folded from finished trial results;
- the pruning hot loop: rounds, unlearning-loss sparkline, clean-accuracy
  trajectory, per-layer prune counts, rounds since the best loss against
  ``P_p``;
- recovery-tuning epochs and serving swaps when those events appear.

Everything here is pure fold-and-render over dicts: :class:`JsonlTail`
turns growing files into record streams (tolerating partial trailing
lines and rotation), ``WatchState.apply`` folds one record, and
:func:`render_dashboard` produces a frame string.  The CLI loop just
clears the screen and reprints — no curses dependency, works over ssh,
and ``--once`` makes it scriptable and testable.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..orchestrator.ledger import _STATUS_FOR_EVENT

__all__ = [
    "JsonlTail",
    "WatchState",
    "sparkline",
    "render_dashboard",
    "discover_streams",
    "watch_paths",
]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class JsonlTail:
    """Incremental reader of one growing JSONL file.

    ``poll()`` returns the records appended since the previous call.  A
    partial trailing line (a writer mid-append) is buffered until its
    newline arrives; unparsable complete lines are skipped; a file that
    shrank (rotation) is re-read from the start.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self._buffer = b""

    def poll(self) -> List[Dict[str, Any]]:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self._offset:  # rotated/truncated underneath us
            self._offset = 0
            self._buffer = b""
        if size == self._offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        data = self._buffer + chunk
        lines = data.split(b"\n")
        self._buffer = lines.pop()  # b"" when the chunk ended on a newline
        records: List[Dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(record, dict):
                records.append(record)
        return records


def discover_streams(target: str) -> List[str]:
    """Stream files for a watch target (a run dir, or one JSONL file)."""
    if os.path.isfile(target):
        return [target]
    paths = []
    for pattern in ("ledger.jsonl", "telemetry*.jsonl"):
        paths.extend(glob.glob(os.path.join(target, pattern)))
    return sorted(set(paths))


@dataclass
class _TaskFold:
    status: str = "queued"
    kind: str = ""
    started_at: Optional[float] = None
    elapsed: float = 0.0


@dataclass
class WatchState:
    """Folded view of a run's event streams (ledger + telemetry)."""

    run_meta: Dict[str, Any] = field(default_factory=dict)
    tasks: Dict[str, _TaskFold] = field(default_factory=dict)
    completions: List[float] = field(default_factory=list)  # (ts) of finishes
    trial_metrics: List[Dict[str, float]] = field(default_factory=list)
    retries: int = 0
    # Pruning hot loop (latest prune run wins the headline).
    prune_rounds: int = 0
    prune_losses: deque = field(default_factory=lambda: deque(maxlen=120))
    prune_accs: deque = field(default_factory=lambda: deque(maxlen=120))
    per_layer: Counter = field(default_factory=Counter)
    num_pruned: int = 0
    prune_patience: Optional[int] = None  # P_p from prune_started
    prune_stall: int = 0  # rounds since the best unlearning loss
    prune_stop_reason: str = ""
    # Recovery tuning.
    tune_epochs: int = 0
    tune_val_loss: Optional[float] = None
    tune_best_epoch: int = -1
    # Federated rounds (latest round event per scenario wins the headline).
    fed_rounds: int = 0
    fed_total_rounds: int = 0
    fed_clients: int = 0
    fed_asrs: deque = field(default_factory=lambda: deque(maxlen=120))
    fed_accs: deque = field(default_factory=lambda: deque(maxlen=120))
    fed_agg_norm: Optional[float] = None
    # Defense arm -> latest (asr, acc) from federated.defense events.
    fed_defenses: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Serving.
    swaps: int = 0
    overloads: int = 0
    # Bookkeeping.
    events: int = 0
    last_event_ts: Optional[float] = None
    recent: deque = field(default_factory=lambda: deque(maxlen=8))

    # ------------------------------------------------------------------
    def apply(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        if not isinstance(event, str):
            return
        self.events += 1
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            self.last_event_ts = max(self.last_event_ts or 0.0, float(ts))

        if event == "run_meta":
            self.run_meta = record
        elif event in _STATUS_FOR_EVENT and record.get("task"):
            self._apply_task(event, record)
        elif event == "prune_started":
            # A new pruning run resets the hot-loop view.
            self.prune_rounds = 0
            self.prune_losses.clear()
            self.prune_accs.clear()
            self.per_layer.clear()
            self.num_pruned = 0
            self.prune_stop_reason = ""
            self.prune_stall = 0
            patience = record.get("patience")
            self.prune_patience = patience if isinstance(patience, int) else None
        elif event == "prune_round":
            self.prune_rounds += 1
            if isinstance(record.get("val_loss"), (int, float)):
                self.prune_losses.append(float(record["val_loss"]))
            if isinstance(record.get("val_acc"), (int, float)):
                self.prune_accs.append(float(record["val_acc"]))
            if record.get("layer") and not record.get("rolled_back"):
                self.per_layer[str(record["layer"])] += 1
            if isinstance(record.get("num_pruned"), int):
                self.num_pruned = record["num_pruned"]
            if isinstance(record.get("since_improvement"), int):
                self.prune_stall = record["since_improvement"]
        elif event == "prune_finished":
            self.prune_stop_reason = str(record.get("stop_reason", ""))
        elif event == "tune_epoch":
            self.tune_epochs += 1
            if isinstance(record.get("val_loss"), (int, float)):
                self.tune_val_loss = float(record["val_loss"])
            if isinstance(record.get("best_epoch"), int):
                self.tune_best_epoch = record["best_epoch"]
        elif event == "federated.round":
            if isinstance(record.get("round"), int):
                self.fed_rounds = record["round"] + 1
            if isinstance(record.get("rounds"), int):
                self.fed_total_rounds = record["rounds"]
            if isinstance(record.get("clients"), int):
                self.fed_clients = record["clients"]
            if isinstance(record.get("asr"), (int, float)):
                self.fed_asrs.append(float(record["asr"]))
            if isinstance(record.get("acc"), (int, float)):
                self.fed_accs.append(float(record["acc"]))
            if isinstance(record.get("agg_norm"), (int, float)):
                self.fed_agg_norm = float(record["agg_norm"])
        elif event == "federated.defense":
            name = record.get("defense")
            if name:
                self.fed_defenses[str(name)] = {
                    "asr": float(record.get("asr", float("nan"))),
                    "acc": float(record.get("acc", float("nan"))),
                }
        elif event == "swap":
            self.swaps += 1
        elif event == "overload_rejected":
            self.overloads += 1

        if event not in ("prune_round", "tune_epoch", "federated.round"):
            summary = event
            task = record.get("task")
            if task:
                summary += f" {task}"
            self.recent.append(summary[:100])

    def _apply_task(self, event: str, record: Dict[str, Any]) -> None:
        task = self.tasks.setdefault(str(record["task"]), _TaskFold())
        previous = task.status
        task.status = _STATUS_FOR_EVENT[event]
        if record.get("kind"):
            task.kind = str(record["kind"])
        if event == "retried":
            self.retries += 1
        if event == "finished":
            if isinstance(record.get("elapsed"), (int, float)):
                task.elapsed = float(record["elapsed"])
            ts = record.get("ts")
            if previous != "done" and isinstance(ts, (int, float)):
                self.completions.append(float(ts))
            result = record.get("result") or {}
            metrics = result.get("metrics") if isinstance(result, dict) else None
            if isinstance(metrics, dict) and "asr" in metrics:
                self.trial_metrics.append(metrics)

    # ------------------------------------------------------------------
    def task_counts(self) -> Dict[str, int]:
        counts: Counter = Counter(t.status for t in self.tasks.values())
        return dict(counts)

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Remaining-work estimate from the recent completion rate."""
        counts = self.task_counts()
        done = counts.get("done", 0)
        total = len(self.tasks)
        remaining = total - done - counts.get("failed", 0) - counts.get("skipped", 0)
        if remaining <= 0 or done < 2:
            return None
        window = self.completions[-20:]
        span = (window[-1] - window[0]) if len(window) >= 2 else 0.0
        if span <= 0:
            return None
        rate = (len(window) - 1) / span  # tasks per second
        return remaining / rate


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Render a numeric series as unicode block characters."""
    series = [float(v) for v in values]
    if not series:
        return ""
    if len(series) > width:
        series = series[-width:]
    lo, hi = min(series), max(series)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(series)
    return "".join(
        _SPARK_BLOCKS[int((v - lo) / span * (len(_SPARK_BLOCKS) - 1))] for v in series
    )


def _bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "·" * width
    filled = int(round(width * done / total))
    return "█" * filled + "·" * (width - filled)


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_dashboard(state: WatchState, width: int = 78, now: Optional[float] = None) -> str:
    """One dashboard frame as a plain string (no cursor control)."""
    now = now if now is not None else time.time()
    lines: List[str] = []
    rule = "─" * width

    meta = state.run_meta
    title = meta.get("experiment", "run") if meta else "run"
    header = f" repro watch · {title}"
    if meta.get("grid"):
        header += f" · grid {str(meta['grid'])[:10]}"
    if meta.get("workers") is not None:
        header += f" · workers={meta['workers']}"
    lines.append(header)
    lines.append(rule)

    # Tasks --------------------------------------------------------------
    if state.tasks:
        counts = state.task_counts()
        done = counts.get("done", 0)
        total = len(state.tasks)
        lines.append(
            f" tasks   [{_bar(done, total)}] {done}/{total}"
            f"  running={counts.get('running', 0)} failed={counts.get('failed', 0)}"
            f" retries={state.retries}  eta {_fmt_eta(state.eta_seconds(now))}"
        )

    # Defense proxies ----------------------------------------------------
    if state.trial_metrics:
        recent = state.trial_metrics[-32:]
        asr = sum(m.get("asr", 0.0) for m in recent) / len(recent)
        acc = sum(m.get("acc", 0.0) for m in recent) / len(recent)
        lines.append(
            f" trials  n={len(state.trial_metrics)}  ASR≈{asr * 100:5.1f}%"
            f"  ACC≈{acc * 100:5.1f}%  (mean of last {len(recent)})"
        )

    # Pruning hot loop ---------------------------------------------------
    if state.prune_rounds:
        loss_now = state.prune_losses[-1] if state.prune_losses else float("nan")
        acc_now = state.prune_accs[-1] if state.prune_accs else float("nan")
        stall = (
            f"  stall {state.prune_stall}/{state.prune_patience}"
            if state.prune_patience is not None else ""
        )
        lines.append(
            f" prune   round {state.prune_rounds}  pruned={state.num_pruned}"
            f"  loss {loss_now:.3f}  acc {acc_now * 100:5.1f}%{stall}"
        )
        if state.prune_losses:
            lines.append(f"   loss  {sparkline(state.prune_losses, width - 10)}")
        if state.prune_accs:
            lines.append(f"   acc   {sparkline(state.prune_accs, width - 10)}")
        if state.per_layer:
            top = state.per_layer.most_common(3)
            layers = "  ".join(f"{layer}:{count}" for layer, count in top)
            lines.append(f"   layers {layers}")
        if state.prune_stop_reason:
            lines.append(f"   stop: {state.prune_stop_reason}"[:width])

    # Recovery tuning ----------------------------------------------------
    if state.tune_epochs:
        val = f"{state.tune_val_loss:.4f}" if state.tune_val_loss is not None else "--"
        lines.append(
            f" tune    epoch {state.tune_epochs}  val_loss {val}"
            f"  best_epoch {state.tune_best_epoch}"
        )

    # Federated rounds ---------------------------------------------------
    if state.fed_rounds:
        asr_now = state.fed_asrs[-1] if state.fed_asrs else float("nan")
        acc_now = state.fed_accs[-1] if state.fed_accs else float("nan")
        total = f"/{state.fed_total_rounds}" if state.fed_total_rounds else ""
        norm = f"  |Δw| {state.fed_agg_norm:.3f}" if state.fed_agg_norm is not None else ""
        lines.append(
            f" fed     round {state.fed_rounds}{total}  clients={state.fed_clients}"
            f"  ASR {asr_now * 100:5.1f}%  ACC {acc_now * 100:5.1f}%{norm}"
        )
        if state.fed_asrs:
            lines.append(f"   asr   {sparkline(state.fed_asrs, width - 10)}")
        if state.fed_defenses:
            arms = "  ".join(
                f"{name}:ASR {vals['asr'] * 100:.1f}%"
                for name, vals in sorted(state.fed_defenses.items())
            )
            lines.append(f"   defenses {arms}"[:width])

    # Serving ------------------------------------------------------------
    if state.swaps or state.overloads:
        lines.append(f" serving swaps={state.swaps} overload_rejected={state.overloads}")

    # Footer -------------------------------------------------------------
    lines.append(rule)
    stale = f"{now - state.last_event_ts:.0f}s ago" if state.last_event_ts else "never"
    lines.append(f" events={state.events}  last event: {stale}")
    for entry in list(state.recent)[-4:]:
        lines.append(f"   · {entry}")
    return "\n".join(line[:width] for line in lines)


def watch_paths(
    target: str,
    interval: float = 1.0,
    once: bool = False,
    duration: Optional[float] = None,
    width: int = 78,
    out=None,
) -> WatchState:
    """Tail ``target`` (run dir or file) and render frames until stopped.

    ``once`` renders a single frame from the current file contents;
    ``duration`` bounds the loop (tests / unattended use).  Returns the
    final state so callers can assert on it.
    """
    import sys

    out = out if out is not None else sys.stdout
    state = WatchState()
    tails: Dict[str, JsonlTail] = {}
    started = time.monotonic()
    clear = "\x1b[2J\x1b[H"
    while True:
        for path in discover_streams(target):
            tail = tails.get(path)
            if tail is None:
                tail = tails[path] = JsonlTail(path)
            for record in tail.poll():
                state.apply(record)
        frame = render_dashboard(state, width=width)
        if once:
            out.write(frame + "\n")
            return state
        out.write(clear + frame + "\n")
        out.flush()
        if duration is not None and time.monotonic() - started >= duration:
            return state
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return state
