"""Tests for seeding and logging utilities."""

import logging

import numpy as np
import pytest

from repro.utils import Timer, get_logger, seed_sequence


class TestSeeding:
    def test_seed_sequence_count_and_uniqueness(self):
        seeds = list(seed_sequence(0, 10))
        assert len(seeds) == 10
        assert len(set(seeds)) == 10

    def test_seed_sequence_reproducible(self):
        assert list(seed_sequence(5, 4)) == list(seed_sequence(5, 4))


class TestLogging:
    def test_get_logger_singleton_handler(self):
        a = get_logger("repro.test")
        b = get_logger("repro.test2")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert a.name == "repro.test"
        assert b.name == "repro.test2"

    def test_timer_measures(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0

    def test_timer_logs_with_label(self, caplog):
        # The library logger does not propagate to root (by design), so the
        # capture handler must be attached to it directly.
        logger = get_logger("repro.timer_test")
        logger.addHandler(caplog.handler)
        try:
            with Timer("step", logger=logger):
                pass
        finally:
            logger.removeHandler(caplog.handler)
        assert any("step took" in r.message for r in caplog.records)


class TestLoggingLevels:
    def test_per_call_level_honored_after_first_call(self):
        # The old implementation latched the first caller's level globally
        # and silently ignored every later ``level`` argument.
        get_logger("repro.lvl_a")
        logger = get_logger("repro.lvl_b", logging.DEBUG)
        assert logger.getEffectiveLevel() == logging.DEBUG
        logger = get_logger("repro.lvl_b", logging.WARNING)
        assert logger.getEffectiveLevel() == logging.WARNING

    def test_env_variable_sets_root_level(self, monkeypatch):
        from repro.utils.logging import LOG_LEVEL_ENV

        monkeypatch.setenv(LOG_LEVEL_ENV, "DEBUG")
        get_logger("repro.env_test")
        assert logging.getLogger("repro").level == logging.DEBUG
        monkeypatch.setenv(LOG_LEVEL_ENV, "30")
        get_logger("repro.env_test")
        assert logging.getLogger("repro").level == logging.WARNING
        monkeypatch.setenv(LOG_LEVEL_ENV, "not-a-level")
        get_logger("repro.env_test")  # invalid value: ignored, no crash

    def test_env_cleanup(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        logging.getLogger("repro").setLevel(logging.INFO)
        assert get_logger("repro").getEffectiveLevel() == logging.INFO


class TestLogEvent:
    def test_structured_line(self, caplog):
        from repro.utils import log_event

        logger = get_logger("repro.event_test")
        logger.addHandler(caplog.handler)
        try:
            log_event(logger, "finished", task="trial:abc", elapsed=1.23456, worker=2)
        finally:
            logger.removeHandler(caplog.handler)
        line = caplog.records[-1].message
        assert line.startswith("event=finished")
        assert "task=trial:abc" in line
        assert "elapsed=1.235" in line
        assert "worker=2" in line

    def test_values_with_spaces_quoted(self, caplog):
        from repro.utils import log_event

        logger = get_logger("repro.event_test2")
        logger.addHandler(caplog.handler)
        try:
            log_event(logger, "failed", error="worker died (killed or crashed)")
        finally:
            logger.removeHandler(caplog.handler)
        assert 'error="worker died (killed or crashed)"' in caplog.records[-1].message

    def _render(self, caplog, **fields):
        from repro.utils import log_event

        logger = get_logger("repro.event_fmt")
        logger.addHandler(caplog.handler)
        try:
            log_event(logger, "fmt", **fields)
        finally:
            logger.removeHandler(caplog.handler)
        return caplog.records[-1].message

    def test_nan_and_inf_render_as_words(self, caplog):
        line = self._render(
            caplog, loss=float("nan"), hi=float("inf"), lo=float("-inf")
        )
        assert "loss=nan" in line
        assert "hi=inf" in line
        assert "lo=-inf" in line

    def test_nested_dict_renders_compact_json(self, caplog):
        line = self._render(caplog, state={"b": 2, "a": [1, 2]})
        # Sorted keys, no spaces: one shell-greppable token per field.
        assert 'state={"a":[1,2],"b":2}' in line

    def test_tuple_renders_as_json_list(self, caplog):
        line = self._render(caplog, shape=(3, 32, 32))
        assert "shape=[3,32,32]" in line

    def test_unjsonable_nested_value_falls_back_to_str(self, caplog):
        class Odd:
            def __str__(self):
                return "odd"

        line = self._render(caplog, payload={"obj": Odd()})
        assert 'payload={"obj":"odd"}' in line

    def test_unicode_values_not_escaped(self, caplog):
        line = self._render(caplog, note="ξ score идёт")
        assert 'note="ξ score идёт"' in line

    def test_empty_string_quoted(self, caplog):
        assert 'name=""' in self._render(caplog, name="")


class TestGetLoggerReinit:
    def test_reconfigures_after_handlers_cleared_without_duplicating(self):
        root = logging.getLogger("repro")
        get_logger("repro.reinit_a")
        assert len(root.handlers) == 1
        # A second call must not stack a second handler...
        get_logger("repro.reinit_b")
        assert len(root.handlers) == 1
        # ...and a cleared logger (test teardown, reload) must be repaired,
        # again exactly once.
        saved = list(root.handlers)
        root.handlers.clear()
        try:
            get_logger("repro.reinit_c")
            assert len(root.handlers) == 1
            get_logger("repro.reinit_d")
            assert len(root.handlers) == 1
        finally:
            root.handlers[:] = saved


class TestPercentiles:
    def test_known_quantiles(self):
        from repro.utils import percentiles

        samples = list(range(1, 101))  # 1..100
        result = percentiles(samples, (0, 50, 100))
        assert result["p0"] == 1.0
        assert result["p50"] == pytest.approx(50.5)
        assert result["p100"] == 100.0

    def test_linear_interpolation(self):
        from repro.utils import percentiles

        # Positions between samples interpolate linearly (numpy 'linear').
        samples = [10.0, 20.0, 30.0, 40.0]
        expected = np.percentile(samples, [25, 75, 99])
        result = percentiles(samples, (25, 75, 99))
        assert result["p25"] == pytest.approx(expected[0])
        assert result["p75"] == pytest.approx(expected[1])
        assert result["p99"] == pytest.approx(expected[2])

    def test_order_independent_and_single_sample(self):
        from repro.utils import percentiles

        assert percentiles([3.0, 1.0, 2.0], (50,)) == percentiles([1.0, 2.0, 3.0], (50,))
        assert percentiles([7.0], (1, 50, 99)) == {"p1": 7.0, "p50": 7.0, "p99": 7.0}

    def test_empty_and_out_of_range(self):
        from repro.utils import percentiles

        assert percentiles([], (50,)) == {}
        with pytest.raises(ValueError, match="out of range"):
            percentiles([1.0], (101,))


class TestLatencySummary:
    def test_summary_fields(self):
        from repro.utils import latency_summary

        summary = latency_summary([2.0, 4.0, 6.0, 8.0])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(5.0)
        assert summary["min"] == 2.0 and summary["max"] == 8.0
        assert {"p50", "p90", "p99"} <= set(summary)

    def test_empty_is_json_clean(self):
        from repro.utils import latency_summary

        assert latency_summary([]) == {"count": 0}

    def test_custom_quantiles(self):
        from repro.utils import latency_summary

        summary = latency_summary([1.0, 2.0], qs=(50.0,))
        assert "p50" in summary and "p99" not in summary


class TestHardTimeout:
    def test_passthrough_when_fast(self):
        from repro.utils import hard_timeout

        with hard_timeout(30.0, "should not fire"):
            result = 1 + 1
        assert result == 2

    def test_fires_on_blocking_wait(self):
        import time as _time

        from repro.utils import hard_timeout

        with pytest.raises(TimeoutError, match="slept too long"):
            with hard_timeout(0.2, "slept too long"):
                _time.sleep(5.0)

    def test_exceptions_propagate_and_timer_is_cleared(self):
        import time as _time

        from repro.utils import hard_timeout

        with pytest.raises(KeyError):
            with hard_timeout(0.2, "never"):
                raise KeyError("inner")
        _time.sleep(0.3)  # a leaked timer would fire here and kill the test
