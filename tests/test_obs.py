"""Tests for repro.obs: counters, timers, spans, and the JSONL sink."""

import json

import pytest

from repro.obs import MetricsRegistry, get_metrics
from repro.parallel import map_timesteps


def square(x):
    return x * x


class TestCounters:
    def test_counter_increments(self):
        m = MetricsRegistry()
        m.counter("hits").inc()
        m.counter("hits").inc(4)
        assert m.counter("hits").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)


class TestTimers:
    def test_timer_statistics(self):
        m = MetricsRegistry()
        m.timer("op").record(0.2)
        m.timer("op").record(0.4)
        stat = m.timer("op")
        assert stat.count == 2
        assert stat.total == pytest.approx(0.6)
        assert stat.mean == pytest.approx(0.3)
        assert stat.min == pytest.approx(0.2)
        assert stat.max == pytest.approx(0.4)

    def test_unused_timer_mean_zero(self):
        assert MetricsRegistry().timer("never").mean == 0.0


class TestSpans:
    def test_span_feeds_timer(self):
        m = MetricsRegistry()
        with m.span("work"):
            pass
        assert m.timer("work").count == 1

    def test_span_without_sink_writes_nothing(self, tmp_path):
        m = MetricsRegistry()
        assert m.sink is None
        with m.span("work"):
            pass  # must not raise or write anywhere

    def test_span_sink_emits_parseable_jsonl(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        m = MetricsRegistry(sink=str(sink))
        with m.span("classify", steps=3):
            pass
        with m.span("render"):
            pass
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [r["name"] for r in records] == ["classify", "render"]
        assert records[0]["attrs"] == {"steps": 3}
        assert all(r["duration_s"] >= 0 for r in records)

    def test_span_records_error(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        m = MetricsRegistry(sink=str(sink))
        with pytest.raises(RuntimeError):
            with m.span("doomed"):
                raise RuntimeError("boom")
        record = json.loads(sink.read_text().splitlines()[0])
        assert record["error"] == "RuntimeError"

    def test_sink_failure_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        m = MetricsRegistry(sink=str(blocker / "trace.jsonl"))
        with m.span("work"):
            pass
        assert m.counter_values("obs.sink.")["obs.sink.errors"] == 1

    def test_env_configures_sink(self, tmp_path, monkeypatch):
        sink = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_OBS_SINK", str(sink))
        m = MetricsRegistry()
        with m.span("via-env"):
            pass
        assert "via-env" in sink.read_text()


class TestRegistry:
    def test_snapshot_and_reset(self):
        m = MetricsRegistry()
        m.counter("a").inc(2)
        m.timer("b").record(0.1)
        snap = m.snapshot()
        assert snap["counters"]["a"] == 2
        assert snap["timers"]["b"]["count"] == 1
        json.dumps(snap)  # snapshot must be JSON-serializable
        m.reset()
        assert m.snapshot() == {"counters": {}, "timers": {}}

    def test_default_registry_is_shared(self):
        assert get_metrics() is get_metrics()


class TestExecutorInstrumentation:
    def test_map_populates_default_registry(self):
        metrics = get_metrics()
        metrics.reset()
        map_timesteps(square, [1, 2, 3], retry=1, inject_faults={1: 1})
        snap = metrics.snapshot()
        assert snap["counters"]["executor.tasks"] == 3
        assert snap["counters"]["executor.retries"] == 1
        assert snap["timers"]["executor.map"]["count"] == 1


class TestThreadSafety:
    """Regression: counters/timers/spans are mutated from many threads.

    The serve daemon increments request counters on the event loop while
    pool and dispatcher threads record timers; before the per-instance
    locks, concurrent ``inc`` lost updates (read-modify-write race).
    These hammers assert *exact* totals, which only hold when every
    mutation is atomic.
    """

    def _hammer(self, fn, threads=8, repeats=10_000):
        import threading

        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(repeats):
                fn()

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        return threads * repeats

    def test_counter_inc_is_atomic_across_threads(self):
        m = MetricsRegistry()
        counter = m.counter("hammered")
        expected = self._hammer(counter.inc)
        assert counter.value == expected

    def test_timer_record_is_atomic_across_threads(self):
        m = MetricsRegistry()
        timer = m.timer("hammered")
        expected = self._hammer(lambda: timer.record(0.5))
        assert timer.count == expected
        assert timer.total == pytest.approx(0.5 * expected)

    def test_concurrent_counter_creation_yields_one_instance(self):
        import threading

        m = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append(m.counter("shared"))

        ts = [threading.Thread(target=worker) for _ in range(8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestExport:
    def test_active_spans_tracks_open_spans(self):
        m = MetricsRegistry()
        assert m.active_spans() == []
        with m.span("outer"):
            spans = m.active_spans()
            assert [s["name"] for s in spans] == ["outer"]
            assert spans[0]["elapsed_s"] >= 0.0
        assert m.active_spans() == []

    def test_active_spans_cleared_on_error(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.span("doomed"):
                raise RuntimeError("boom")
        assert m.active_spans() == []

    def test_export_text_is_deterministic_and_complete(self):
        m = MetricsRegistry()
        m.counter("b.two").inc(2)
        m.counter("a.one").inc()
        m.timer("t").record(0.25)
        text = m.export_text()
        assert text == m.export_text()
        lines = text.splitlines()
        assert "a.one 1" in lines
        assert "b.two 2" in lines
        assert any(line.startswith("t count=1 ") for line in lines)
        with m.span("open"):
            assert any(line.startswith("open elapsed_s=")
                       for line in m.export_text().splitlines())
