"""Counters, timers, and trace spans with a JSON-lines sink.

The task farm (and the hot paths it feeds — classification, streaming,
ray casting) must expose its own performance: the ROADMAP's production
story needs per-run evidence of where time goes, and the paper's cluster
deployment (Sec. 8) only works if stragglers and failures are visible.
This module is the repository's single observability substrate:

- :class:`Counter` — monotonically increasing event count;
- :class:`TimerStat` — accumulated duration statistics (total/count/
  min/max/mean) for a named operation;
- :meth:`MetricsRegistry.span` — a context manager that both feeds a
  :class:`TimerStat` and, when a sink is configured, appends one JSON
  line per span (name, wall-clock timestamp, duration, attributes) to an
  append-only trace file.

Everything is stdlib + threading only.  Configuration is explicit
(:meth:`MetricsRegistry.configure_sink`) or environment driven
(``REPRO_OBS_SINK=/path/to/trace.jsonl``); with no sink configured,
spans cost one clock read on entry and exit and nothing is written.
Writes open the sink in append mode per event so forked pool workers can
share one trace file without inheriting file-handle offsets.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

_SINK_ENV = "REPRO_OBS_SINK"


@dataclass
class Counter:
    """A named monotonically increasing count.

    ``inc`` is thread-safe: the serve daemon's event loop, its compute
    dispatcher, and forked-from-threads helpers all bump the same
    instruments, and an unlocked ``+=`` is a read-modify-write race that
    silently drops increments under contention.
    """

    name: str
    value: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self.value += n


@dataclass
class TimerStat:
    """Accumulated duration statistics for one named operation.

    ``record`` is thread-safe for the same reason :meth:`Counter.inc`
    is — every field update is a lost-update race without the lock.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, seconds: float) -> None:
        """Fold one observed duration into the statistics."""
        with self._lock:
            self.count += 1
            self.total += seconds
            self.min = seconds if seconds < self.min else self.min
            self.max = seconds if seconds > self.max else self.max

    @property
    def mean(self) -> float:
        """Mean seconds per observation (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0


class _Span:
    """Context manager produced by :meth:`MetricsRegistry.span`."""

    __slots__ = ("_registry", "name", "attrs", "_start", "duration")

    def __init__(self, registry: "MetricsRegistry", name: str, attrs: dict) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._registry._begin_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        self._registry._finish_span(self, error=exc_type.__name__ if exc_type else None)


class MetricsRegistry:
    """Thread-safe registry of counters, timers, and a span sink."""

    def __init__(self, sink: str | None = None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, TimerStat] = {}
        self._active: dict[int, tuple[str, float]] = {}
        self._sink = sink if sink is not None else os.environ.get(_SINK_ENV) or None

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def timer(self, name: str) -> TimerStat:
        """Return (creating if needed) the timer statistics for ``name``."""
        with self._lock:
            if name not in self._timers:
                self._timers[name] = TimerStat(name)
            return self._timers[name]

    def span(self, name: str, **attrs) -> _Span:
        """Open a trace span: times the block, optionally logs one JSON line.

        ``attrs`` must be JSON-serializable; they land verbatim in the
        sink record so traces can carry workload shape (item counts,
        worker counts, voxel counts).
        """
        return _Span(self, name, attrs)

    # ------------------------------------------------------------------ #
    # Sink
    # ------------------------------------------------------------------ #
    def configure_sink(self, path=None) -> None:
        """Set (or with ``None``, disable) the JSON-lines span sink."""
        with self._lock:
            self._sink = str(path) if path is not None else None

    @property
    def sink(self) -> str | None:
        """Current sink path, or ``None`` when span logging is off."""
        return self._sink

    def _begin_span(self, span: _Span) -> None:
        with self._lock:
            self._active[id(span)] = (span.name, time.perf_counter())

    def _finish_span(self, span: _Span, error: str | None) -> None:
        with self._lock:
            self._active.pop(id(span), None)
        self.timer(span.name).record(span.duration)
        sink = self._sink
        if sink is None:
            return
        record = {
            "event": "span",
            "name": span.name,
            "ts": time.time(),
            "duration_s": span.duration,
            "pid": os.getpid(),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if error is not None:
            record["error"] = error
        line = json.dumps(record) + "\n"
        with self._lock:
            # Append-mode open per event: O_APPEND keeps lines atomic
            # enough across forked workers sharing the file.
            try:
                with open(sink, "a", encoding="utf-8") as fh:
                    fh.write(line)
                failed = False
            except OSError:
                failed = True  # observability must never take the pipeline down
        if failed:
            # Counted after the release: counter() takes the same
            # non-reentrant lock.
            self.counter("obs.sink.errors").inc()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """Current value of every counter whose name starts with ``prefix``.

        Convenience for call sites that report one subsystem's counters
        (e.g. ``classify.*`` cache-hit and cache-miss counts) without
        walking the full :meth:`snapshot`.
        """
        with self._lock:
            return {n: c.value for n, c in self._counters.items()
                    if n.startswith(prefix)}

    def active_spans(self) -> list[dict]:
        """Spans currently open (name + elapsed seconds), oldest first.

        The serve daemon's ``/metrics`` endpoint reports these so an
        operator can see what a busy process is *currently* doing, not
        just what it has finished.
        """
        now = time.perf_counter()
        with self._lock:
            active = sorted(self._active.values(), key=lambda item: item[1])
        return [{"name": name, "elapsed_s": now - start}
                for name, start in active]

    def snapshot(self) -> dict:
        """JSON-serializable dump of every counter and timer."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "timers": {
                    n: {
                        "count": t.count,
                        "total_s": t.total,
                        "mean_s": t.mean,
                        "min_s": t.min if t.count else 0.0,
                        "max_s": t.max,
                    }
                    for n, t in self._timers.items()
                },
            }

    def export_text(self) -> str:
        """Deterministic plain-text dump: counters, timers, in-flight spans.

        The serve daemon's ``GET /metrics`` body.  Format is line-based
        and grep-friendly: one ``<name> <value>`` line per counter, one
        ``<name> count=<n> total_s=<t> mean_s=<m> min_s=<lo> max_s=<hi>``
        line per timer, one ``<name> elapsed_s=<e>`` line per span still
        open at export time.  Sections are sorted by name so two exports
        of the same state are byte-identical.
        """
        snap = self.snapshot()
        lines = ["# counters"]
        for name in sorted(snap["counters"]):
            lines.append(f"{name} {snap['counters'][name]}")
        lines.append("# timers")
        for name in sorted(snap["timers"]):
            t = snap["timers"][name]
            lines.append(f"{name} count={t['count']} total_s={t['total_s']:.6f} "
                         f"mean_s={t['mean_s']:.6f} min_s={t['min_s']:.6f} "
                         f"max_s={t['max_s']:.6f}")
        lines.append("# inflight")
        for span in self.active_spans():
            lines.append(f"{span['name']} elapsed_s={span['elapsed_s']:.6f}")
        return "\n".join(lines) + "\n"

    def reset(self, prefix: str = "") -> None:
        """Drop counters and timers (sink configuration is kept).

        With a ``prefix``, only instruments whose name starts with it are
        dropped — the resumable runner clears ``run.*`` at the start of
        each invocation so its persisted stats describe *that* run, not
        the whole process lifetime, without disturbing other subsystems'
        instruments.
        """
        with self._lock:
            if not prefix:
                self._counters.clear()
                self._timers.clear()
                return
            for store in (self._counters, self._timers):
                for name in [n for n in store if n.startswith(prefix)]:
                    del store[name]


_default = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry (what the pipeline instruments)."""
    return _default
