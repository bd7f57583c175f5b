"""Benchmark-side tracing of the layers' public calls.

:func:`install` wraps the public functions and methods of each layer from
outside; no file of the program changes.  Wrappers are installed before
any worker process forks, so forked workers inherit them, and a function
that a module imported by name (``from repro.volume.io import
load_sequence``) is replaced wherever it is bound.

Tracing is switched on and off through a one-byte shared mapping, so one
switch reaches every worker forked from the switching process; while off,
each wrapper costs a byte read.  Each span records name, start, end,
``span_id``, ``parent_id`` (from a ``contextvars`` stack; a pool task names
the submit span of the process that sent it), pid and ``trace_id``.  Spans
stay in memory.  A forked worker appends its spans to
``trace-<pid>.jsonl`` whenever one of its top-level spans (a pool task)
ends; the main process writes its own with :meth:`Tracer.write`.

Run as a script, this module is the traced launcher of the serve daemon::

    python tracing.py TRACE_DIR -- serve --root DIR --port 0 --workers 2

It installs the wrappers with tracing off, turns tracing on at
``SIGUSR1``, runs ``repro.cli.main`` and writes the daemon's spans when it
returns.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import mmap
import os
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: The one tracer of this process; wrappers are global, so is their sink.
TRACER = None

_current = contextvars.ContextVar("bench_span", default=None)


def _now() -> float:
    # CLOCK_MONOTONIC on Linux: one clock for every process on the host,
    # so worker-side and parent-side span ends can be subtracted.
    return time.monotonic()


class Tracer:
    """In-memory span recorder shared, through fork, with pool workers."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._flag = mmap.mmap(-1, 1)     # anonymous shared: seen by forks
        self.spans: list[dict] = []
        self.trace_id = ""
        self._new_id_space()
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _new_id_space(self) -> None:
        # pid plus a random tag: a recycled worker pid must not reuse ids.
        self._prefix = f"{os.getpid()}-{os.urandom(3).hex()}"
        self._ids = itertools.count()

    @property
    def enabled(self) -> bool:
        return self._flag[0] == 1

    def enable(self, on: bool = True) -> None:
        self._flag[0] = 1 if on else 0

    def _after_fork(self) -> None:
        # The child starts inside whatever span the forking thread had
        # open; that span belongs to the parent process.
        _current.set(None)
        self.spans = []
        self._new_id_space()
        self._forked = True

    def open(self, name: str, parent_id=None, trace_id=None) -> dict:
        parent = _current.get()
        if parent_id is None and parent is not None:
            parent_id = parent["span_id"]
        return {"name": name, "span_id": f"{self._prefix}-{next(self._ids)}",
                "parent_id": parent_id, "pid": os.getpid(),
                "trace_id": self.trace_id if trace_id is None else trace_id,
                "start": _now(), "end": None, "attrs": {}}

    def close(self, rec: dict) -> None:
        if rec["end"] is None:
            rec["end"] = _now()
        self.spans.append(rec)
        if self._forked and _current.get() is None:
            self.write()

    def write(self) -> None:
        """Append this process's spans to ``trace-<pid>.jsonl`` and drop them."""
        if not self.spans:
            return
        with open(self.out_dir / f"trace-{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def read_all(self) -> list[dict]:
        """Every span written to the trace directory plus those in memory."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("trace-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans

    def call(self, name: str, fn, args, kwargs, attrs=None, before=None):
        """Run ``fn`` under a span; ``attrs(rec, result, token, *args)``
        annotates it after the clock stops."""
        rec = self.open(name)
        token = before() if before is not None else None
        ctx = _current.set(rec)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec["end"] = _now()
            rec["attrs"]["error"] = type(exc).__name__
            _current.reset(ctx)
            self.close(rec)
            raise
        rec["end"] = _now()
        _current.reset(ctx)
        if attrs is not None:
            attrs(rec, result, token, *args, **kwargs)
        self.close(rec)
        return result


# --------------------------------------------------------------------- #
# Sizes computed from arrays (never by pickling)
# --------------------------------------------------------------------- #
def nbytes(obj, _seen=None, _depth=0) -> int:
    """Bytes of every ndarray reachable from ``obj`` (each counted once)."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen or _depth > 4:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__") and not callable(obj):
        items = vars(obj).values()
    else:
        return 0
    return sum(nbytes(v, seen, _depth + 1) for v in items)


# --------------------------------------------------------------------- #
# Span annotations
# --------------------------------------------------------------------- #
def _bytes_of_result(rec, result, _token, *args, **kwargs):
    rec["attrs"]["bytes"] = nbytes(result)


def _bytes_of_first_arg(rec, _result, _token, *args, **kwargs):
    rec["attrs"]["bytes"] = nbytes(args[0]) if args else 0


def _classify_attrs(rec, _result, _token, clf, volume, *args, **kwargs):
    data = getattr(volume, "data", volume)
    rec["attrs"]["voxels"] = int(np.asarray(data).size)
    stats = getattr(clf, "last_fast_stats", None) or {}
    rec["attrs"]["blocks_total"] = int(stats.get("blocks_total", 0))
    rec["attrs"]["blocks_pruned"] = int(stats.get("blocks_pruned", 0))


def _mask_voxels(rec, result, _token, *args, **kwargs):
    rec["attrs"]["voxels"] = int(np.count_nonzero(result))


def _track_result_voxels(rec, result, _token, *args, **kwargs):
    rec["attrs"]["voxels"] = int(sum(result.voxel_counts))


def _ert_before():
    from repro.obs import get_metrics
    return get_metrics().counter("render.fast.rays_terminated_early").value


def _render_attrs(rec, _result, ert_before, volume, tf, camera=None, *args, **kwargs):
    from repro.obs import get_metrics
    from repro.render.camera import Camera
    camera = camera or Camera()
    rec["attrs"]["pixels"] = int(camera.width * camera.height)
    rec["attrs"]["rays_terminated_early"] = int(
        get_metrics().counter("render.fast.rays_terminated_early").value - ert_before)


def _store_put_attrs(rec, _result, _token, store, key, *args, **kwargs):
    rec["attrs"]["bytes"] = store.payload_path(key).stat().st_size


def _cache_hit(rec, result, _token, *args, **kwargs):
    rec["attrs"]["hit"] = result is not None


def _runner_attrs(rec, report, _token, *args, **kwargs):
    rec["attrs"]["executed"] = int(report.executed)
    rec["attrs"]["skipped"] = int(report.skipped)


def _endpoint(rec, _result, _token, endpoint, *args, **kwargs):
    rec["attrs"]["endpoint"] = str(endpoint)


# (module, attribute, span name, annotation, ert-style "before" hook)
_FUNCTIONS = [
    ("repro.volume.io", "load_sequence", "volume.load", _bytes_of_result, None),
    ("repro.volume.io", "load_volume", "volume.load", _bytes_of_result, None),
    ("repro.core.pipeline", "volume_digest", "digest.volume", _bytes_of_first_arg, None),
    ("repro.core.pipeline", "frame_digest", "digest.frame", _bytes_of_first_arg, None),
    ("repro.run.runner", "_task_train_classifier", "train", None, None),
    ("repro.core.pipeline", "train_sequence_classifier", "train", None, None),
    ("repro.segmentation.regiongrow", "grow_4d", "track", _mask_voxels, None),
    ("repro.run.runner", "_task_tf_step", "tf", None, None),
    ("repro.render.fastcast", "render_volume_fast", "render", _render_attrs, _ert_before),
    ("repro.serve.handlers", "compute", "serve.compute", _endpoint, None),
]

# (module, class, method, span name, annotation)
_METHODS = [
    ("repro.core.dataspace", "DataSpaceClassifier", "classify", "classify", _classify_attrs),
    ("repro.core.tracking", "FeatureTracker", "track_fixed", "track", _track_result_voxels),
    ("repro.core.tracking", "FeatureTracker", "track_streaming", "track",
     _track_result_voxels),
    ("repro.core.iatf", "AdaptiveTransferFunction", "generate", "tf", None),
    ("repro.cache.store", "ArtifactStore", "put_array", "store.put", _store_put_attrs),
    ("repro.cache.store", "ArtifactStore", "put_json", "store.put", _store_put_attrs),
    ("repro.cache.store", "ArtifactStore", "get_array", "store.get", None),
    ("repro.cache.store", "ArtifactStore", "get_json", "store.get", None),
    ("repro.cache.store", "ArtifactStore", "has", "store.has", None),
    ("repro.cache.shared", "SharedArrayCache", "load", "cache.get", _cache_hit),
    ("repro.cache.shared", "SharedArrayCache", "save", "cache.put", None),
    ("repro.run.manifest", "RunManifest", "save", "manifest.save", None),
    ("repro.run.runner", "PipelineRunner", "run", "runner.run", _runner_attrs),
]

# Modules imported up front so that every by-name binding exists to patch.
_IMPORTS = ("repro.cli", "repro.run.runner", "repro.serve.handlers",
            "repro.serve.server", "repro.parallel.streaming",
            "repro.render.fastcast", "repro.parallel.pool")


def _wrap(fn, name, attrs=None, before=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = TRACER
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        parent = _current.get()
        # A store call made by the cache belongs to the cache layer.
        if name.startswith("store.") and parent is not None \
                and parent["name"].startswith("cache."):
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, attrs=attrs, before=before)
    return traced


def _rebind(original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module that binds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _skip_grid_annotator(fn):
    @functools.wraps(fn)
    def annotated(*args, **kwargs):
        grid = fn(*args, **kwargs)
        rec = _current.get()
        if TRACER is not None and TRACER.enabled and rec is not None \
                and rec["name"] == "render":
            rec["attrs"]["cells_total"] = rec["attrs"].get("cells_total", 0) + grid.cells_total
            rec["attrs"]["cells_empty"] = rec["attrs"].get("cells_empty", 0) + grid.cells_empty
        return grid
    return annotated


class _TracedTask:
    """Picklable stand-in for a pool task function.

    It travels to the worker in place of ``fn`` and runs it under a
    ``pool.task`` span whose parent is the submitting ``pool.submit``
    span.  ``sent_at`` is stamped when the pool pickles the task for the
    pipe, so the worker-side span start minus ``sent_at`` is the send
    half of the IPC time.
    """

    def __init__(self, fn, parent_id: str, trace_id: str) -> None:
        self.fn = fn
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.sent_at = None

    def __getstate__(self):
        return {**self.__dict__, "sent_at": _now()}

    def __call__(self, item):
        tracer = TRACER
        if tracer is None or not tracer.enabled:
            return self.fn(item)
        rec = tracer.open("pool.task", parent_id=self.parent_id,
                          trace_id=self.trace_id)
        rec["attrs"]["sent_at"] = self.sent_at
        rec["attrs"]["fn"] = getattr(self.fn, "__name__", repr(self.fn))
        ctx = _current.set(rec)
        try:
            return self.fn(item)
        finally:
            rec["end"] = _now()
            _current.reset(ctx)
            tracer.close(rec)


def _wrap_submit(submit):
    @functools.wraps(submit)
    def traced_submit(pool, fn, item, *args, **kwargs):
        tracer = TRACER
        if tracer is None or not tracer.enabled:
            return submit(pool, fn, item, *args, **kwargs)
        rec = tracer.open("pool.submit")
        rec["attrs"].update(workers=int(pool.workers), payload_bytes=nbytes(item))
        future = submit(pool, _TracedTask(fn, rec["span_id"], rec["trace_id"]),
                        item, *args, **kwargs)

        def done(fut):
            rec["end"] = _now()
            rec["attrs"]["ok"] = bool(fut.ok)
            rec["attrs"]["result_bytes"] = nbytes(fut.value) if fut.ok else 0
            tracer.spans.append(rec)
        future.add_done_callback(done)
        return future
    return traced_submit


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(trace_dir) -> Tracer:
    """Create this process's tracer (off) and wrap every layer's calls.

    A target missing from the program (renamed or deleted by a later
    change) is reported on stderr and skipped: its layer then reads 0.
    """
    global TRACER
    if TRACER is not None:
        return TRACER
    TRACER = Tracer(trace_dir)
    for name in _IMPORTS:
        _module(name)
    for mod_name, attr, span, attrs, before in _FUNCTIONS:
        original = getattr(_module(mod_name), attr, None)
        if original is None:
            print(f"tracing: {mod_name}.{attr} not found; skipped", file=sys.stderr)
            continue
        _rebind(original, _wrap(original, span, attrs, before))
    for mod_name, cls_name, meth, span, attrs in _METHODS:
        cls = getattr(_module(mod_name), cls_name, None)
        original = getattr(cls, meth, None) if cls is not None else None
        if original is None:
            print(f"tracing: {mod_name}.{cls_name}.{meth} not found; skipped",
                  file=sys.stderr)
            continue
        setattr(cls, meth, _wrap(original, span, attrs))
    build_skip_grid = getattr(_module("repro.render.fastcast"), "build_skip_grid", None)
    if build_skip_grid is not None:
        _rebind(build_skip_grid, _skip_grid_annotator(build_skip_grid))
    pool_cls = getattr(_module("repro.parallel.pool"), "WorkerPool", None)
    if pool_cls is not None and hasattr(pool_cls, "submit"):
        pool_cls.submit = _wrap_submit(pool_cls.submit)
    return TRACER


# --------------------------------------------------------------------- #
# Summary: spans -> per-layer numbers
# --------------------------------------------------------------------- #
def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _layer(span: dict) -> str:
    return span["name"].split(".")[0]


class SpanSummary:
    """Layer totals (outermost spans only) and self times of one trace."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = [s for s in spans if s.get("end") is not None]
        self.by_id = {s["span_id"]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s["parent_id"] in self.by_id:
                children[s["parent_id"]].append(s)
        for s in self.spans:
            dur = s["end"] - s["start"]
            covered = _union((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in children[s["span_id"]]
                             if c["end"] > s["start"] and c["start"] < s["end"])
            s["self"] = max(0.0, dur - covered)
            s["outermost"] = not any(_layer(a) == _layer(s) for a in self._ancestors(s))

    def _ancestors(self, span: dict):
        parent = self.by_id.get(span["parent_id"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent_id"])

    def named(self, prefix: str, outermost: bool = True) -> list[dict]:
        return [s for s in self.spans
                if (s["name"] == prefix or s["name"].startswith(prefix + "."))
                and (s["outermost"] or not outermost)]

    def total(self, prefix: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(prefix))

    def attr(self, prefix: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) or 0 for s in self.named(prefix))

    def layers(self, wall: float) -> list[tuple]:
        """``(layer, calls, total_s, self_s, share_of_wall)`` per layer."""
        rows = []
        for layer in sorted({_layer(s) for s in self.spans}):
            spans = [s for s in self.spans if _layer(s) == layer]
            outer = [s for s in spans if s["outermost"]]
            self_s = sum(s["self"] for s in spans)
            rows.append((layer, len(outer), sum(s["end"] - s["start"] for s in outer),
                         self_s, self_s / wall if wall > 0 else 0.0))
        return rows

    def nested_under_pool_task(self, name: str) -> tuple[int, int]:
        """``(nested, total)``: worker-side ``name`` spans, and how many of
        them sit under a ``pool.task`` span (a worker is any pid other
        than the one that submitted pool tasks)."""
        submitters = {s["pid"] for s in self.named("pool.submit")}
        worker = [s for s in self.named(name, outermost=False)
                  if submitters and s["pid"] not in submitters]
        nested = [s for s in worker
                  if any(a["name"] == "pool.task" for a in self._ancestors(s))]
        return len(nested), len(worker)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead(traced: list, untraced: list) -> float:
    """Traced over untraced median latency, minus 1, matched by op kind.

    Each kind (a request type, or the one batch operation) is compared
    with itself, so a phase that happened to draw more expensive requests
    does not read as tracing overhead; the kinds' ratios are averaged.
    Latencies are scaled to the reference host speed, so a change of the
    host's speed between the two halves does not read as overhead either.
    """
    ratios = []
    for kind in sorted({op.kind for op in traced} & {op.kind for op in untraced}):
        a = [op.seconds for op in untraced if op.kind == kind]
        b = [op.seconds for op in traced if op.kind == kind]
        ratios.append(float(np.median(b)) / float(np.median(a)))
    return float(np.mean(ratios)) - 1.0 if ratios else 0.0


def layer_metrics(spans: list[dict], traced: list, untraced: list,
                  counters: dict) -> tuple[dict, SpanSummary]:
    """Per-layer metrics of the traced operations ``traced`` (with
    ``start``/``end``/``kind``); times, counts and bytes are per op."""
    sm = SpanSummary(spans)
    ops = len(traced)
    wall = max(op.end for op in traced) - min(op.start for op in traced)
    latency_sum = sum(op.end - op.start for op in traced)
    per = (lambda v: v / ops) if ops else (lambda v: 0.0)
    submits = {s["span_id"]: s for s in sm.named("pool.submit")}
    tasks = sm.named("pool.task", outermost=False)
    ipc = 0.0
    for t in tasks:
        sub = submits.get(t["parent_id"])
        if sub is not None and t["attrs"].get("sent_at") is not None:
            ipc += max(0.0, t["start"] - t["attrs"]["sent_at"]) \
                + max(0.0, sub["end"] - t["end"])
    task_s = sum(t["end"] - t["start"] for t in tasks)
    workers = max((s["attrs"].get("workers", 0) for s in submits.values()), default=0)
    runner = sm.named("runner")
    runner_total = sum(s["end"] - s["start"] for s in runner)
    runner_self = sum(s["self"] for s in runner)
    cache_gets = sm.named("cache.get")
    compute_s = sm.total("serve.compute")
    m = {
        "volume.load_s": per(sm.total("volume")),
        "volume.bytes": per(sm.attr("volume", "bytes")),
        "digest.s": per(sm.total("digest")),
        "digest.calls": per(len(sm.named("digest"))),
        "digest.bytes": per(sm.attr("digest", "bytes")),
        "train.s": per(sm.total("train")),
        "classify.s": per(sm.total("classify")),
        "classify.voxels_per_s": _ratio(sm.attr("classify", "voxels"), sm.total("classify")),
        "classify.blocks_pruned_frac": _ratio(sm.attr("classify", "blocks_pruned"),
                                              sm.attr("classify", "blocks_total")),
        "track.s": per(sm.total("track")),
        "track.voxels": per(sm.attr("track", "voxels")),
        "tf.s": per(sm.total("tf")),
        "tf.calls": per(len(sm.named("tf"))),
        "render.s": per(sm.total("render")),
        "render.pixels_per_s": _ratio(sm.attr("render", "pixels"), sm.total("render")),
        "render.cells_skipped_frac": _ratio(sm.attr("render", "cells_empty"),
                                            sm.attr("render", "cells_total")),
        "render.ert_frac": _ratio(sm.attr("render", "rays_terminated_early"),
                                  sm.attr("render", "pixels")),
        "store.put_s": per(sm.total("store.put")),
        "store.get_s": per(sm.total("store.get")),
        "store.has_s": per(sm.total("store.has")),
        "store.bytes_written": per(sm.attr("store.put", "bytes")),
        "store.corrupt": per(counters.get("run.store.corrupt", 0)
                             + counters.get("cache.store.corrupt", 0)),
        "manifest.save_s": per(sm.total("manifest")),
        "manifest.saves": per(len(sm.named("manifest"))),
        "runner.self_s": per(runner_self),
        "runner.attributed_frac": 1.0 - runner_self / runner_total if runner_total else 0.0,
        "runner.tasks_executed": per(sm.attr("runner", "executed")),
        "runner.tasks_skipped": per(sm.attr("runner", "skipped")),
        "pool.tasks": per(len(tasks)),
        "pool.task_s": per(task_s),
        "pool.ipc_s": per(ipc),
        "pool.payload_bytes": per(sum(s["attrs"].get("payload_bytes", 0)
                                      + s["attrs"].get("result_bytes", 0)
                                      for s in submits.values())),
        "pool.busy_frac": _ratio(task_s, workers * wall),
        "pool.respawns": per(counters.get("pool.respawns", 0)),
        "executor.retries": per(counters.get("executor.retries", 0)),
        "cache.get_s": per(sm.total("cache.get")),
        "cache.put_s": per(sm.total("cache.put")),
        "cache.hit_frac": _ratio(sum(1 for s in cache_gets if s["attrs"].get("hit")),
                                 len(cache_gets)),
        "serve.compute_s": per(compute_s),
        "serve.queue_s": per(max(0.0, latency_sum - compute_s)) if compute_s else 0.0,
        "trace.overhead_frac": overhead(traced, untraced),
    }
    return m, sm


def _launch_daemon(argv: list[str]) -> int:
    trace_dir, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py TRACE_DIR -- <repro cli arguments>")
    tracer = install(trace_dir)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.enable(True))
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_argv)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(_launch_daemon(sys.argv[1:]))
