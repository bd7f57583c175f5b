#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the repro pipeline.

One run of one workload::

    python3 benchmarks/e2e/bench.py --workload argon-cold --seed 1 \\
        --seconds 15 --trace 0 [--out results.jsonl]

Run from the repository root.  The workload runs in a fresh subprocess
(its own session, killed whole on timeout) against the sources in
``src/``; inputs come from ``--seed`` and live, with run directories,
stores and ``REPRO_CACHE_DIR``, under ``.bench_work/`` until the run ends.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, their
times scaled to a reference host speed (``workloads.reference_time``);
``--trace 1`` installs the wrappers of ``tracing.py``, measures half the
time untraced and half traced, and reports the per-layer metrics, a layer
table and the Sec. 7 comparison.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` appends a fuller
record (with every sample) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SETUPS = 3           # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0   # the whole run, set-up included, must end before this

PAPER = {"classify_256_s": 10.0, "plain_fps": 6.0, "tracked_fps": 4.0}

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append a JSON record of this run (with samples)")
    p.add_argument("--child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------- #
# Parent: isolate the workload in its own session and report
# --------------------------------------------------------------------- #
def _reap_group(pgid: int) -> None:
    """Kill whatever is left of the child's session and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (workdir / "tmp").mkdir()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(workdir / "cache"),
               TMPDIR=str(workdir / "tmp"), XDG_CACHE_HOME=str(workdir / "xdg"))
    # One BLAS thread per process: the workloads' own worker counts fill
    # the cores, and oversubscribed BLAS threads made run-to-run times
    # swing with whatever else the host was doing.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", str(workdir)]
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        code = None
        print(f"bench: {args.workload} exceeded {DEADLINE_S:.0f} s; killed",
              file=sys.stderr)
    finally:
        _reap_group(proc.pid)
        proc.wait()
    try:
        result = json.loads((workdir / "result.json").read_text()) if code == 0 else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print(f"bench: {args.workload} failed (exit {code}); no result", file=sys.stderr)
        return 1
    for line in result["lines"]:
        print(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result["record"]) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# --------------------------------------------------------------------- #
# Child: set up, measure, check, summarize
# --------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children = the largest reaped descendant.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def _latencies(ops) -> list[float]:
    return [op.end - op.start for op in ops]


def _mix_weights(ops, mix: dict) -> list[float]:
    """Each operation's weight: its kind's share of the workload's stated
    mix, split over the run's operations of that kind.  A run that ends
    part-way through a deck of requests still reports the stated mix."""
    counts = Counter(op.kind for op in ops)
    return [mix[op.kind] / counts[op.kind] for op in ops]


def _quantile(values, weights, q: float) -> float:
    """Weighted quantile; with equal weights, the interpolated one."""
    import numpy as np
    order = np.argsort(values)
    v, w = np.asarray(values, dtype=float)[order], np.asarray(weights, dtype=float)[order]
    return float(np.interp(q, (np.cumsum(w) - w / 2) / w.sum(), v))


def _e2e(ops, setup_times, mix: dict) -> dict:
    """The end-to-end metrics, plus the ungated ``latency_p90_s`` and
    ``wall_latency_p50_s``.  Times are at the reference host speed
    (``Op.seconds``); set-up times arrive scaled the same way.  Throughput
    and percentiles weight each operation by ``_mix_weights``."""
    lat = [op.seconds for op in ops]
    w = _mix_weights(ops, mix)
    return {"setup_s": statistics.median(setup_times),
            "steps_per_s": (sum(wi * op.steps for wi, op in zip(w, ops))
                            / sum(wi * s for wi, s in zip(w, lat))),
            "latency_p50_s": _quantile(lat, w, 0.5),
            "latency_p90_s": _quantile(lat, w, 0.9),
            "wall_latency_p50_s": statistics.median(_latencies(ops)),
            "peak_rss_mb": _peak_rss_mb()}


def _layer_table(summary, wall: float) -> list[str]:
    lines = [f"{'layer':<10} {'calls':>7} {'total_s':>9} {'self_s':>9} {'share':>7}"]
    for layer, calls, total, self_s, share in summary.layers(wall):
        lines.append(f"{layer:<10} {calls:>7} {total:>9.3f} {self_s:>9.3f} {share:>7.1%}")
    return lines


def _sec7_table(summary, info: dict, ops: int) -> list[str]:
    """Paper Sec. 7 numbers next to this run's, each at its own size."""
    renders, tfs = summary.named("render"), summary.named("tf")
    frames = len(renders)
    size = f"{'x'.join(map(str, info['volume']))} -> {info['window']}^2"
    voxels = summary.attr("classify", "voxels")
    classify_s = summary.total("classify")
    rows = [("seconds per 256^3 classification",
             f"{256 ** 3 * classify_s / voxels:.2f}" if voxels else "n/a",
             PAPER["classify_256_s"])]
    plain = tracked = "n/a"
    if frames:
        per_frame = summary.total("render") / frames + (
            summary.total("tf") / len(tfs) if tfs else 0.0)
        plain = f"{1 / per_frame:.2f}"
        if summary.named("track"):
            per_step = summary.total("track") / (ops * info["steps"])
            tracked = f"{1 / (per_frame + per_step):.2f}"
    rows += [("plain fps (render + TF per frame)", plain, PAPER["plain_fps"]),
             ("tracked fps (+ tracking per step)", tracked, PAPER["tracked_fps"])]
    lines = [f"Sec. 7 comparison: measured at {size}; paper at 256^3 -> 512^2 on a "
             "GeForce 6800 GT. The 256^3 row divides by the measured voxel rate;",
             "no claim is made that the measured numbers hold at the paper's size.",
             f"{'quantity':<36} {'measured':>10} {'paper':>7}"]
    lines += [f"{q:<36} {m:>10} {p:>7g}" for q, m, p in rows]
    return lines


def child(args) -> int:
    workdir = Path(args.child)
    sys.path.insert(0, str(HERE))
    import repro
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {ROOT / 'src'}")
    import tracing
    from workloads import REFERENCE_S, WORKLOADS, reference_time

    spec = load_spec()
    cls = WORKLOADS[args.workload]
    if cls.single_cpu:
        # Pinned to one CPU, the process is timed on the CPU the reference
        # kernel measures: the vCPUs' speeds often differ.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = cls(workdir, args.seed)
    tracer = None
    if args.trace:
        tracer = wl.tracer = tracing.install(workdir / "trace")
    setups = 1 if args.trace else SETUPS
    setup_times = []
    before = reference_time()
    for k in range(setups):
        start = time.perf_counter()
        wl.setup(k)
        elapsed = time.perf_counter() - start
        after = reference_time(elapsed)
        setup_times.append(elapsed * REFERENCE_S / ((before + after) / 2))
        before = after
        if k < setups - 1:
            wl.discard(k)
    # One untimed operation first (checked like the rest), so lazy imports
    # and cold page caches are not charged to the first timed one.
    warmup = wl.measure(0.0)
    lines = []
    if args.trace:
        untraced = wl.measure(args.seconds / 2)
        before = wl.counters()
        wl.set_tracing(True)
        traced = wl.measure(args.seconds / 2)
        after = wl.counters()
        wl.set_tracing(False)
        ops = untraced + traced
    else:
        ops = wl.measure(args.seconds)
    close_errors = wl.close()
    if args.trace:
        counters = {k: v - before.get(k, 0) for k, v in after.items()}
        values, summary = tracing.layer_metrics(tracer.read_all(), traced, untraced, counters)
        lines += _layer_table(summary, max(op.end for op in traced)
                              - min(op.start for op in traced))
        for name in ("render", "classify", "tf"):
            nested, total = summary.nested_under_pool_task(name)
            if total:
                lines.append(f"worker-side {name} spans under a pool.task: {nested}/{total}")
        lines += _sec7_table(summary, wl.describe(), len(traced))
        metric_specs, samples = spec["per_layer"], len(traced)
    else:
        values = _e2e(ops, setup_times, wl.mix)
        metric_specs, samples = spec["end_to_end"], len(ops)
    checked = warmup + ops
    errors = [e for op in checked for e in op.errors] + list(close_errors)
    failed = sum(1 for op in checked if op.errors) + (1 if close_errors else 0)
    attempted = len(checked) + (1 if close_errors else 0)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in metric_specs}
    for m in metric_specs:
        n = len(setup_times) if m["name"] == "setup_s" else samples
        lines.append(f"{args.workload} {m['name']} = {values[m['name']]:.6g} "
                     f"{m['unit']} (n={n})")
    if not args.trace:
        # The tail is reported, not gated: fewer than ten operations lie
        # beyond it (on the batch workloads it is about the slowest run).
        lines.append(f"{args.workload} latency_p90_s = {values['latency_p90_s']:.6g} s "
                     f"(n={len(ops)}; reported, not gated)")
        lines.append(f"{args.workload} wall_latency_p50_s = "
                     f"{values['wall_latency_p50_s']:.6g} s (n={len(ops)}; unscaled wall "
                     "time, reported, not gated)")
    for message in sorted(set(errors))[:10]:
        lines.append(f"check failed: {message}")
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": metrics, "lines": lines,
        "record": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "correct": not errors, "attempted": attempted, "failed": failed,
                   "metrics": {k: v["value"] for k, v in metrics.items()},
                   "samples": {"latency_s": [op.seconds for op in ops],
                               "wall_latency_s": _latencies(ops),
                               "reference_s": [op.reference for op in ops],
                               "kind": [op.kind for op in ops], "setup_s": setup_times}},
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
