"""4D tracking throughput: brick-parallel and streaming vs serial growth.

The Sec. 5 tracker is 4D region growing over the full criteria stack;
``binary_propagation`` visits every voxel of the dense 4D array no matter
how sparse the tracked feature is.  The fastgrow engine
(:mod:`repro.segmentation.fastgrow`) auto-selects its strategy: at this
workload's ~1% criterion fill it builds a voxel graph over the set voxels
only and runs ``csgraph.connected_components`` — work proportional to the
criterion, not the volume.  Denser masks or ``workers > 1`` fall back to
brick label-and-select with union-find seam merging.
:meth:`FeatureTracker.track_streaming` (the one tracking core every
tracker entry point runs) consumes one timestep at a time so peak memory
stops scaling with the sequence length.

Measured on the Fig. 9 vortex workload at 64^3 x 8 steps:

- ``serial4d``   — ``grow_4d`` via ``binary_propagation`` (reference);
- ``bricked``    — ``grow_bricked`` with ``strategy="auto"`` (routes to
  the sparse voxel-graph path at this fill), one process;
- ``streaming``  — forward pass + refinement sweeps from a saved
  sequence directory (per-step sparse grows, masks skipped at load);
  ``tracemalloc`` peak memory is measured in a separate pass for both
  the streaming path and the eager ``grow_4d`` over the stacked
  criteria, so the profiler's allocation bookkeeping never pollutes the
  wall-clock numbers;
- ``track_fixed`` — the same stream fed from the in-memory sequence.

Acceptance bars: bricked clears 2x over serial 4D, streaming matches
serial 4D wall clock (>= 0.95x), and streaming peak memory stays within
2 timestep working sets (float32 volume + criterion + mask) while eager
4D growth needs several times more.  Results land in
``BENCH_tracking.json``; ``benchmarks/check_perf_regression.py`` gates
the machine-relative ratios against the committed baseline in CI.
"""

import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from _helpers import seed_on_mask

from repro.core import FeatureTracker
from repro.data import make_vortex_sequence
from repro.segmentation import grow_4d, grow_bricked
from repro.segmentation.fastgrow import last_label_stats
from repro.utils.timing import Timer
from repro.volume.io import save_sequence

GRID = (64, 64, 64)
TIMES = list(range(50, 74, 3))  # 8 steps bracketing the Fig. 9 split
LO, HI = 0.5, 10.0
BRICKS_4D = (1, 32, 32, 32)


def _best_of(fn, rounds: int = 3) -> float:
    """Minimum wall-clock seconds over ``rounds`` calls of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        with Timer() as t:
            fn()
        best = min(best, t.elapsed)
    return best


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def build_workload():
    sequence = make_vortex_sequence(shape=GRID, times=TIMES, seed=31)
    seed = seed_on_mask(sequence, "vortex")
    criteria = np.stack([(v.data >= LO) & (v.data <= HI) for v in sequence])
    return sequence, criteria, seed


def test_tracking_throughput(benchmark):
    sequence, criteria, seed = build_workload()
    n_vox = int(criteria.size)
    step_working_set = int(np.prod(GRID)) * (4 + 1 + 1)  # f32 data + crit + mask

    # --- wall clock: serial 4D reference vs bricked label-and-select.
    # Every contender is timed best-of-N: at ~20ms per run, single-shot
    # timings carry enough scheduler noise to swing the gated ratios.
    grow_4d(criteria[:2], [seed])  # warm scipy
    t_serial = _best_of(lambda: grow_4d(criteria, [seed]))
    serial = grow_4d(criteria, [seed])
    t_bricked = _best_of(lambda: grow_bricked(criteria, [seed], brick_shape=BRICKS_4D))
    bricked = grow_bricked(criteria, [seed], brick_shape=BRICKS_4D)
    grow_strategy = last_label_stats.get("strategy", "dense")
    assert np.array_equal(bricked, serial)

    # --- streaming from disk: wall clock and peak memory in *separate*
    # passes.  tracemalloc adds per-allocation bookkeeping that inflates
    # allocation-heavy wall clock by ~30-40%, and serial4d above is timed
    # without it — timing under the profiler would compare unlike things.
    tracker = FeatureTracker()
    with tempfile.TemporaryDirectory() as tmp:
        seqdir = str(Path(tmp) / "seq")
        save_sequence(sequence, seqdir)
        t_streaming = _best_of(
            lambda: tracker.track_streaming(seqdir, seed, lo=LO, hi=HI))
        streamed = tracker.track_streaming(seqdir, seed, lo=LO, hi=HI)
        tracemalloc.start()
        memory_run = tracker.track_streaming(seqdir, seed, lo=LO, hi=HI)
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert np.array_equal(streamed.masks, serial)
    assert np.array_equal(memory_run.masks, serial)

    t_fixed = _best_of(lambda: tracker.track_fixed(sequence, seed, LO, HI))
    assert np.array_equal(tracker.track_fixed(sequence, seed, LO, HI).masks, serial)
    # The eager memory arm: the whole criteria stack plus 4D growth.
    tracemalloc.start()
    grow_4d(tracker.fixed_criteria(sequence, LO, HI), [seed])
    _, eager_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    benchmark.pedantic(
        lambda: grow_bricked(criteria, [seed], brick_shape=BRICKS_4D),
        rounds=3, iterations=1,
    )

    timings = {
        "serial4d": t_serial,
        "bricked": t_bricked,
        "streaming": t_streaming,
        "track_fixed": t_fixed,
    }
    print(f"\n4D tracking, {GRID[0]}^3 x {len(TIMES)} steps = {n_vox} voxels:")
    print(f"{'path':>18} {'seconds':>9} {'Mvox/s':>8} {'vs serial4d':>11}")
    for path, secs in timings.items():
        print(f"{path:>18} {secs:>9.3f} {n_vox / secs / 1e6:>8.2f} "
              f"{timings['serial4d'] / secs:>11.2f}x")
        benchmark.extra_info[path] = round(secs, 3)
    print(f"peak memory: streaming {stream_peak / 1e6:.1f} MB "
          f"({stream_peak / step_working_set:.2f} step working sets), "
          f"eager {eager_peak / 1e6:.1f} MB "
          f"({eager_peak / step_working_set:.2f}); "
          f"reduction {eager_peak / stream_peak:.2f}x; "
          f"refinement sweeps: {streamed.sweeps}")

    _write_bench("tracking", {
        "grid": f"{GRID[0]}^3 x {len(TIMES)}",
        "voxels": n_vox,
        "grow_strategy": grow_strategy,
        "seconds": timings,
        "vox_per_s": {k: n_vox / v for k, v in timings.items()},
        "speedup_bricked_vs_serial4d": timings["serial4d"] / timings["bricked"],
        "speedup_streaming_vs_serial4d": timings["serial4d"] / timings["streaming"],
        "speedup_streaming_memory": eager_peak / stream_peak,
        "peak_bytes": {"streaming": int(stream_peak), "eager": int(eager_peak)},
        "streaming_step_working_sets": stream_peak / step_working_set,
        "refine_sweeps": int(streamed.sweeps),
    })

    # Acceptance bars: bricked growth clears 2x over the serial 4D path,
    # streaming matches serial wall clock (per-step sparse grows + a
    # mask-free loader erased the old 0.74x regression) while holding
    # peak memory within ~2 timestep working sets.
    assert timings["serial4d"] / timings["bricked"] >= 2.0
    assert timings["serial4d"] / timings["streaming"] >= 0.95
    assert stream_peak <= 2.0 * step_working_set
    assert eager_peak / stream_peak >= 2.0
