"""Rendering throughput: the ESS/ERT fast path vs the reference caster.

Sec. 7 of the paper reports ~6 fps plain rendering and ~4 fps with the
multi-pass tracked-feature highlight on a GeForce 6800 at 128^3; the
cluster half (Sec. 8) scales frames across nodes.  This benchmark
measures the software equivalents on one 128^3 argon step through a
256^2 camera — the paper's canonical dataset/figure geometry:

- ``reference``       — :func:`repro.render.raycast.render_volume`;
- ``fast``            — :func:`repro.render.fastcast.render_volume_fast`
  (per-ray box clipping + macro-cell ESS + ERT), one march per frame;
- ``rgba_reference`` / ``rgba_fast`` — the Sec. 7 feature-only highlight
  volume (sparse alpha), where empty-space skipping dominates;
- ``fast+cache``      — :func:`repro.core.pipeline.render_sequence`
  replaying a step through the content-keyed frame cache.

Every fast frame must be bit-identical to its reference (the exhaustive
battery lives in ``tests/test_fastcast.py``; this asserts it at full
scale too).  The acceptance bar: the fast scalar path clears 3x over the
reference.  Results land in ``BENCH_render.json`` and the fast frame is
exported as ``golden_render.png`` —
``benchmarks/check_perf_regression.py`` gates the machine-relative
speedups against ``benchmarks/baselines/BENCH_render_baseline.json``.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
from _helpers import argon_keyframe_tf

from repro.cache import SharedArrayCache
from repro.core.fastclassify import TemporalCoherenceCache
from repro.core.pipeline import render_sequence
from repro.data import make_argon_sequence
from repro.render import Camera, render_rgba_volume, render_volume
from repro.render.fastcast import (
    build_alpha_skip_grid,
    render_rgba_volume_fast,
    render_volume_fast,
)
from repro.render.multipass import tracked_rgba
from repro.transfer import TransferFunction1D
from repro.utils.timing import Timer
from repro.volume import VolumeSequence

GRID = (128, 128, 128)
IMAGE = 256
TIME = 225


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def build_workload():
    sequence = make_argon_sequence(shape=GRID, times=[TIME], seed=7)
    vol = sequence.at_time(TIME)
    tf = argon_keyframe_tf(sequence, TIME)
    camera = Camera(width=IMAGE, height=IMAGE, azimuth=30, elevation=20)
    return sequence, vol, tf, camera


def test_render_throughput(benchmark):
    sequence, vol, tf, camera = build_workload()
    n_rays = IMAGE * IMAGE

    with Timer() as t_ref:
        ref = render_volume(vol, tf, camera=camera)
    with Timer() as t_fast:
        fast = render_volume_fast(vol, tf, camera=camera)
    assert np.array_equal(ref.pixels, fast.pixels)

    # Sec. 7 feature-only highlight: alpha nonzero only on the tracked
    # ring (~1.7% of voxels), the workload macro-cell ESS is built for.
    silent_context = TransferFunction1D(sequence.value_range)
    rgba = tracked_rgba(vol, vol.mask("ring"), silent_context, tf)
    empty_fraction = build_alpha_skip_grid(rgba[..., 3], 8).empty_fraction
    with Timer() as t_rgba_ref:
        rgba_ref = render_rgba_volume(rgba, camera=camera, shading_field=vol.data)
    with Timer() as t_rgba_fast:
        rgba_fast = render_rgba_volume_fast(rgba, camera=camera,
                                            shading_field=vol.data)
    assert np.array_equal(rgba_ref.pixels, rgba_fast.pixels)

    # Content-keyed frame cache: replaying an unchanged step costs one
    # digest of the inputs instead of a render (an in-memory L1 hit; the
    # store under the cache only takes the cold render's write).
    single = VolumeSequence([vol])
    with tempfile.TemporaryDirectory() as tmp:
        cache = TemporalCoherenceCache(store=SharedArrayCache(Path(tmp) / "cache"))
        render_sequence(single, tf, camera=camera, mode="fast", cache=cache)
        with Timer() as t_cache:
            replay = render_sequence(single, tf, camera=camera, mode="fast",
                                     cache=cache)
    assert cache.hits == 1
    assert np.array_equal(replay[0].pixels, fast.pixels)

    benchmark.pedantic(lambda: render_volume_fast(vol, tf, camera=camera),
                       rounds=3, iterations=1)

    timings = {
        "reference": t_ref.elapsed,
        "fast": t_fast.elapsed,
        "rgba_reference": t_rgba_ref.elapsed,
        "rgba_fast": t_rgba_fast.elapsed,
        "fast+cache": t_cache.elapsed,
    }
    print(f"\nRendering {GRID[0]}^3 argon through {IMAGE}^2 rays:")
    print(f"{'path':>15} {'seconds':>9} {'Krays/s':>9}")
    for path, secs in timings.items():
        print(f"{path:>15} {secs:>9.3f} {n_rays / secs / 1e3:>9.1f}")
        benchmark.extra_info[path.replace("+", "_")] = round(secs, 3)
    print(f"feature-only alpha volume: {empty_fraction:.1%} of macro cells "
          f"certified empty")

    golden = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / "golden_render.png"
    fast.save_png(golden)
    print(f"golden frame (fast path, bit-identical to reference): {golden}")

    _write_bench("render", {
        "grid": f"{GRID[0]}^3",
        "image": f"{IMAGE}^2",
        "rays": n_rays,
        "seconds": timings,
        "rays_per_s": {k: n_rays / v for k, v in timings.items()},
        "speedup_fast_vs_reference": timings["reference"] / timings["fast"],
        "speedup_rgba_fast_vs_reference":
            timings["rgba_reference"] / timings["rgba_fast"],
        "speedup_cache_vs_reference":
            timings["reference"] / timings["fast+cache"],
        "rgba_cells_empty_fraction": empty_fraction,
        "bit_identical": True,
        "golden_png": golden.name,
    })

    # The acceptance bar: the fast path clears 3x over the reference.
    assert timings["reference"] / timings["fast"] >= 3.0
