"""Whole-volume classification throughput: gather vs the fast path.

The Sec. 4.3 extraction applies the trained network to every voxel of
every step, which the paper runs on a PC cluster (Sec. 8) because the
per-voxel cost dominates the pipeline.  This benchmark measures the
single-host half of that story on one 96^3 cosmology step:

- ``gather``      — the reference float64 path (chunked ``features_at``);
- ``fused``       — edge-padded strided views + plane-major fused float32
  inference;
- ``fused+cache`` — warm temporal-coherence brick cache (replayed step);
- ``shared cold``/``shared warm`` — the cross-process shared cache
  backend (:mod:`repro.cache.shared`): a cold run populating the
  on-disk store, then a replay through an empty memory tier — the path
  a fresh worker process takes against a store another worker warmed.

The fused path must clear 3x over gather (the acceptance bar; measured
~13x at 96^3 on a 2-vCPU container with one BLAS thread).  Results land in
``BENCH_classify.json`` — ``benchmarks/check_perf_regression.py``
compares its machine-relative speedups against the committed baseline in
CI.  The per-shell RGBA sampler fusion of :mod:`repro.render.raycast` is
timed here too (before/after), since it rides the same PR.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
from _helpers import sample_mask
from scipy import ndimage

from repro.cache import SharedArrayCache
from repro.core import (
    DataSpaceClassifier,
    ShellFeatureExtractor,
    TemporalCoherenceCache,
)
from repro.data import make_cosmology_sequence
from repro.render.raycast import _sample_channels
from repro.utils.timing import Timer

GRID = (96, 96, 96)


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def build_workload():
    sequence = make_cosmology_sequence(shape=GRID, times=[130], seed=23)
    clf = DataSpaceClassifier(ShellFeatureExtractor(radius=2), seed=5)
    vol = sequence.at_time(130)
    large, small = vol.mask("large"), vol.mask("small")
    clf.add_examples(
        vol,
        positive_mask=sample_mask(large, 150, seed=1),
        negative_mask=(sample_mask(small, 80, seed=2)
                       | sample_mask(~(large | small), 80, seed=3)),
    )
    clf.train(epochs=150)
    return clf, vol


def _time_rgba_sampler(rng):
    """Before/after for the fused per-shell RGBA gather (same PR)."""
    stack = rng.random((64, 64, 64, 4), dtype=np.float64).astype(np.float32)
    channels = [np.ascontiguousarray(stack[..., c]) for c in range(4)]
    coords = rng.uniform(0.0, 63.0, size=(160 * 160, 3))

    def unfused():
        return [ndimage.map_coordinates(c, coords.T, order=1, mode="constant",
                                        cval=0.0, prefilter=False)
                for c in channels]

    unfused()  # warm
    _sample_channels(stack, coords)
    rounds = 5
    with Timer() as t_old:
        for _ in range(rounds):
            unfused()
    with Timer() as t_new:
        for _ in range(rounds):
            _sample_channels(stack, coords)
    return t_old.elapsed / rounds, t_new.elapsed / rounds


def test_classify_throughput(benchmark):
    clf, vol = build_workload()
    n_vox = int(vol.data.size)

    with Timer() as t_gather:
        exact = clf.classify(vol, mode="exact")
    with Timer() as t_fused:
        fused = clf.classify(vol, mode="fast")
    # A warm cache replays from its in-memory L1; the store under it
    # (every cache has one) only takes the cold run's writes.
    with tempfile.TemporaryDirectory() as tmp:
        cache = TemporalCoherenceCache(store=SharedArrayCache(Path(tmp) / "cache"))
        clf.classify(vol, mode="fast", cache=cache)  # warm the brick cache
        with Timer() as t_cache:
            cached = clf.classify(vol, mode="fast", cache=cache)
    assert cache.hits > 0
    blocks_total = int(clf.last_fast_stats["blocks_total"])

    # Shared on-disk cache: a cold run populates the store, then a cache
    # with an *empty* memory tier over the same store replays it — the
    # exact path a fresh worker process takes against a warm store.
    with tempfile.TemporaryDirectory() as tmp:
        store = SharedArrayCache(Path(tmp) / "cache")
        cold_cache = TemporalCoherenceCache(store=store)
        with Timer() as t_shared_cold:
            shared_cold = clf.classify(vol, mode="fast", cache=cold_cache)
        warm_cache = cold_cache.worker_clone()  # empty L1, same store
        with Timer() as t_shared_warm:
            shared_warm = clf.classify(vol, mode="fast", cache=warm_cache)
        assert warm_cache.hits > 0 and warm_cache.misses == 0
    assert np.array_equal(shared_cold, fused)
    assert np.array_equal(shared_warm, fused)

    # Equivalence sanity (the exhaustive version lives in
    # tests/test_fastclassify.py): fused tracks the float64 reference
    # and a warm cache replays the fast path bit-for-bit.
    assert float(np.abs(fused - exact).max()) <= 1e-3
    assert np.array_equal(cached, fused)

    benchmark.pedantic(lambda: clf.classify(vol, mode="fast"),
                       rounds=3, iterations=1)

    timings = {
        "gather": t_gather.elapsed,
        "fused": t_fused.elapsed,
        "fused+cache": t_cache.elapsed,
        "shared cold": t_shared_cold.elapsed,
        "shared warm": t_shared_warm.elapsed,
    }
    print(f"\nWhole-volume classification, {GRID[0]}^3 = {n_vox} voxels:")
    print(f"{'path':>12} {'seconds':>9} {'Mvox/s':>8} {'speedup':>8}")
    for path, secs in timings.items():
        print(f"{path:>12} {secs:>9.3f} {n_vox / secs / 1e6:>8.2f} "
              f"{timings['gather'] / secs:>8.2f}x")
        benchmark.extra_info[path.replace("+", "_")] = round(secs, 3)
    print(f"cache hits on replay: {cache.hits}/{blocks_total} (32^3 blocks)")

    sampler_old, sampler_new = _time_rgba_sampler(np.random.default_rng(17))
    print(f"RGBA per-shell sampler (25600 rays, 4 channels): "
          f"4x map_coordinates {sampler_old * 1e3:.1f} ms -> "
          f"fused gather {sampler_new * 1e3:.1f} ms "
          f"({sampler_old / sampler_new:.2f}x)")

    _write_bench("classify", {
        "grid": f"{GRID[0]}^3",
        "voxels": n_vox,
        "seconds": timings,
        "vox_per_s": {k: n_vox / v for k, v in timings.items()},
        "speedup_fused_vs_gather": timings["gather"] / timings["fused"],
        "speedup_cache_vs_gather": timings["gather"] / timings["fused+cache"],
        "speedup_shared_warm_replay": timings["gather"] / timings["shared warm"],
        "blocks_total": blocks_total,
        "cache_hits_on_replay": int(cache.hits),
        "rgba_sampler": {
            "seconds_unfused": sampler_old,
            "seconds_fused": sampler_new,
            "speedup_fused_sampler": sampler_old / sampler_new,
        },
    })

    # The acceptance bars: fused inference clears 3x over the gather
    # path, and a warm shared-store replay clears 10x (it only reads
    # bricks back from disk — no inference at all).
    assert timings["gather"] / timings["fused"] >= 3.0
    assert timings["gather"] / timings["shared warm"] >= 10.0
