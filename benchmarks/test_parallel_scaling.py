"""Parallel scaling — the Sec. 8 cluster claim, measured.

*"Since the processing of each time step is completely independent of
other time steps, it is feasible and desirable to employ a large PC
cluster to conduct the final feature extraction and rendering
concurrently."*  The process-pool task farm is the repository's cluster
stand-in; this benchmark measures the speedup of whole-sequence
data-space classification across worker counts.  On multi-core hosts it
asserts useful scaling (the workload is embarrassingly parallel; overhead
is pickling the tiny trained classifier plus one volume per task); on a
single-core host speedup cannot manifest, so only correctness and an
overhead bound are asserted and the table is reported for the record.
"""

import json
import os
from pathlib import Path

import numpy as np
from _helpers import sample_mask

from repro.core import DataSpaceClassifier, ShellFeatureExtractor, classify_sequence
from repro.data import make_cosmology_sequence
from repro.utils.timing import Timer


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def build_workload():
    sequence = make_cosmology_sequence(
        shape=(48, 48, 48), times=list(range(100, 340, 30)), seed=23
    )
    clf = DataSpaceClassifier(ShellFeatureExtractor(radius=2), seed=5)
    vol = sequence.at_time(100)
    large, small = vol.mask("large"), vol.mask("small")
    clf.add_examples(
        vol,
        positive_mask=sample_mask(large, 150, seed=1),
        negative_mask=(sample_mask(small, 80, seed=2)
                       | sample_mask(~(large | small), 80, seed=3)),
    )
    clf.train(epochs=150)
    return clf, sequence


def test_parallel_scaling(benchmark):
    clf, sequence = build_workload()
    cores = os.cpu_count() or 2
    counts = [1, 2] + ([4] if cores >= 4 else [])

    timings = {}
    results = {}
    for workers in counts:
        with Timer() as t:
            results[workers] = classify_sequence(clf, sequence, workers=workers)
        timings[workers] = t.elapsed

    benchmark.pedantic(
        lambda: classify_sequence(clf, sequence, workers=max(counts)),
        rounds=3, iterations=1,
    )

    print(f"\nPer-timestep classification scaling ({len(sequence)} steps, 48^3 each):")
    print(f"{'workers':>8} {'seconds':>9} {'speedup':>8}")
    for workers in counts:
        speedup = timings[1] / timings[workers]
        print(f"{workers:>8} {timings[workers]:>9.2f} {speedup:>8.2f}x")
        benchmark.extra_info[f"workers_{workers}"] = round(timings[workers], 3)
    _write_bench("parallel_scaling", {
        "steps": len(sequence),
        "grid": "48^3",
        "cores": cores,
        "seconds_by_workers": {str(w): timings[w] for w in counts},
        "speedup_by_workers": {str(w): timings[1] / timings[w] for w in counts},
    })

    # identical results regardless of worker count
    for workers in counts[1:]:
        for a, b in zip(results[1], results[workers]):
            assert np.allclose(a, b)
    if cores >= 2:
        # real speedup at 2 workers (modest bound: pickling + fork overhead)
        assert timings[1] / timings[2] > 1.2
        if 4 in counts:
            assert timings[1] / timings[4] > timings[1] / timings[2] * 0.9
    else:
        # single-core machine: scaling cannot manifest; the farm must at
        # least stay correct and within ~2x of serial (overhead bound)
        print("single-core host: speedup assertions skipped")
        assert timings[2] < 2.5 * timings[1]

