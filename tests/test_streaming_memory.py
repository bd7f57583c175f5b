"""Peak-memory properties of streaming tracking (tracemalloc).

``grow_4d`` materializes the full criteria stack plus scratch — peak
memory scales linearly with the number of timesteps (documented in its
*Memory* docstring section).  ``FeatureTracker.track_streaming`` holds
one volume + criterion + scratch mask at a time and keeps the tracked
history bit-packed, so its peak should be (a) well below ``grow_4d``'s
over the stacked criteria and (b) nearly flat in the sequence length.

These tests assert machine-robust *ratios* rather than absolute byte
counts; the tight "≤ 2 timestep working sets" bar lives in
``benchmarks/test_tracking_throughput.py`` where the workload is large
enough to swamp interpreter noise.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import FeatureTracker
from repro.data import make_vortex_sequence
from repro.segmentation.regiongrow import grow_4d
from repro.volume.io import save_sequence

GRID = (48, 48, 48)
LO, HI = 0.5, 10.0
SEED = (0, 4, 23, 14)  # on the step-0 vortex core, inside the band


def _streaming_peak(tmp_path, times, label):
    sequence = make_vortex_sequence(shape=GRID, times=times, seed=31)
    seqdir = tmp_path / f"seq_{label}"
    save_sequence(sequence, str(seqdir))
    tracker = FeatureTracker()
    tracemalloc.start()
    result = tracker.track_streaming(str(seqdir), SEED, lo=LO, hi=HI)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.voxel_counts[0] > 0
    return peak, result


def test_streaming_peak_well_below_eager(tmp_path):
    times = list(range(50, 74, 4))
    stream_peak, streamed = _streaming_peak(tmp_path, times, "ratio")

    sequence = make_vortex_sequence(shape=GRID, times=times, seed=31)
    tracker = FeatureTracker()
    tracemalloc.start()
    eager = grow_4d(tracker.fixed_criteria(sequence, LO, HI), [SEED])
    _, eager_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert np.array_equal(streamed.masks, eager)
    assert eager_peak / stream_peak >= 1.5


def test_streaming_peak_sublinear_in_steps(tmp_path):
    short = list(range(50, 74, 4))        # 6 steps
    long = list(range(50, 74, 2))         # 12 steps
    peak_short, _ = _streaming_peak(tmp_path, short, "short")
    peak_long, _ = _streaming_peak(tmp_path, long, "long")
    # Linear scaling would double the peak; the streaming path only grows
    # by the packed mask history (8 voxels/byte).
    assert peak_long / peak_short <= 1.6


def test_grow_4d_memory_doc_present():
    from repro.segmentation.regiongrow import grow_4d

    assert "Memory" in grow_4d.__doc__
