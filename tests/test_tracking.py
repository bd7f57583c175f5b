"""Tests for repro.core.tracking: fixed vs adaptive feature tracking."""

import numpy as np
import pytest

from repro.core import AdaptiveTransferFunction, FeatureTracker
from repro.data.swirl import feature_peak_at
from repro.metrics import tracking_continuity
from repro.transfer import TransferFunction1D


def swirl_seed(sequence):
    first = sequence[0]
    peak = feature_peak_at(sequence, sequence.times[0])
    coords = np.argwhere(first.mask("feature") & (first.data > 0.8 * peak))
    return (0, *map(int, coords[0]))


def swirl_iatf(sequence, seed=3):
    """Two key frames with the tracked value range decreasing — the user
    interaction Fig. 10 describes."""
    iatf = AdaptiveTransferFunction.for_sequence(sequence, seed=seed)
    for t in (sequence.times[0], sequence.times[-1]):
        peak = feature_peak_at(sequence, t)
        tf = TransferFunction1D(sequence.value_range).add_tent(0.75 * peak, 0.9 * peak, 1.0)
        iatf.add_key_frame(sequence.at_time(t), tf)
    iatf.train(epochs=300)
    return iatf


class TestConstruction:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            FeatureTracker(opacity_threshold=1.0)
        with pytest.raises(ValueError):
            FeatureTracker(opacity_threshold=-0.1)


class TestCriteria:
    def test_fixed_criteria_shape(self, swirl_small):
        tracker = FeatureTracker()
        crit = tracker.fixed_criteria(swirl_small, 0.5, 1.0)
        assert crit.shape == (len(swirl_small), *swirl_small.shape)

    def test_fixed_criteria_range_validated(self, swirl_small):
        with pytest.raises(ValueError):
            FeatureTracker().fixed_criteria(swirl_small, 1.0, 0.5)

    def test_adaptive_criteria_follow_fading_feature(self, swirl_small):
        """The adaptive per-step masks keep covering the feature while a
        fixed mask loses it — the machinery behind Fig. 10."""
        tracker = FeatureTracker(opacity_threshold=0.1)
        iatf = swirl_iatf(swirl_small)
        adaptive = tracker.adaptive_criteria(swirl_small, iatf)
        p0 = feature_peak_at(swirl_small, swirl_small.times[0])
        fixed = tracker.fixed_criteria(swirl_small, 0.45 * p0, 1.1 * p0)
        last = swirl_small[-1]
        truth_last = last.mask("feature")
        assert (adaptive[-1] & truth_last).sum() > 50
        assert (fixed[-1] & truth_last).sum() == 0


class TestTrackFixed:
    def test_fixed_loses_fading_feature(self, swirl_small):
        tracker = FeatureTracker()
        p0 = feature_peak_at(swirl_small, swirl_small.times[0])
        res = tracker.track_fixed(swirl_small, swirl_seed(swirl_small), 0.45 * p0, 1.1 * p0)
        counts = res.voxel_counts
        assert counts[0] > 100
        assert counts[-1] == 0  # feature lost by the last step (Fig. 10 top)
        truth = [v.mask("feature") for v in swirl_small]
        assert tracking_continuity(res.masks, truth, min_voxels=10) < 1.0

    def test_result_metadata(self, swirl_small):
        tracker = FeatureTracker()
        p0 = feature_peak_at(swirl_small, swirl_small.times[0])
        res = tracker.track_fixed(swirl_small, swirl_seed(swirl_small), 0.45 * p0, 1.1 * p0)
        assert res.criterion == "fixed"
        assert res.times == swirl_small.times
        assert res.mask_at(swirl_small.times[0]).any()

    def test_seed_shape_validated(self, swirl_small):
        tracker = FeatureTracker()
        with pytest.raises(ValueError):
            tracker.track_fixed(swirl_small, (0, 1, 2), 0.1, 0.9)


class TestTrackAdaptive:
    def test_adaptive_keeps_fading_feature(self, swirl_small):
        """The Fig. 10 bottom row: adaptive criterion tracks to the end."""
        tracker = FeatureTracker(opacity_threshold=0.1)
        iatf = swirl_iatf(swirl_small)
        res = tracker.track_adaptive(swirl_small, swirl_seed(swirl_small), iatf)
        assert res.criterion == "adaptive"
        truth = [v.mask("feature") for v in swirl_small]
        assert tracking_continuity(res.masks, truth, min_voxels=10) == 1.0
        assert min(res.voxel_counts) > 50

    def test_adaptive_beats_fixed(self, swirl_small):
        tracker = FeatureTracker(opacity_threshold=0.1)
        p0 = feature_peak_at(swirl_small, swirl_small.times[0])
        seed = swirl_seed(swirl_small)
        fixed = tracker.track_fixed(swirl_small, seed, 0.45 * p0, 1.1 * p0)
        adaptive = tracker.track_adaptive(swirl_small, seed, swirl_iatf(swirl_small))
        truth = [v.mask("feature") for v in swirl_small]
        c_fixed = tracking_continuity(fixed.masks, truth, min_voxels=10)
        c_adapt = tracking_continuity(adaptive.masks, truth, min_voxels=10)
        assert c_adapt > c_fixed


class TestTrackEventsAndSplits:
    def test_vortex_split_detected(self, vortex_small):
        """Fig. 9: the tracked vortex splits near the end of the window."""
        first = vortex_small[0]
        coords = np.argwhere(first.mask("vortex"))
        seed = (0, *map(int, coords[len(coords) // 2]))
        res = FeatureTracker().track_fixed(vortex_small, seed, lo=0.5, hi=10.0)
        assert all(c > 0 for c in res.voxel_counts)
        comp = res.component_counts()
        assert comp[0] == 1
        assert comp[-1] == 2
        split_events = [e for e in res.events if e.kind == "split"]
        assert len(split_events) == 1
        assert split_events[0].time_a >= 62

    def test_events_cached(self, vortex_small):
        first = vortex_small[0]
        coords = np.argwhere(first.mask("vortex"))
        seed = (0, *map(int, coords[0]))
        res = FeatureTracker().track_fixed(vortex_small, seed, lo=0.5, hi=10.0)
        assert res.events is res.events


class TestTrackWithCriteria:
    def test_custom_criteria(self, vortex_small):
        stack = np.stack([v.mask("vortex") for v in vortex_small])
        first = vortex_small[0]
        coords = np.argwhere(first.mask("vortex"))
        seed = (0, *map(int, coords[0]))
        res = FeatureTracker().track_with_criteria(vortex_small, stack, seed, name="truth")
        assert res.criterion == "truth"
        assert all(c > 0 for c in res.voxel_counts)

    def test_step_count_validated(self, vortex_small):
        stack = np.zeros((2, *vortex_small.shape), dtype=bool)
        with pytest.raises(ValueError):
            FeatureTracker().track_with_criteria(vortex_small, stack, (0, 0, 0, 0))


class TestSeedOutsideGrid:
    """A seed voxel off the grid raises ``IndexError`` on every tracking
    path — a negative coordinate must not wrap around to the far side."""

    @pytest.fixture(scope="class")
    def vortex_dir(self, vortex_small, tmp_path_factory):
        from repro.volume.io import save_sequence

        seqdir = tmp_path_factory.mktemp("seed_grid") / "seq"
        save_sequence(vortex_small, str(seqdir))
        return str(seqdir)

    @pytest.mark.parametrize("seed", [(0, -12, 11, 6), (0, 32, 11, 6),
                                      (0, 11, 11, -1), (0, 11, 40, 6)])
    @pytest.mark.parametrize("path", ["track_fixed", "streaming-memory",
                                      "streaming-dir", "push"])
    def test_raises_index_error(self, vortex_small, vortex_dir, path, seed):
        tracker = FeatureTracker()
        with pytest.raises(IndexError):
            if path == "track_fixed":
                tracker.track_fixed(vortex_small, seed, 0.5, 1.0)
            elif path == "streaming-memory":
                tracker.track_streaming(vortex_small, seed, lo=0.5, hi=1.0)
            elif path == "streaming-dir":
                tracker.track_streaming(vortex_dir, seed, lo=0.5, hi=1.0)
            else:
                first = vortex_small[0]
                tracker.open_stream([seed]).push(first.time, first.data >= 0.5)
