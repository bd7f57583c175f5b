"""Tests for repro.core.tracking: fixed vs adaptive feature tracking."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core import AdaptiveTransferFunction, FeatureTracker, tracking
from repro.core.tracking import TrackResult, _pack_mask
from repro.data.argon import ring_value_band
from repro.data.swirl import feature_peak_at
from repro.features import DescriptorMatcher
from repro.metrics import tracking_continuity
from repro.parallel.bricking import content_digest
from repro.segmentation.events import detect_events, merge_match_events
from repro.transfer import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence


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


def _track_case(request, case):
    """Track one of the label-once scenarios; ``-match`` cases track with
    the descriptor fallback."""
    if case.startswith("vortex"):
        seq = request.getfixturevalue("vortex_small")
        coords = np.argwhere(seq[0].mask("vortex"))
        seed = (0, *map(int, coords[len(coords) // 2]))
        lo, hi = 0.5, 10.0
    elif case.startswith("fast-vortex"):
        seq = request.getfixturevalue("fast_vortex_small")
        seed = (0, *map(int, np.argwhere(seq[0].mask("vortex"))[0]))
        lo, hi = 0.5, 1.0
    else:
        seq = request.getfixturevalue("argon_small")
        lo, hi = ring_value_band(seq, seq.times[0])
        crit = (seq[0].data >= lo) & (seq[0].data <= hi)
        seed = (0, *map(int, np.argwhere(seq[0].mask("ring") & crit)[0]))
    matcher = (DescriptorMatcher(threshold=0.7, max_gap=3)
               if case.endswith("match") else None)
    return FeatureTracker(matcher=matcher).track_fixed(seq, seed, lo=lo, hi=hi)


LABEL_ONCE_CASES = ["vortex-split", "argon", "argon-match", "fast-vortex-match"]


class TestLabelOnce:
    """A track answer labels each step once, for both its event timeline
    and its component counts, and the answers do not change."""

    @pytest.mark.parametrize("case", LABEL_ONCE_CASES)
    def test_equals_per_step_ndimage_oracle(self, request, case):
        result = _track_case(request, case)
        labelings = [ndimage.label(result.step_mask(i))
                     for i in range(len(result.times))]
        timeline = []
        for i in range(1, len(labelings)):
            timeline += detect_events(labelings[i - 1][0], labelings[i][0],
                                      time_a=result.times[i - 1],
                                      time_b=result.times[i])
        assert result.component_counts() == [count for _, count in labelings]
        assert result.events == merge_match_events(timeline, result.match_events)
        assert bool(result.match_events) == case.endswith("match")
        if case == "vortex-split":
            assert [e.kind for e in result.events].count("split") == 1

    @pytest.mark.parametrize("first", ["events", "component_counts"])
    def test_each_step_labeled_once(self, request, monkeypatch, first):
        result = _track_case(request, "fast-vortex-match")
        label = tracking.label_components
        calls = []

        def counting(mask, *args, **kwargs):
            calls.append(mask.shape)
            return label(mask, *args, **kwargs)

        monkeypatch.setattr(tracking, "label_components", counting)
        reads = {"events": lambda: result.events,
                 "component_counts": result.component_counts}
        second = "events" if first == "component_counts" else "component_counts"
        for name in (first, second, first, second):
            reads[name]()
        assert len(calls) == len(result.times)

    def test_labels_with_the_growth_connectivity(self):
        """Corner neighbours grown as one feature at connectivity 3 read
        as one component per step and one continuation."""
        data = np.zeros((6, 6, 6), np.float32)
        data[2, 2, 2] = data[3, 3, 3] = 1.0
        sequence = VolumeSequence([Volume(data.copy(), time=t) for t in (0, 1)])
        result = FeatureTracker(connectivity=3).track_fixed(
            sequence, (0, 2, 2, 2), lo=0.5, hi=1.5)
        assert result.voxel_counts == [2, 2]
        assert result.component_counts() == [1, 1]
        assert [e.kind for e in result.events] == ["continuation"]


class TestMasksDigest:
    """``masks_digest`` equals ``content_digest(masks)`` without the stack."""

    @pytest.mark.parametrize("steps,shape,fill", [
        (1, (5, 6, 7), 0.3),
        (1, (1, 1, 1), 1.0),
        (3, (7, 3, 9), 0.0),
        (4, (9, 8, 10), 0.02),
        (8, (16, 16, 16), 0.5),
    ])
    def test_equals_digest_of_stack(self, rng, steps, shape, fill):
        masks = [rng.random(shape) < fill for _ in range(steps)]
        result = TrackResult(shape, list(range(steps)), "custom",
                             [_pack_mask(m) for m in masks],
                             [int(m.sum()) for m in masks], sweeps=1)
        assert result.masks_digest() == content_digest(result.masks)
        assert result.masks_digest() == content_digest(np.stack(masks))


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
