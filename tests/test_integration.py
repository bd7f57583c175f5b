"""End-to-end integration tests: whole paper workflows through the public API.

Each test chains several subsystems the way a user (or the CLI) would and
asserts the final outcome, catching interface drift that per-module tests
can't see.
"""

import json

import numpy as np
import pytest

from repro import (
    AdaptiveTransferFunction,
    Camera,
    DataSpaceClassifier,
    FeatureTracker,
    InteractiveSession,
    Oracle,
    ShellFeatureExtractor,
    TransferFunction1D,
    load_sequence,
    make_argon_sequence,
    make_cosmology_sequence,
    make_vortex_sequence,
    render_tracked,
    render_volume,
    save_sequence,
)
from repro.core import derive_shell_radius, generate_sequence_tfs
from repro.data.argon import ring_value_band
from repro.metrics import feature_retention, tracking_continuity
from repro.segmentation.lineage import FeatureLineage
from repro.segmentation.octree import encode_tracked_masks


class TestIATFWorkflow:
    """Fig. 1 end to end: generate → save → key frames → train → ship →
    per-step TFs → render, through disk."""

    def test_full_iatf_pipeline(self, tmp_path):
        sequence = make_argon_sequence(shape=(20, 28, 28), times=[195, 215, 235, 255])
        save_sequence(sequence, tmp_path / "argon")

        # out-of-core: only key frames loaded for training
        key_frames = load_sequence(tmp_path / "argon", times=[195, 255])
        iatf = AdaptiveTransferFunction.for_sequence(sequence, seed=3)
        for t in (195, 255):
            lo, hi = ring_value_band(sequence, t)
            tf = TransferFunction1D(sequence.value_range).add_tent(
                (lo + hi) / 2, (hi - lo) * 2.5, 1.0)
            iatf.add_key_frame(key_frames.at_time(t), tf)
        iatf.train(epochs=200)

        # ship as JSON (the Sec. 4.2.3 artifact), reload, apply everywhere
        payload = json.dumps(iatf.to_dict())
        shipped = AdaptiveTransferFunction.from_dict(json.loads(payload))
        full = load_sequence(tmp_path / "argon")
        tfs = generate_sequence_tfs(shipped, full)
        for vol, tf in zip(full, tfs):
            assert feature_retention(tf.opacity_at(vol.data), vol.mask("ring")) > 0.8

        # and render one frame with the adapted TF
        image = render_volume(full.at_time(235), tfs[2],
                              camera=Camera(width=48, height=48), shading=False)
        assert image.coverage() > 0.02


class TestPaintClassifyTrack:
    """Sec. 6 + 4.3 + 5: paint → classify → threshold → track → lineage."""

    def test_session_to_tracking(self):
        sequence = make_cosmology_sequence(shape=(28, 28, 28), times=[130, 250, 310],
                                           seed=23, n_blobs=60)
        radius = derive_shell_radius(sequence.at_time(310).mask("large"))
        clf = DataSpaceClassifier(ShellFeatureExtractor(radius=radius), seed=5)
        session = InteractiveSession(sequence.at_time(130), classifier=clf,
                                     idle_epochs=60)
        oracle = Oracle("large", seed=11, brush_radius=1)
        session.run_with_oracle(oracle, rounds=2, strokes_per_round=12)
        session.add_volume(sequence.at_time(310))
        session.run_with_oracle(oracle, rounds=2, strokes_per_round=12)

        criteria = np.stack([clf.classify(v) > 0.5 for v in sequence])
        assert criteria.any()
        seed_coords = np.argwhere(criteria[0] & sequence[0].mask("large"))
        if len(seed_coords) == 0:
            pytest.skip("classifier missed the structure at step 130 on this seed")
        seed = (0, *map(int, seed_coords[0]))
        result = FeatureTracker().track_with_criteria(sequence, criteria, seed, "learned")
        assert result.voxel_counts[0] > 0

    def test_tracking_to_lineage_and_octree(self):
        sequence = make_vortex_sequence(shape=(28, 28, 28), times=range(50, 75, 4))
        coords = np.argwhere(sequence[0].mask("vortex"))
        seed = (0, *map(int, coords[len(coords) // 2]))
        result = FeatureTracker().track_fixed(sequence, seed, lo=0.5, hi=10.0)

        # lineage over the tracked masks reports the split
        lineage = FeatureLineage(list(result.masks), times=result.times)
        root = lineage.node_at(result.times[0], seed[1:])
        assert any(kind == "split" for kind, _, _ in lineage.events_along(root))

        # octree-encode the tracked masks (the compact representation)
        encoded = encode_tracked_masks(result.masks)
        assert sum(o.encoded_bytes for o in encoded) < sum(m.size for m in result.masks)
        for oct_, mask in zip(encoded, result.masks):
            assert np.array_equal(oct_.to_mask(), mask)

        # and render a highlighted frame
        context = TransferFunction1D(sequence.value_range).add_box(
            0.25, sequence.value_range[1], 0.1)
        image = render_tracked(sequence[0], result.masks[0], context,
                               camera=Camera(width=40, height=40), shading=False)
        assert image.coverage() > 0.01


class TestAdaptiveTrackingWorkflow:
    """Fig. 10 end to end including continuity scoring."""

    def test_swirl_adaptive_beats_fixed(self, swirl_small):
        from repro.data.swirl import feature_peak_at

        p0 = feature_peak_at(swirl_small, swirl_small.times[0])
        first = swirl_small[0]
        coords = np.argwhere(first.mask("feature") & (first.data > 0.8 * p0))
        seed = (0, *map(int, coords[0]))
        tracker = FeatureTracker(opacity_threshold=0.1)

        iatf = AdaptiveTransferFunction.for_sequence(swirl_small, seed=3)
        for t in (swirl_small.times[0], swirl_small.times[-1]):
            peak = feature_peak_at(swirl_small, t)
            tf = TransferFunction1D(swirl_small.value_range).add_tent(
                0.75 * peak, 0.9 * peak, 1.0)
            iatf.add_key_frame(swirl_small.at_time(t), tf)
        iatf.train(epochs=200)

        truth = [v.mask("feature") for v in swirl_small]
        fixed = tracker.track_fixed(swirl_small, seed, 0.45 * p0, 1.1 * p0)
        adaptive = tracker.track_adaptive(swirl_small, seed, iatf)
        assert tracking_continuity(adaptive.masks, truth, min_voxels=10) == 1.0
        assert tracking_continuity(fixed.masks, truth, min_voxels=10) < 1.0
