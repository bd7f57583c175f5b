"""Tests for repro.core.pipeline: sequence-level orchestration."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveTransferFunction,
    DataSpaceClassifier,
    FeatureTracker,
    ShellFeatureExtractor,
    classify_sequence,
    generate_sequence_tfs,
    render_sequence,
)
from repro.core.pipeline import extraction_masks
from repro.data.swirl import feature_peak_at
from repro.render import Camera
from repro.transfer import TransferFunction1D


def tiny_classifier(sequence, seed=0):
    rng = np.random.default_rng(seed)
    clf = DataSpaceClassifier(ShellFeatureExtractor(radius=2), seed=seed)

    def sample(mask, n):
        coords = np.argwhere(mask)
        sel = coords[rng.choice(len(coords), size=min(n, len(coords)), replace=False)]
        m = np.zeros(mask.shape, dtype=bool)
        m[tuple(sel.T)] = True
        return m

    for t in (130, 310):
        vol = sequence.at_time(t)
        clf.add_examples(vol, positive_mask=sample(vol.mask("large"), 80),
                         negative_mask=sample(vol.mask("small") | ~(vol.mask("large") | vol.mask("small")), 80))
    clf.train(epochs=150)
    return clf


class TestClassifySequence:
    def test_serial_results_per_step(self, cosmology_small):
        clf = tiny_classifier(cosmology_small)
        results = classify_sequence(clf, cosmology_small)
        assert len(results) == len(cosmology_small)
        for cert in results:
            assert cert.shape == cosmology_small.shape

    def test_process_matches_serial(self, cosmology_small):
        clf = tiny_classifier(cosmology_small)
        serial = classify_sequence(clf, cosmology_small)
        proc = classify_sequence(clf, cosmology_small, workers=2)
        for a, b in zip(serial, proc):
            assert np.allclose(a, b)


def make_iatf(swirl_small):
    iatf = AdaptiveTransferFunction.for_sequence(swirl_small, seed=3)
    for t in (swirl_small.times[0], swirl_small.times[-1]):
        peak = feature_peak_at(swirl_small, t)
        tf = TransferFunction1D(swirl_small.value_range).add_tent(0.75 * peak, 0.9 * peak, 1.0)
        iatf.add_key_frame(swirl_small.at_time(t), tf)
    iatf.train(epochs=200)
    return iatf


class TestGenerateSequenceTFs:
    def test_one_tf_per_step(self, swirl_small):
        iatf = make_iatf(swirl_small)
        tfs = generate_sequence_tfs(iatf, swirl_small)
        assert len(tfs) == len(swirl_small)
        for tf in tfs:
            assert (tf.lo, tf.hi) == swirl_small.value_range

    def test_parallel_matches_serial(self, swirl_small):
        iatf = make_iatf(swirl_small)
        serial = generate_sequence_tfs(iatf, swirl_small)
        proc = generate_sequence_tfs(iatf, swirl_small, workers=2)
        for a, b in zip(serial, proc):
            assert np.allclose(a.opacity, b.opacity)


class TestRenderSequence:
    def test_shared_tf(self, swirl_small):
        tf = TransferFunction1D(swirl_small.value_range).add_box(0.3, 0.9, 0.6)
        images = render_sequence(
            swirl_small, tf, camera=Camera(width=24, height=24),
            shading=False,
        )
        assert len(images) == len(swirl_small)
        assert images[0].shape == (24, 24)

    def test_per_step_tfs(self, swirl_small):
        tfs = [TransferFunction1D(swirl_small.value_range).add_box(0.2, 0.9, 0.5)
               for _ in swirl_small]
        images = render_sequence(swirl_small, tfs, camera=Camera(width=16, height=16),
                                 shading=False)
        assert len(images) == len(swirl_small)

    def test_tf_count_validated(self, swirl_small):
        tfs = [TransferFunction1D(swirl_small.value_range)]
        with pytest.raises(ValueError):
            render_sequence(swirl_small, tfs)


class TestExtractionMasks:
    def test_stacks_and_thresholds(self):
        certs = [np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.8)]
        stack = extraction_masks(certs, threshold=0.5)
        assert stack.shape == (2, 2, 2, 2)
        assert not stack[0].any()
        assert stack[1].all()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            extraction_masks([np.zeros((2, 2, 2))], threshold=1.5)

    def test_composes_with_tracker(self, cosmology_small):
        """Extraction (data space) feeds tracking: Sec. 4.3 + Sec. 5."""
        clf = tiny_classifier(cosmology_small)
        certs = classify_sequence(clf, cosmology_small)
        stack = extraction_masks(certs, threshold=0.5)
        vol = cosmology_small.at_time(130)
        coords = np.argwhere(stack[0] & vol.mask("large"))
        if len(coords) == 0:
            pytest.skip("classifier found nothing at step 130 on this seed")
        seed = (0, *map(int, coords[0]))
        res = FeatureTracker().track_with_criteria(cosmology_small, stack, seed, "learned")
        assert res.masks.shape == stack.shape
        assert res.voxel_counts[0] > 0
