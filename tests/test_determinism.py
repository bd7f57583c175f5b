"""Determinism guarantees: same seed ⇒ bit-identical results.

Every experiment in EXPERIMENTS.md is only trustworthy if reruns
reproduce it exactly; these tests pin the determinism contract across the
stochastic components.
"""

from functools import partial

import numpy as np
from scipy import ndimage

from repro import (
    AdaptiveTransferFunction,
    DataSpaceClassifier,
    FeatureTracker,
    Oracle,
    ShellFeatureExtractor,
    TransferFunction1D,
    make_argon_sequence,
    make_cosmology_sequence,
    make_swirl_sequence,
    make_vortex_sequence,
)
from repro.data.argon import ring_value_band
from repro.parallel import map_timesteps
from repro.segmentation import grow_bricked, label_components


class TestGeneratorDeterminism:
    def test_all_generators_reproducible(self):
        for maker, kwargs in [
            (make_argon_sequence, dict(shape=(12, 16, 16), times=[195, 255])),
            (make_cosmology_sequence, dict(shape=(16, 16, 16), times=[130, 310], n_blobs=30)),
            (make_vortex_sequence, dict(shape=(16, 16, 16), times=[50, 74])),
            (make_swirl_sequence, dict(shape=(16, 16, 16), times=[23, 62])),
        ]:
            a = maker(seed=9, **kwargs)
            b = maker(seed=9, **kwargs)
            for va, vb in zip(a, b):
                assert np.array_equal(va.data, vb.data), maker.__name__
                for name in va.masks:
                    assert np.array_equal(va.mask(name), vb.mask(name))

    def test_different_seed_differs(self):
        a = make_argon_sequence(shape=(12, 16, 16), times=[195], seed=1)
        b = make_argon_sequence(shape=(12, 16, 16), times=[195], seed=2)
        assert not np.array_equal(a[0].data, b[0].data)


class TestTrainedModelDeterminism:
    def build_iatf(self, seq, seed=3):
        iatf = AdaptiveTransferFunction.for_sequence(seq, seed=seed, committee=2)
        for t in (seq.times[0], seq.times[-1]):
            lo, hi = ring_value_band(seq, t)
            tf = TransferFunction1D(seq.value_range).add_tent(
                (lo + hi) / 2, (hi - lo) * 2.5, 1.0)
            iatf.add_key_frame(seq.at_time(t), tf)
        iatf.train(epochs=60)
        return iatf

    def test_iatf_training_reproducible(self):
        seq = make_argon_sequence(shape=(12, 16, 16), times=[195, 225, 255], seed=7)
        a = self.build_iatf(seq)
        b = self.build_iatf(seq)
        mid = seq.at_time(225)
        assert np.array_equal(a.generate(mid).opacity, b.generate(mid).opacity)

    def test_classifier_training_reproducible(self):
        seq = make_cosmology_sequence(shape=(20, 20, 20), times=[310], n_blobs=30)
        vol = seq.at_time(310)

        def build():
            clf = DataSpaceClassifier(ShellFeatureExtractor(radius=2), seed=4)
            rng = np.random.default_rng(0)
            large = vol.mask("large")
            coords = np.argwhere(large)
            sel = coords[rng.choice(len(coords), size=40, replace=False)]
            pos = np.zeros(vol.shape, dtype=bool)
            pos[tuple(sel.T)] = True
            neg = np.zeros(vol.shape, dtype=bool)
            bg = np.argwhere(~large)
            selb = bg[rng.choice(len(bg), size=40, replace=False)]
            neg[tuple(selb.T)] = True
            clf.add_examples(vol, positive_mask=pos, negative_mask=neg)
            clf.train(epochs=80)
            return clf.classify(vol)

        assert np.array_equal(build(), build())

    def test_streaming_track_reproducible(self):
        """Two streaming runs of the same track are bit-identical — packed
        masks, counts, events, and sweep count alike."""
        seq = make_vortex_sequence(shape=(20, 20, 20), times=list(range(50, 71, 4)),
                                   seed=31)
        coords = np.argwhere(seq[0].mask("vortex"))
        seed = (0, *(int(c) for c in coords[len(coords) // 2]))

        def run():
            return FeatureTracker().track_streaming(seq, seed, lo=0.5, hi=10.0)

        a, b = run(), run()
        assert a.sweeps == b.sweeps
        assert a.voxel_counts == b.voxel_counts
        for i in range(len(a.times)):
            assert np.array_equal(a._packed[i], b._packed[i])
        assert a.events == b.events

    def test_oracle_session_reproducible(self):
        seq = make_cosmology_sequence(shape=(20, 20, 20), times=[310], n_blobs=30)

        def run():
            from repro.interface import InteractiveSession

            clf = DataSpaceClassifier(ShellFeatureExtractor(radius=2), seed=4)
            sess = InteractiveSession(seq.at_time(310), classifier=clf, idle_epochs=30)
            sess.run_with_oracle(Oracle("large", seed=11), rounds=2,
                                 strokes_per_round=6)
            return sess.preview_volume()

        assert np.array_equal(run(), run())


class TestScheduleIndependence:
    """Parallel execution must never change a voxel: the worker count of
    the per-step map is a performance knob, not semantics."""

    @staticmethod
    def _field(shape, seed):
        rng = np.random.default_rng(seed)
        return ndimage.uniform_filter(rng.random(shape), size=2) > 0.45

    def test_label_components_schedule_independent(self):
        """Per-step labels from pool workers equal the in-process ones."""
        mask = self._field((6, 14, 14, 14), 101)
        label = partial(label_components, connectivity=2)
        ref = map_timesteps(label, list(mask)).results
        for workers in (2, 4):
            got = map_timesteps(label, list(mask), workers=workers).results
            for (labels, count), (ref_labels, ref_count) in zip(got, ref):
                assert count == ref_count
                assert np.array_equal(labels, ref_labels)

    def test_grow_bricked_schedule_independent(self):
        mask = self._field((5, 12, 12, 12), 202)
        seed = tuple(int(c) for c in np.argwhere(mask[0])[0])
        grow = partial(grow_bricked, seeds=[seed])
        ref = map_timesteps(grow, list(mask)).results
        for workers in (2, 3):
            got = map_timesteps(grow, list(mask), workers=workers).results
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
