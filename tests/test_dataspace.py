"""Tests for repro.core.dataspace: shell features and per-voxel classifier."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core import DataSpaceClassifier, ShellFeatureExtractor, derive_shell_radius
from repro.data import (
    make_argon_sequence,
    make_combustion_sequence,
    make_cosmology_sequence,
    make_fast_vortex_sequence,
    make_swirl_sequence,
    make_vortex_sequence,
)
from repro.metrics import feature_retention, noise_suppression
from repro.segmentation.components import label_components
from repro.volume import Volume


def sample_mask(mask, n, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.argwhere(mask)
    sel = coords[rng.choice(len(coords), size=min(n, len(coords)), replace=False)]
    out = np.zeros(mask.shape, dtype=bool)
    out[tuple(sel.T)] = True
    return out


class TestDeriveShellRadius:
    def test_scales_with_feature_thickness(self):
        thin = np.zeros((20, 20, 20), dtype=bool)
        thin[8:12, 8:12, 2:18] = True  # 4-voxel-thick rod
        thick = np.zeros((20, 20, 20), dtype=bool)
        thick[4:16, 4:16, 4:16] = True  # 12-voxel cube
        assert derive_shell_radius(thick) > derive_shell_radius(thin)

    def test_clipping(self):
        tiny = np.zeros((8, 8, 8), dtype=bool)
        tiny[4, 4, 4] = True
        assert derive_shell_radius(tiny) == 1
        huge = np.ones((30, 30, 30), dtype=bool)
        assert derive_shell_radius(huge, max_radius=8) == 8

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            derive_shell_radius(np.zeros((4, 4, 4), dtype=bool))

    @staticmethod
    def _whole_grid_radius(mask, factor=1.0, min_radius=1, max_radius=8):
        """The uncropped formula: the transform over the whole grid."""
        labels, n = label_components(mask)
        dist = ndimage.distance_transform_edt(mask)
        thickness = ndimage.maximum(dist, labels=labels, index=np.arange(1, n + 1))
        radius = int(round(factor * float(np.median(np.atleast_1d(thickness)))))
        return int(np.clip(radius, min_radius, max_radius))

    @pytest.mark.parametrize("make", [
        make_argon_sequence, make_combustion_sequence, make_cosmology_sequence,
        make_fast_vortex_sequence, make_swirl_sequence, make_vortex_sequence,
    ])
    def test_bounding_box_crop_matches_whole_grid(self, make):
        """Every mask of every step of each generator at its default size."""
        for vol in make():
            for name, mask in vol.masks.items():
                if mask.any():
                    assert derive_shell_radius(mask) == self._whole_grid_radius(mask), name

    def test_crop_at_grid_edges_and_across_components(self):
        rng = np.random.default_rng(4)
        edge = np.zeros((18, 20, 22), dtype=bool)
        edge[:7, 3:15, 12:] = True        # touches z = 0 and the last x
        edge[10:, :, :5] = True           # touches z, y and x edges
        several = np.zeros((30, 30, 30), dtype=bool)
        several[2:5, 2:5, 2:5] = True
        several[10:20, 12:22, 8:26] = True
        several[25:29, 3:9, 20:27] = True
        several[14, 2, 2] = True
        noisy = ndimage.binary_opening(rng.random((24, 26, 28)) > 0.45)
        for mask in (edge, several, noisy, np.ones((9, 9, 9), dtype=bool)):
            for factor, max_radius in ((1.0, 8), (2.5, 20), (0.5, 8)):
                assert (derive_shell_radius(mask, factor=factor, max_radius=max_radius)
                        == self._whole_grid_radius(mask, factor, 1, max_radius))
        assert derive_shell_radius(several, factor=2.5, max_radius=20) > 1


class TestShellFeatureExtractor:
    def test_feature_count_and_names(self):
        ex = ShellFeatureExtractor(radius=2, directions="faces")
        assert ex.n_shell == 6
        assert ex.n_features == 1 + 6 + 3 + 1
        assert ex.feature_names[0] == "value"
        assert ex.feature_names[-1] == "time"
        assert len(ex.feature_names) == ex.n_features

    def test_corners_direction_set(self):
        ex = ShellFeatureExtractor(directions="faces+corners")
        assert ex.n_shell == 14

    def test_optional_features(self):
        ex = ShellFeatureExtractor(include_position=False, include_time=False)
        assert ex.n_features == 1 + ex.n_shell
        assert "pos_z" not in ex.feature_names

    def test_validation(self):
        with pytest.raises(ValueError):
            ShellFeatureExtractor(radius=0)
        with pytest.raises(ValueError):
            ShellFeatureExtractor(directions="sphere")

    def test_center_value_is_first_feature(self):
        data = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        ex = ShellFeatureExtractor(radius=1, include_position=False, include_time=False)
        feats = ex.features_at(data, [(1, 1, 1)])
        assert feats[0, 0] == data[1, 1, 1]

    def test_shell_distinguishes_sizes(self):
        """A voxel deep in a big block sees a high shell; a voxel in a tiny
        blob sees background — the size signal of Sec. 4.3."""
        data = np.zeros((20, 20, 20), dtype=np.float32)
        data[4:16, 4:16, 4:16] = 1.0  # big
        data[18, 18, 18] = 1.0  # tiny
        ex = ShellFeatureExtractor(radius=3, include_position=False, include_time=False)
        big = ex.features_at(data, [(10, 10, 10)])[0]
        tiny = ex.features_at(data, [(18, 18, 18)])[0]
        assert big[0] == tiny[0] == 1.0  # same center value
        assert big[1:].mean() > tiny[1:].mean() + 0.5  # very different shells

    def test_sorted_shell_orientation_invariant(self):
        """Rotating a rod must not change its (sorted) shell signature."""
        rod_x = np.zeros((15, 15, 15), dtype=np.float32)
        rod_x[7, 7, 2:13] = 1.0
        rod_z = np.zeros((15, 15, 15), dtype=np.float32)
        rod_z[2:13, 7, 7] = 1.0
        ex = ShellFeatureExtractor(radius=2, directions="faces",
                                   include_position=False, include_time=False)
        fx = ex.features_at(rod_x, [(7, 7, 7)])[0]
        fz = ex.features_at(rod_z, [(7, 7, 7)])[0]
        assert np.allclose(fx, fz)

    def test_boundary_clamping(self):
        data = np.full((5, 5, 5), 2.0, dtype=np.float32)
        ex = ShellFeatureExtractor(radius=3, include_position=False, include_time=False)
        feats = ex.features_at(data, [(0, 0, 0)])
        assert np.allclose(feats, 2.0)

    def test_position_features_normalized(self):
        data = np.zeros((5, 9, 17), dtype=np.float32)
        ex = ShellFeatureExtractor(radius=1, include_time=False)
        feats = ex.features_at(data, [(4, 8, 16)])
        assert np.allclose(feats[0, -3:], [1.0, 1.0, 1.0])

    def test_time_feature_passthrough(self):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        ex = ShellFeatureExtractor(radius=1)
        feats = ex.features_at(data, [(1, 1, 1)], time=310.0)
        assert feats[0, -1] == 310.0

    def test_coords_validation(self):
        ex = ShellFeatureExtractor(radius=1)
        data = np.zeros((4, 4, 4), dtype=np.float32)
        with pytest.raises(IndexError):
            ex.features_at(data, [(9, 0, 0)])
        with pytest.raises(ValueError):
            ex.features_at(data, [(0, 0)])

    def test_iter_volume_features_covers_all(self):
        data = np.random.default_rng(0).random((6, 6, 6)).astype(np.float32)
        ex = ShellFeatureExtractor(radius=1)
        total = 0
        for flat_slice, feats in ex.iter_volume_features(data, chunk=50):
            total += feats.shape[0]
            assert feats.shape[1] == ex.n_features
        assert total == data.size

    def test_iter_matches_features_at(self):
        data = np.random.default_rng(1).random((4, 5, 6)).astype(np.float32)
        ex = ShellFeatureExtractor(radius=2)
        chunks = [f for _, f in ex.iter_volume_features(data, time=3.0, chunk=37)]
        stacked = np.concatenate(chunks, axis=0)
        coords = np.stack(np.unravel_index(np.arange(data.size), data.shape), axis=1)
        direct = ex.features_at(data, coords, time=3.0)
        assert np.allclose(stacked, direct)


class TestDataSpaceClassifier:
    @pytest.fixture(scope="class")
    def trained(self, cosmology_small):
        """Fig. 8 protocol: train at steps 130 and 310, apply elsewhere."""
        radius = derive_shell_radius(cosmology_small.at_time(310).mask("large"))
        clf = DataSpaceClassifier(ShellFeatureExtractor(radius=radius), seed=5)
        for i, t in enumerate((130, 310)):
            vol = cosmology_small.at_time(t)
            large, small = vol.mask("large"), vol.mask("small")
            pos = sample_mask(large, 120, seed=1 + i)
            neg = sample_mask(small, 80, seed=2 + i) | sample_mask(~(large | small), 80, seed=3 + i)
            clf.add_examples(vol, positive_mask=pos, negative_mask=neg)
        clf.train(epochs=300)
        return clf

    def test_add_examples_counts(self, cosmology_small):
        vol = cosmology_small.at_time(310)
        clf = DataSpaceClassifier(seed=0)
        pos = sample_mask(vol.mask("large"), 20)
        n = clf.add_examples(vol, positive_mask=pos)
        assert n == int(pos.sum())
        assert len(clf.training) == n

    def test_add_examples_requires_a_mask(self, cosmology_small):
        clf = DataSpaceClassifier(seed=0)
        with pytest.raises(ValueError):
            clf.add_examples(cosmology_small.at_time(310))

    def test_separates_large_from_small(self, trained, cosmology_small):
        """The Fig. 7 core claim: per-voxel learning keeps large structures
        and suppresses same-valued tiny features."""
        vol = cosmology_small.at_time(310)
        cert = trained.classify(vol)
        assert feature_retention(cert, vol.mask("large"), 0.5) > 0.85
        assert noise_suppression(cert, vol.mask("small"), 0.5) > 0.85

    def test_generalizes_to_unseen_time_step(self, trained, cosmology_small):
        """The Fig. 8 claim: trained at 130 & 310, works at unseen 250."""
        vol = cosmology_small.at_time(250)
        cert = trained.classify(vol)
        assert feature_retention(cert, vol.mask("large"), 0.5) > 0.7
        assert noise_suppression(cert, vol.mask("small"), 0.5) > 0.7

    def test_classify_slice_matches_volume(self, trained, cosmology_small):
        vol = cosmology_small.at_time(310)
        full = trained.classify(vol)
        plane = trained.classify_slice(vol, 0, 16)
        assert np.allclose(plane, full[16], atol=1e-6)

    def test_classify_slice_axis_validation(self, trained, cosmology_small):
        with pytest.raises(ValueError):
            trained.classify_slice(cosmology_small.at_time(310), 5, 0)

    def test_certainty_range(self, trained, cosmology_small):
        cert = trained.classify(cosmology_small.at_time(310))
        assert cert.min() >= 0.0 and cert.max() <= 1.0

    def test_chunked_classify_matches(self, trained, cosmology_small):
        vol = cosmology_small.at_time(310)
        a = trained.classify(vol, chunk=1 << 18)
        b = trained.classify(vol, chunk=999)
        assert np.allclose(a, b)

    def test_incremental_training(self, cosmology_small):
        vol = cosmology_small.at_time(310)
        clf = DataSpaceClassifier(seed=0)
        clf.add_examples(vol, positive_mask=sample_mask(vol.mask("large"), 50),
                         negative_mask=sample_mask(vol.mask("small"), 50))
        first = clf.train_increment(epochs=5)
        for _ in range(20):
            last = clf.train_increment(epochs=5)
        assert last < first

    def test_with_features_subset(self, trained, cosmology_small):
        """Sec. 6: dropping properties yields a smaller working classifier."""
        keep = [n for n in trained.extractor.feature_names if n != "time"]
        sub = trained.with_features(keep)
        assert sub.net.n_inputs == trained.net.n_inputs - 1
        assert "time" not in sub.extractor.feature_names
        # transferred training data allows retraining
        sub.train(epochs=100)
        vol = cosmology_small.at_time(310)
        cert = sub.classify(vol)
        assert cert.shape == vol.shape

    def test_with_features_subset_slice(self, trained, cosmology_small):
        keep = ["value"] + [n for n in trained.extractor.feature_names if n.startswith("shell")]
        sub = trained.with_features(keep)
        sub.train(epochs=50)
        plane = sub.classify_slice(cosmology_small.at_time(310), 0, 5)
        assert plane.shape == (32, 32)
