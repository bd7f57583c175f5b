"""Tests for repro.segmentation.components: labeling and attributes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.segmentation import feature_attributes, label_components
from repro.segmentation.components import LABEL_SPARSE_FILL_MAX
from tests.label_oracles import bfs_labels

# The program's labeler and the test-local BFS oracle, by name.
LABELERS = {"scipy": label_components, "bfs": bfs_labels}


def three_blobs():
    mask = np.zeros((12, 12, 12), dtype=bool)
    mask[0:3, 0:3, 0:3] = True  # 27 voxels
    mask[5:7, 5:7, 5:7] = True  # 8 voxels
    mask[10, 10, 10] = True  # 1 voxel
    return mask


class TestLabelComponents:
    @pytest.mark.parametrize("backend", ["scipy", "bfs"])
    def test_counts_components(self, backend):
        labels, n = LABELERS[backend](three_blobs())
        assert n == 3
        assert labels.max() == 3
        assert labels[three_blobs()].min() >= 1

    @pytest.mark.parametrize("backend", ["scipy", "bfs"])
    def test_empty_mask(self, backend):
        labels, n = LABELERS[backend](np.zeros((4, 4, 4), dtype=bool))
        assert n == 0
        assert not labels.any()

    def test_backend_partition_agreement(self):
        """The labeler and the BFS oracle give the same labels, numbering
        included: both number components by raster-scan first occurrence."""
        rng = np.random.default_rng(3)
        mask = rng.random((10, 10, 10)) > 0.6
        la, na = label_components(mask)
        lb, nb = bfs_labels(mask)
        assert na == nb
        assert np.array_equal(la, lb)

    def test_connectivity_matters(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[0, 0, 0] = True
        mask[1, 1, 1] = True
        _, n_face = label_components(mask, connectivity=1)
        _, n_full = label_components(mask, connectivity=3)
        assert n_face == 2
        assert n_full == 1

    def test_4d_labeling(self):
        stack = np.zeros((3, 4, 4, 4), dtype=bool)
        stack[0, 0, 0, 0] = True
        stack[1, 0, 0, 0] = True  # temporally adjacent -> same 4D component
        stack[2, 3, 3, 3] = True
        _, n = label_components(stack, connectivity=1)
        assert n == 2

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_label_count_matches_bfs_property(self, seed):
        mask = np.random.default_rng(seed).random((7, 7, 7)) > 0.5
        _, na = label_components(mask)
        _, nb = bfs_labels(mask)
        assert na == nb


def _scipy_labels(mask, connectivity):
    structure = ndimage.generate_binary_structure(mask.ndim, connectivity)
    return ndimage.label(mask, structure=structure)


class TestLabelIdentity:
    """``label_components`` returns ``ndimage.label``'s labels and count
    exactly, with no renumbering, on both sides of its crossover."""

    @given(data=st.data(), ndim=st.integers(2, 4),
           fill=st.sampled_from([0.0, 0.004, 0.01, LABEL_SPARSE_FILL_MAX,
                                 0.05, 0.3, 0.6, 1.0]),
           smooth=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_equals_ndimage_label(self, data, ndim, fill, smooth, seed):
        side = 12 if ndim == 4 else 24
        shape = tuple(data.draw(st.lists(st.integers(1, side), min_size=ndim,
                                         max_size=ndim), label="shape"))
        connectivity = data.draw(st.integers(1, ndim), label="connectivity")
        field = np.random.default_rng(seed).random(shape)
        threshold = fill
        if smooth and 0 < fill < 1:  # blobs instead of speckle, same fill
            field = ndimage.uniform_filter(field, size=2)
            threshold = np.quantile(field, fill)
        mask = field < threshold
        expected, count = _scipy_labels(mask, connectivity)
        labels, n = label_components(mask, connectivity=connectivity)
        assert n == count
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)

    @pytest.mark.parametrize("ndim", [2, 3, 4])
    @pytest.mark.parametrize("fill", [0.0, 1.0], ids=["empty", "full"])
    def test_empty_and_full(self, ndim, fill):
        mask = np.full((5,) * ndim, fill, dtype=bool)
        for connectivity in range(1, ndim + 1):
            labels, n = label_components(mask, connectivity=connectivity)
            assert n == int(fill)
            assert np.array_equal(labels, _scipy_labels(mask, connectivity)[0])


class TestFeatureAttributes:
    def test_sizes(self):
        labels, n = label_components(three_blobs())
        attrs = feature_attributes(labels, n)
        sizes = sorted(a.voxels for a in attrs)
        assert sizes == [1, 8, 27]

    def test_centroid_of_box(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[2:4, 2:4, 2:4] = True
        labels, n = label_components(mask)
        (attr,) = feature_attributes(labels, n)
        assert attr.centroid == (2.5, 2.5, 2.5)

    def test_bbox(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[1:5, 2:6, 3:7] = True
        labels, n = label_components(mask)
        (attr,) = feature_attributes(labels, n)
        assert attr.bbox_min == (1, 2, 3)
        assert attr.bbox_max == (4, 5, 6)
        assert attr.extent == (4, 4, 4)

    def test_mass_with_data(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, :2] = True
        data = np.full((4, 4, 4), 2.5)
        labels, n = label_components(mask)
        (attr,) = feature_attributes(labels, n, data=data)
        assert attr.mass == pytest.approx(5.0)

    def test_mass_without_data_zero(self):
        labels, n = label_components(three_blobs())
        for attr in feature_attributes(labels, n):
            assert attr.mass == 0.0

    def test_data_shape_mismatch(self):
        labels, n = label_components(three_blobs())
        with pytest.raises(ValueError):
            feature_attributes(labels, n, data=np.zeros((2, 2, 2)))

    def test_empty(self):
        assert feature_attributes(np.zeros((3, 3, 3), dtype=np.int32), 0) == []

    def test_voxel_conservation(self):
        labels, n = label_components(three_blobs())
        attrs = feature_attributes(labels, n)
        assert sum(a.voxels for a in attrs) == three_blobs().sum()
