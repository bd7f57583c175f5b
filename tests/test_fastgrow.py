"""Differential battery: label-and-select grow/label vs the scipy reference.

The fast engine (:mod:`repro.segmentation.fastgrow`) and the one labeler
built on it (``label_components``) must be *voxel-identical* to the
serial reference on arbitrary criteria — the whole point of the fast path
is that it changes nothing but the clock.  These tests sweep random
criterion fields across a grid of shapes, densities, connectivities, and
sub-volume cuts (cuts larger than the volume, one-voxel-thick slabs,
empty corners, and seeds on arbitrary planes), asserting exact equality
with ``scipy.ndimage`` results, label numbering included.
"""

import itertools

import numpy as np
import pytest
from scipy import ndimage

from repro.segmentation.components import LABEL_SPARSE_FILL_MAX, label_components
from repro.segmentation.fastgrow import (
    SPARSE_FILL_MAX,
    grow_bricked,
    grow_sparse,
    label_sparse,
    last_label_stats,
)
from repro.parallel.bricking import axis_chunks
from repro.segmentation.regiongrow import _structure, grow_4d, grow_region
from tests.label_oracles import bfs_labels, canonicalize_labels


def random_field(rng, shape, density):
    """Smoothed random boolean field (blobby, multi-component)."""
    return ndimage.uniform_filter(rng.random(shape), size=2) > (1.0 - density)


def reference_labels(mask, connectivity):
    """scipy's labels as they come: already in first-occurrence order."""
    return ndimage.label(mask, structure=_structure(mask.ndim, connectivity))


def sub_volumes(shape, bricks):
    """The whole volume, then every box of a ``bricks`` grid over it.

    The boxes are thin slabs, one-voxel-wide rods and mostly empty
    corners — edge shapes for a labeler's structuring element.
    """
    yield tuple(slice(0, n) for n in shape)
    if bricks is not None:
        for box in itertools.product(*(axis_chunks(n, b) for n, b in zip(shape, bricks))):
            yield tuple(slice(a, b) for a, b in box)


class TestCanonicalizeLabels:
    """The test-local renumbering oracle ``test_scipy_numbering_is_canonical``
    pins scipy's numbering with."""

    def test_raster_first_occurrence_order(self):
        labels = np.array([[0, 5, 5], [2, 2, 0], [0, 2, 9]])
        out = canonicalize_labels(labels)
        assert np.array_equal(out, np.array([[0, 1, 1], [2, 2, 0], [0, 2, 3]]))

    def test_idempotent_and_permutation_invariant(self, rng):
        mask = random_field(rng, (8, 9, 7), 0.5)
        labels, count = ndimage.label(mask)
        canon = canonicalize_labels(labels)
        assert np.array_equal(canonicalize_labels(canon), canon)
        # permute labels: canonical form must not change
        perm = rng.permutation(count) + 1
        permuted = np.zeros_like(labels)
        permuted[labels > 0] = perm[labels[labels > 0] - 1]
        assert np.array_equal(canonicalize_labels(permuted), canon)

    def test_empty(self):
        out = canonicalize_labels(np.zeros((3, 3), dtype=np.int32))
        assert out.dtype == np.int32 and not out.any()

    @pytest.mark.parametrize("shape", [(9, 12, 10), (4, 8, 7, 6)])
    def test_scipy_numbering_is_canonical(self, rng, shape):
        """So neither path of ``label_components`` needs renumbering."""
        mask = random_field(rng, shape, 0.5)
        for connectivity in range(1, mask.ndim + 1):
            labels, _ = reference_labels(mask, connectivity)
            assert np.array_equal(canonicalize_labels(labels), labels)


# Shapes × sub-volume grids: uneven boxes, 1-wide slabs, a box larger
# than the volume, per-timestep 4D slabs, and None (the whole volume only).
GRID_3D = [
    ((9, 12, 10), (4, 5, 3)),
    ((9, 12, 10), (1, 12, 10)),
    ((8, 8, 8), (3, 3, 3)),
    ((8, 8, 8), (16, 16, 16)),
    ((6, 7, 5), None),
]
GRID_4D = [
    ((4, 8, 7, 6), (1, 3, 4, 2)),
    ((5, 6, 6, 6), (1, 6, 6, 6)),
    ((3, 6, 5, 7), (2, 2, 2, 2)),
]


class TestLabelDifferential:
    @pytest.mark.parametrize("shape,bricks", GRID_3D)
    @pytest.mark.parametrize("connectivity", [1, 2, 3])
    @pytest.mark.parametrize("density", [0.35, 0.55, 0.75])
    def test_3d_matches_scipy(self, rng, shape, bricks, connectivity, density):
        mask = random_field(rng, shape, density)
        for box in sub_volumes(shape, bricks):
            expected, count = reference_labels(mask[box], connectivity)
            got, got_count = label_components(mask[box], connectivity=connectivity)
            assert got_count == count
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape,bricks", GRID_4D)
    @pytest.mark.parametrize("connectivity", [1, 2, 4])
    def test_4d_matches_scipy(self, rng, shape, bricks, connectivity):
        mask = random_field(rng, shape, 0.55)
        for box in sub_volumes(shape, bricks):
            expected, count = reference_labels(mask[box], connectivity)
            got, got_count = label_components(mask[box], connectivity=connectivity)
            assert got_count == count
            assert np.array_equal(got, expected)

    def test_matches_components_backend(self, rng):
        """Cross-check against the test-local BFS oracle."""
        mask = random_field(rng, (10, 10, 10), 0.5)
        ref, ref_count = bfs_labels(mask, connectivity=2)
        got, got_count = label_components(mask, connectivity=2)
        assert got_count == ref_count
        assert np.array_equal(got, ref)

    def test_empty_mask(self):
        labels, count = label_components(np.zeros((6, 6, 6), bool))
        assert count == 0 and not labels.any()

    def test_full_mask_single_component(self):
        labels, count = label_components(np.ones((6, 7, 5), bool))
        assert count == 1
        assert (labels == 1).all()

    def test_empty_bricks_are_harmless(self):
        """A mask occupying one corner leaves most of the volume empty."""
        mask = np.zeros((12, 12, 12), bool)
        mask[:3, :3, :3] = True
        labels, count = label_components(mask)
        assert count == 1
        assert np.array_equal(labels > 0, mask)

    def test_stats_recorded(self, rng):
        mask = random_field(rng, (8, 8, 8), 0.5)
        _, count = label_components(mask, connectivity=2)
        assert last_label_stats == {"strategy": "dense", "components": count,
                                    "connectivity": 2}
        assert count >= 1


class TestGrowDifferential:
    @pytest.mark.parametrize("shape,bricks", GRID_3D)
    @pytest.mark.parametrize("connectivity", [1, 3])
    def test_3d_matches_scipy(self, rng, shape, bricks, connectivity):
        mask = random_field(rng, shape, 0.55)
        coords = np.argwhere(mask)
        seeds = np.zeros(shape, bool)
        chosen = coords[rng.choice(len(coords), size=min(4, len(coords)), replace=False)]
        seeds[tuple(chosen.T)] = True
        for box in sub_volumes(shape, bricks):
            expected = grow_region(mask[box], seeds[box], connectivity=connectivity,
                                   backend="scipy")
            got = grow_bricked(mask[box], seeds[box], connectivity=connectivity)
            assert np.array_equal(got, expected)
        # and via the regiongrow backend router
        routed = grow_region(mask, seeds, connectivity=connectivity, backend="bricked")
        assert np.array_equal(routed, grow_region(mask, seeds, connectivity=connectivity))

    @pytest.mark.parametrize("shape,bricks", GRID_4D)
    @pytest.mark.parametrize("connectivity", [1, 2, 4])
    def test_4d_matches_grow_4d(self, rng, shape, bricks, connectivity):
        stack = random_field(rng, shape, 0.6)
        coords = np.argwhere(stack)
        seeds = np.zeros(shape, bool)
        seeds[tuple(coords[rng.choice(len(coords), size=4, replace=False)].T)] = True
        for box in sub_volumes(shape, bricks):
            expected = grow_4d(stack[box], seeds[box], connectivity=connectivity)
            got = grow_bricked(stack[box], seeds[box], connectivity=connectivity)
            assert np.array_equal(got, expected)

    def test_seeds_straddling_brick_boundaries(self, rng):
        """Seeds placed on a lattice of planes through the volume."""
        mask = random_field(rng, (12, 12, 12), 0.7)
        boundary = [3, 4, 7, 8, 11]
        seeds = [(b, b, b) for b in boundary if mask[b, b, b]]
        seeds += [(0, b, 11 - b) for b in boundary if mask[0, b, 11 - b]]
        if not seeds:
            pytest.skip("no criterion voxels on the boundary for this draw")
        expected = grow_region(mask, seeds, connectivity=1, backend="scipy")
        got = grow_bricked(mask, seeds, connectivity=1, strategy="dense")
        assert np.array_equal(got, expected)

    def test_component_straddling_many_bricks(self):
        """A one-voxel-thick diagonal snake, connected only through edges."""
        mask = np.zeros((10, 10, 10), bool)
        for i in range(10):
            mask[i, i, :] = True
        expected = grow_region(mask, [(0, 0, 0)], connectivity=3, backend="scipy")
        got = grow_bricked(mask, [(0, 0, 0)], connectivity=3, strategy="dense")
        assert np.array_equal(got, expected)
        assert got.sum() == 100

    def test_seed_outside_criterion_grows_nothing(self, rng):
        mask = random_field(rng, (8, 8, 8), 0.4)
        off = np.argwhere(~mask)[0]
        got = grow_bricked(mask, [tuple(int(c) for c in off)])
        assert not got.any()

    def test_empty_criterion(self):
        got = grow_bricked(np.zeros((5, 5, 5), bool), [(2, 2, 2)])
        assert not got.any()

    def test_boolean_seed_mask(self, rng):
        mask = random_field(rng, (9, 9, 9), 0.5)
        seed_mask = np.zeros_like(mask)
        seed_mask[4, :, :] = True
        expected = grow_region(mask, seed_mask, backend="scipy")
        got = grow_bricked(mask, seed_mask)
        assert np.array_equal(got, expected)

    def test_frontier_cross_check(self, rng):
        """Three independent implementations, one answer."""
        mask = random_field(rng, (8, 9, 7), 0.55)
        coords = np.argwhere(mask)
        seed = [tuple(int(c) for c in coords[0])]
        a = grow_region(mask, seed, backend="scipy")
        b = grow_region(mask, seed, backend="frontier")
        c = grow_bricked(mask, seed)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_unknown_backend_message_lists_bricked(self):
        with pytest.raises(ValueError, match="bricked"):
            grow_region(np.ones((2, 2), bool), [(0, 0)], backend="nope")


class TestSparseDifferential:
    """The sparse voxel-graph strategy must equal scipy exactly too."""

    @pytest.mark.parametrize("shape", [(9, 12, 10), (4, 8, 7, 6)])
    @pytest.mark.parametrize("density", [0.02, 0.2, 0.55])
    def test_label_sparse_matches_scipy(self, rng, shape, density):
        mask = random_field(rng, shape, density)
        for connectivity in range(1, mask.ndim + 1):
            expected, count = reference_labels(mask, connectivity)
            got, got_count = label_sparse(mask, connectivity=connectivity)
            assert got_count == count
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(9, 12, 10), (4, 8, 7, 6)])
    def test_grow_sparse_matches_scipy(self, rng, shape):
        mask = random_field(rng, shape, 0.3)
        coords = np.argwhere(mask)
        seeds = coords[rng.choice(len(coords), size=3, replace=False)]
        for connectivity in range(1, mask.ndim + 1):
            expected = grow_region(mask, seeds, connectivity=connectivity,
                                   backend="scipy")
            got = grow_sparse(mask, seeds, connectivity=connectivity)
            assert np.array_equal(got, expected)
        # forced through the public strategy switch as well
        got = grow_bricked(mask, seeds, strategy="sparse")
        assert np.array_equal(got, grow_region(mask, seeds, backend="scipy"))

    def test_sparse_empty_and_full(self):
        empty = np.zeros((5, 6, 4), bool)
        labels, count = label_sparse(empty)
        assert count == 0 and not labels.any()
        assert not grow_sparse(empty, [(2, 2, 2)]).any()
        full = np.ones((5, 6, 4), bool)
        labels, count = label_sparse(full)
        assert count == 1 and (labels == 1).all()
        assert grow_sparse(full, [(0, 0, 0)]).all()

    def test_auto_strategy_selection(self, rng):
        sparse_mask = np.zeros((12, 12, 12), bool)
        sparse_mask[2:4, 2:4, 2:4] = True  # fill well under LABEL_SPARSE_FILL_MAX
        assert sparse_mask.mean() <= LABEL_SPARSE_FILL_MAX
        label_components(sparse_mask)
        assert last_label_stats["strategy"] == "sparse"
        dense_mask = random_field(rng, (12, 12, 12), 0.5)
        label_components(dense_mask)
        assert last_label_stats["strategy"] == "dense"

    def test_labeling_crosses_over_before_growing(self):
        """Between the two crossovers a mask is labeled densely but grown
        sparsely: growing skips the numbering, so its sparse path pays
        off at higher fills."""
        mask = np.zeros((10, 10, 10), bool)
        mask[0, :3, :10] = True  # 3% full
        assert LABEL_SPARSE_FILL_MAX < mask.mean() <= SPARSE_FILL_MAX
        label_components(mask)
        assert last_label_stats["strategy"] == "dense"
        grow_bricked(mask, [(0, 0, 0)])
        assert last_label_stats["strategy"] == "sparse"

    def test_strategies_agree_bitwise(self, rng):
        mask = random_field(rng, (10, 11, 9), 0.3)
        seeds = np.argwhere(mask)[:2]
        a = grow_bricked(mask, seeds, strategy="dense")
        b = grow_bricked(mask, seeds, strategy="sparse")
        c = grow_bricked(mask, seeds, strategy="auto")
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            grow_bricked(np.ones((3, 3), bool), [(0, 0)], strategy="nope")


class TestValidation:
    def test_connectivity_checked(self):
        for fill in (False, True):  # the sparse path, then the dense one
            with pytest.raises(ValueError):
                label_components(np.full((4, 4, 4), fill), connectivity=4)
