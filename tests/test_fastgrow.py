"""Differential battery: brick-parallel grow/label vs the serial scipy backend.

The bricked engine (:mod:`repro.segmentation.fastgrow`) must be
*voxel-identical* to the serial reference on arbitrary criteria — the
whole point of the fast path is that it changes nothing but the clock.
These tests sweep random criterion fields across a grid of shapes,
densities, connectivities, and brick decompositions (including bricks
larger than the volume, 1-wide bricks, empty bricks, and seeds sitting
exactly on brick boundaries), asserting exact equality with
``scipy.ndimage`` results canonicalized to a common label order.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.segmentation.components import label_components
from repro.segmentation.fastgrow import (
    SPARSE_FILL_MAX,
    UnionFind,
    canonicalize_labels,
    grow_bricked,
    grow_sparse,
    label_bricked,
    label_sparse,
    last_label_stats,
)
from repro.segmentation.regiongrow import _structure, grow_4d, grow_region


def random_field(rng, shape, density):
    """Smoothed random boolean field (blobby, multi-component)."""
    return ndimage.uniform_filter(rng.random(shape), size=2) > (1.0 - density)


def reference_labels(mask, connectivity):
    labels, count = ndimage.label(mask, structure=_structure(mask.ndim, connectivity))
    return canonicalize_labels(labels), count


class TestUnionFind:
    def test_basic_union_and_find(self):
        uf = UnionFind(6)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.find(1) == uf.find(2)
        assert uf.find(3) == uf.find(4)
        assert uf.find(1) != uf.find(3)
        uf.union(2, 4)
        assert uf.find(1) == uf.find(3)

    def test_roots_fully_resolved(self):
        uf = UnionFind(8)
        for a, b in [(1, 2), (2, 3), (3, 4), (6, 7)]:
            uf.union(a, b)
        roots = uf.roots()
        assert len(set(roots[1:5].tolist())) == 1
        assert roots[5] == 5
        assert roots[6] == roots[7]

    def test_size_validated(self):
        with pytest.raises(ValueError):
            UnionFind(0)


class TestCanonicalizeLabels:
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


# Shapes × brick decompositions: uneven bricks, 1-wide bricks, bricks
# larger than the volume, per-timestep 4D slabs, and a None (single brick).
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
        expected, count = reference_labels(mask, connectivity)
        got, got_count = label_bricked(mask, connectivity=connectivity,
                                       brick_shape=bricks)
        assert got_count == count
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape,bricks", GRID_4D)
    @pytest.mark.parametrize("connectivity", [1, 2, 4])
    def test_4d_matches_scipy(self, rng, shape, bricks, connectivity):
        mask = random_field(rng, shape, 0.55)
        expected, count = reference_labels(mask, connectivity)
        got, got_count = label_bricked(mask, connectivity=connectivity,
                                       brick_shape=bricks)
        assert got_count == count
        assert np.array_equal(got, expected)

    def test_matches_components_backend(self, rng):
        """Cross-check against the repo's other labeler entry point."""
        mask = random_field(rng, (10, 10, 10), 0.5)
        ref, ref_count = label_components(mask, connectivity=2)
        got, got_count = label_bricked(mask, connectivity=2, brick_shape=(4, 4, 4))
        assert got_count == ref_count
        assert np.array_equal(got, canonicalize_labels(ref))

    def test_empty_mask(self):
        labels, count = label_bricked(np.zeros((6, 6, 6), bool), brick_shape=(2, 2, 2))
        assert count == 0 and not labels.any()

    def test_full_mask_single_component(self):
        labels, count = label_bricked(np.ones((6, 7, 5), bool), brick_shape=(2, 3, 2))
        assert count == 1
        assert (labels == 1).all()

    def test_empty_bricks_are_harmless(self):
        """A mask occupying one corner leaves most bricks empty."""
        mask = np.zeros((12, 12, 12), bool)
        mask[:3, :3, :3] = True
        labels, count = label_bricked(mask, brick_shape=(4, 4, 4))
        assert count == 1
        assert np.array_equal(labels > 0, mask)

    def test_stats_recorded(self, rng):
        mask = random_field(rng, (8, 8, 8), 0.5)
        label_bricked(mask, brick_shape=(4, 4, 4))
        assert last_label_stats["bricks"] == 8
        assert len(last_label_stats["brick_labels"]) == 8
        assert last_label_stats["components"] >= 1

    def test_schedule_independence(self, rng):
        """The worker count must not change a single voxel."""
        mask = random_field(rng, (6, 12, 12, 12), 0.55)
        serial, count = label_bricked(mask, connectivity=2, brick_shape=(1, 6, 6, 6))
        for workers in (2, 3):
            par, par_count = label_bricked(
                mask, connectivity=2, brick_shape=(1, 6, 6, 6),
                workers=workers, backend="process",
            )
            assert par_count == count
            assert np.array_equal(par, serial)


class TestGrowDifferential:
    @pytest.mark.parametrize("shape,bricks", GRID_3D)
    @pytest.mark.parametrize("connectivity", [1, 3])
    def test_3d_matches_scipy(self, rng, shape, bricks, connectivity):
        mask = random_field(rng, shape, 0.55)
        coords = np.argwhere(mask)
        seeds = coords[rng.choice(len(coords), size=min(4, len(coords)), replace=False)]
        expected = grow_region(mask, seeds, connectivity=connectivity, backend="scipy")
        got = grow_bricked(mask, seeds, connectivity=connectivity, brick_shape=bricks)
        assert np.array_equal(got, expected)
        # and via the regiongrow backend router
        routed = grow_region(mask, seeds, connectivity=connectivity, backend="bricked")
        assert np.array_equal(routed, expected)

    @pytest.mark.parametrize("shape,bricks", GRID_4D)
    @pytest.mark.parametrize("connectivity", [1, 2, 4])
    def test_4d_matches_grow_4d(self, rng, shape, bricks, connectivity):
        stack = random_field(rng, shape, 0.6)
        coords = np.argwhere(stack)
        seed = tuple(int(c) for c in coords[rng.integers(len(coords))])
        expected = grow_4d(stack, [seed], connectivity=connectivity)
        got = grow_bricked(stack, [seed], connectivity=connectivity, brick_shape=bricks)
        assert np.array_equal(got, expected)

    def test_seeds_straddling_brick_boundaries(self, rng):
        """Seeds placed exactly on every brick boundary plane."""
        mask = random_field(rng, (12, 12, 12), 0.7)
        boundary = [3, 4, 7, 8, 11]
        seeds = [(b, b, b) for b in boundary if mask[b, b, b]]
        seeds += [(0, b, 11 - b) for b in boundary if mask[0, b, 11 - b]]
        if not seeds:
            pytest.skip("no criterion voxels on the boundary for this draw")
        expected = grow_region(mask, seeds, connectivity=1, backend="scipy")
        got = grow_bricked(mask, seeds, connectivity=1, brick_shape=(4, 4, 4))
        assert np.array_equal(got, expected)

    def test_component_straddling_many_bricks(self):
        """A one-voxel-thick diagonal snake crossing every brick seam."""
        mask = np.zeros((10, 10, 10), bool)
        for i in range(10):
            mask[i, i, :] = True
        expected = grow_region(mask, [(0, 0, 0)], connectivity=3, backend="scipy")
        got = grow_bricked(mask, [(0, 0, 0)], connectivity=3, brick_shape=(3, 3, 3))
        assert np.array_equal(got, expected)
        assert got.sum() == 100

    def test_seed_outside_criterion_grows_nothing(self, rng):
        mask = random_field(rng, (8, 8, 8), 0.4)
        off = np.argwhere(~mask)[0]
        got = grow_bricked(mask, [tuple(int(c) for c in off)], brick_shape=(3, 3, 3))
        assert not got.any()

    def test_empty_criterion(self):
        got = grow_bricked(np.zeros((5, 5, 5), bool), [(2, 2, 2)], brick_shape=(2, 2, 2))
        assert not got.any()

    def test_boolean_seed_mask(self, rng):
        mask = random_field(rng, (9, 9, 9), 0.5)
        seed_mask = np.zeros_like(mask)
        seed_mask[4, :, :] = True
        expected = grow_region(mask, seed_mask, backend="scipy")
        got = grow_bricked(mask, seed_mask, brick_shape=(4, 4, 4))
        assert np.array_equal(got, expected)

    def test_frontier_cross_check(self, rng):
        """Three independent implementations, one answer."""
        mask = random_field(rng, (8, 9, 7), 0.55)
        coords = np.argwhere(mask)
        seed = [tuple(int(c) for c in coords[0])]
        a = grow_region(mask, seed, backend="scipy")
        b = grow_region(mask, seed, backend="frontier")
        c = grow_bricked(mask, seed, brick_shape=(3, 4, 3))
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
        sparse_mask[2:4, 2:4, 2:4] = True  # fill well under SPARSE_FILL_MAX
        assert sparse_mask.mean() <= SPARSE_FILL_MAX
        label_bricked(sparse_mask)
        assert last_label_stats["strategy"] == "sparse"
        # an explicit fan-out keeps the dense brick path (bricks are the
        # parallel unit), as does a dense mask
        label_bricked(sparse_mask, brick_shape=(6, 6, 6), workers=2,
                      backend="process")
        assert last_label_stats["strategy"] == "dense"
        dense_mask = random_field(rng, (12, 12, 12), 0.5)
        label_bricked(dense_mask)
        assert last_label_stats["strategy"] == "dense"

    def test_strategies_agree_bitwise(self, rng):
        mask = random_field(rng, (10, 11, 9), 0.3)
        seeds = np.argwhere(mask)[:2]
        a = grow_bricked(mask, seeds, strategy="dense", brick_shape=(4, 4, 4))
        b = grow_bricked(mask, seeds, strategy="sparse")
        c = grow_bricked(mask, seeds, strategy="auto")
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            grow_bricked(np.ones((3, 3), bool), [(0, 0)], strategy="nope")


class TestValidation:
    def test_brick_shape_rank_checked(self):
        with pytest.raises(ValueError):
            label_bricked(np.ones((4, 4, 4), bool), brick_shape=(2, 2))

    def test_connectivity_checked(self):
        with pytest.raises(ValueError):
            label_bricked(np.ones((4, 4, 4), bool), connectivity=4)
