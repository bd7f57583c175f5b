"""Tests for repro.parallel: task farm and bricking."""

import numpy as np
import pytest

from repro.parallel import (
    assemble_bricks,
    content_digest,
    iter_bricks,
    map_timesteps,
    split_bricks,
)


def square(x):
    return x * x


def boom(x):
    raise RuntimeError("boom")


class TestMapTimesteps:
    def test_serial_results_in_order(self):
        out = map_timesteps(square, [1, 2, 3])
        assert out.results == [1, 4, 9]
        assert out.backend == "serial"
        assert out.workers == 1

    def test_process_results_match_serial(self):
        serial = map_timesteps(square, list(range(10)))
        proc = map_timesteps(square, list(range(10)), workers=2)
        assert proc.results == serial.results
        assert proc.backend == "process"

    def test_auto_single_worker_serial(self):
        out = map_timesteps(square, [1, 2], workers=1)
        assert out.backend == "serial"

    def test_auto_single_item_serial(self):
        out = map_timesteps(square, [1], workers=4)
        assert out.backend == "serial"

    def test_exception_propagates_serial(self):
        with pytest.raises(RuntimeError, match="boom"):
            map_timesteps(boom, [1])

    def test_exception_propagates_process(self):
        with pytest.raises(RuntimeError, match="boom"):
            map_timesteps(boom, [1, 2], workers=2)

    def test_empty_items(self):
        out = map_timesteps(square, [])
        assert out.results == []

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            map_timesteps(square, [1], workers=0)

    def test_throughput_positive(self):
        out = map_timesteps(square, [1, 2, 3])
        assert out.throughput > 0

    def test_throughput_zero_elapsed(self):
        from repro.parallel import MapResult

        assert MapResult([1], 0.0, "serial", 1).throughput == 0.0

    def test_per_item_wall_times_recorded(self):
        out = map_timesteps(square, [1, 2, 3])
        assert len(out.item_times) == 3
        assert all(t >= 0.0 for t in out.item_times)
        proc = map_timesteps(square, [1, 2, 3], workers=2)
        assert len(proc.item_times) == 3

    def test_workers_clamped_to_item_count(self):
        """Never fork more workers than there are items to farm out."""
        out = map_timesteps(square, [1, 2], workers=8)
        assert out.workers == 2
        assert out.results == [1, 4]

    def test_clamp_leaves_small_worker_counts_alone(self):
        out = map_timesteps(square, [1, 2, 3, 4], workers=2)
        assert out.workers == 2


class TestBricking:
    def test_content_digest_known_answer(self):
        """SHA-256 over ``repr((shape, dtype.str))`` then the bytes, cut to
        128 bits: pinned so a change of hash is a deliberate one."""
        arr = np.arange(12, dtype="<f4").reshape(3, 4)
        assert content_digest(arr) == "8c4c13e9e95f464d47154b46ebaf8ac0"
        assert content_digest(arr, np.array([True, False])) == (
            "f0caba542621385c0a8af67feae96428")

    def test_bricks_tile_exactly(self):
        vol = np.arange(6 * 7 * 8, dtype=np.float32).reshape(6, 7, 8)
        bricks = split_bricks(vol, (4, 4, 4))
        covered = assemble_bricks(bricks, vol.shape)
        assert np.array_equal(covered, vol)

    def test_ghost_layers_present(self):
        vol = np.arange(8**3, dtype=np.float32).reshape(8, 8, 8)
        bricks = split_bricks(vol, (4, 4, 4), ghost=1)
        # interior brick away from every volume edge gets ghost on all sides
        inner = [b for b in bricks if all(s.start > 0 for s in b.position)][0]
        assert inner.data.shape == (5, 5, 5) or inner.data.shape == (6, 6, 6)

    def test_ghost_correctness_for_neighborhood_op(self):
        """Smoothing per brick with ghost=1 equals smoothing the whole
        volume (away from the global boundary)."""
        from dataclasses import replace

        from scipy import ndimage

        rng = np.random.default_rng(0)
        vol = rng.random((12, 12, 12)).astype(np.float32)
        full = ndimage.uniform_filter(vol, size=3, mode="constant")
        bricks = split_bricks(vol, (6, 6, 6), ghost=1)
        processed = [
            replace(b, data=ndimage.uniform_filter(b.data, size=3, mode="constant"))
            for b in bricks
        ]
        out = assemble_bricks(processed, vol.shape)
        interior = (slice(2, -2),) * 3
        assert np.allclose(out[interior], full[interior])

    def test_iter_bricks_matches_split(self):
        vol = np.zeros((5, 5, 5), dtype=np.float32)
        assert len(list(iter_bricks(vol, (2, 2, 2)))) == len(split_bricks(vol, (2, 2, 2)))

    def test_interior_shape(self):
        vol = np.zeros((5, 5, 5), dtype=np.float32)
        bricks = split_bricks(vol, (4, 4, 4))
        shapes = sorted(b.interior_shape for b in bricks)
        assert shapes[0] == (1, 1, 1) and shapes[-1] == (4, 4, 4)

    def test_assemble_requires_full_cover(self):
        vol = np.zeros((4, 4, 4), dtype=np.float32)
        bricks = split_bricks(vol, (2, 2, 2))
        with pytest.raises(ValueError, match="cover"):
            assemble_bricks(bricks[:-1], vol.shape)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_bricks(np.zeros((4, 4)), (2, 2, 2))
        with pytest.raises(ValueError):
            split_bricks(np.zeros((4, 4, 4)), (2, 2, 2), ghost=-1)
        with pytest.raises(ValueError):
            assemble_bricks([], (4, 4, 4))

    def test_bricks_are_copies(self):
        vol = np.zeros((4, 4, 4), dtype=np.float32)
        bricks = split_bricks(vol, (2, 2, 2))
        bricks[0].data[...] = 9.0
        assert vol.max() == 0.0
