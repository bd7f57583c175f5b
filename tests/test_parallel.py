"""Tests for repro.parallel: task farm and content digests."""

import numpy as np
import pytest

from repro.parallel import content_digest, map_timesteps


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


class TestContentDigest:
    def test_content_digest_known_answer(self):
        """SHA-256 over ``repr((shape, dtype.str))`` then the bytes, cut to
        128 bits: pinned so a change of hash is a deliberate one."""
        arr = np.arange(12, dtype="<f4").reshape(3, 4)
        assert content_digest(arr) == "8c4c13e9e95f464d47154b46ebaf8ac0"
        assert content_digest(arr, np.array([True, False])) == (
            "f0caba542621385c0a8af67feae96428")
