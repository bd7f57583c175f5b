"""The shared cross-process cache backend and its pipeline composition.

What is on trial:

1. **The backend itself** — :class:`SharedArrayCache` round-trips arrays
   through the content-addressed store, returns them read-only, treats
   corrupt or torn entries as misses (bumping ``cache.store.corrupt``),
   and bounds its on-disk footprint via eviction.
2. **Read-only puts** (satellite regression) — a block returned from
   :class:`TemporalCoherenceCache` cannot be mutated in place, so no
   consumer can poison the next hit; views are copied before freezing.
3. **Cache × task farm composition** (the tentpole) — ``cache=<dir>``
   with ``workers=2`` produces bit-identical results to the in-process
   cached run for both ``classify_sequence`` and ``render_sequence``,
   warm replays hit, and the hit/miss tallies ride the task results back
   into the *parent's* counters.  A cache without a store is rejected.
"""

import numpy as np
import pytest

from repro.cache import (
    ArtifactStore,
    IntegrityError,
    SharedArrayCache,
    default_cache_root,
)
from repro.cache.shared import ENV_CACHE_DIR, ENV_CACHE_MAX_BYTES
from repro.core import (
    DataSpaceClassifier,
    ShellFeatureExtractor,
    TemporalCoherenceCache,
    classify_sequence,
)
from repro.core.pipeline import render_sequence
from repro.obs import get_metrics
from repro.render.camera import Camera
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence


@pytest.fixture()
def metrics():
    m = get_metrics()
    m.reset()
    yield m
    m.reset()


# --------------------------------------------------------------------- #
# 1. SharedArrayCache backend
# --------------------------------------------------------------------- #
class TestSharedArrayCache:
    def test_roundtrip_any_key_shape(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        key = ("sig", (16, 16, 16), (0, 0, 0), None, "wdigest", "blockdigest")
        value = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        assert cache.load(key) is None
        cache.save(key, value)
        got = cache.load(key)
        assert np.array_equal(got, value)
        assert got.dtype == value.dtype and got.shape == value.shape
        assert len(cache) == 1

    def test_loaded_arrays_are_read_only(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.save("k", np.zeros(4, dtype=np.float32))
        got = cache.load("k")
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0
        # the store itself stays unpoisoned
        assert np.array_equal(cache.load("k"), np.zeros(4, dtype=np.float32))

    def test_corrupt_payload_reads_as_miss(self, tmp_path, metrics):
        cache = SharedArrayCache(tmp_path)
        cache.save("k", np.ones(8, dtype=np.float32))
        payload = cache.store.payload_path(cache.store_key("k"))
        payload.write_bytes(b"\x00" * payload.stat().st_size)
        assert cache.load("k") is None
        counters = metrics.counter_values("cache.store.")
        assert counters["cache.store.corrupt"] == 1
        # a recompute-and-save heals the entry
        cache.save("k", np.ones(8, dtype=np.float32))
        assert np.array_equal(cache.load("k"), np.ones(8, dtype=np.float32))

    def test_torn_sidecar_reads_as_miss(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.save("k", np.ones(8, dtype=np.float32))
        meta = cache.store.meta_path(cache.store_key("k"))
        text = meta.read_text()
        meta.write_text(text[: len(text) // 2])  # torn mid-write
        assert cache.load("k") is None

    def test_missing_sidecar_reads_as_miss(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.save("k", np.ones(8, dtype=np.float32))
        cache.store.meta_path(cache.store_key("k")).unlink()
        assert cache.load("k") is None

    def test_eviction_bounds_disk(self, tmp_path, metrics):
        one_entry = np.zeros(256, dtype=np.float32).nbytes
        cache = SharedArrayCache(tmp_path, max_bytes=3 * one_entry)
        for i in range(6):
            cache.save(f"k{i}", np.full(256, i, dtype=np.float32))
        assert len(cache) <= 3
        assert metrics.counter_values("cache.store.")["cache.store.evictions"] >= 3
        # newest entries survive (mtime order eviction)
        assert cache.load("k5") is not None
        with pytest.raises(ValueError, match="max_bytes"):
            SharedArrayCache(tmp_path, max_bytes=0)

    def test_clear_drops_everything(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.save("a", np.zeros(2))
        cache.save("b", np.ones(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.load("a") is None

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "from-env"))
        assert default_cache_root() == tmp_path / "from-env"
        assert SharedArrayCache().root == tmp_path / "from-env"
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "12345")
        assert SharedArrayCache(tmp_path).max_bytes == 12345
        monkeypatch.delenv(ENV_CACHE_DIR)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_root() == tmp_path / "xdg" / "repro" / "shared"

    def test_counter_prefix_separates_surfaces(self, tmp_path, metrics):
        """The runner keeps run.store.* names; the cache uses cache.store.*."""
        SharedArrayCache(tmp_path / "c").save("k", np.zeros(2))
        ArtifactStore(tmp_path / "r").put_array("k", np.zeros(2))
        assert metrics.counter_values("cache.store.")["cache.store.writes"] == 1
        assert metrics.counter_values("run.store.")["run.store.writes"] == 1

    def test_concurrent_writers_same_key(self, tmp_path):
        """Last-writer-wins idempotent publication: many processes writing
        the same key leave one intact, readable entry."""
        from multiprocessing import get_context

        ctx = get_context("spawn")
        with ctx.Pool(2) as pool:
            pool.map(_write_same_key, [str(tmp_path)] * 4)
        cache = SharedArrayCache(tmp_path)
        assert np.array_equal(cache.load("shared-key"),
                              np.arange(64, dtype=np.float32))


def _write_same_key(root):
    SharedArrayCache(root).save("shared-key", np.arange(64, dtype=np.float32))


# --------------------------------------------------------------------- #
# 2. Read-only puts in the in-memory L1 (satellite regression)
# --------------------------------------------------------------------- #
class TestReadOnlyPuts:
    def test_mutating_a_returned_block_raises(self, tmp_path):
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
        cache.put("k", np.zeros(4, dtype=np.float32))
        got = cache.get("k")
        with pytest.raises(ValueError):
            got[0] = 99.0
        # the failed mutation did not poison the next hit
        assert np.array_equal(cache.get("k"), np.zeros(4, dtype=np.float32))

    def test_views_are_copied_before_freezing(self, tmp_path):
        backing = np.arange(8, dtype=np.float32)
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
        cache.put("k", backing[2:6])  # a view: freezing in place would
        backing[:] = -1.0             # either fail or alias this write
        assert np.array_equal(cache.get("k"),
                              np.array([2, 3, 4, 5], dtype=np.float32))
        assert backing.flags.writeable  # caller's array untouched

    def test_worker_clone_shares_store_not_l1(self, tmp_path):
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
        cache.put("k", np.ones(2, dtype=np.float32))
        clone = cache.worker_clone()
        assert len(clone) == 0 and clone.store is cache.store
        got = clone.get("k")  # falls through to the shared store
        assert np.array_equal(got, np.ones(2, dtype=np.float32))
        assert clone.hits == 1


# --------------------------------------------------------------------- #
# 3. Cache × task farm composition
# --------------------------------------------------------------------- #
def _steady_sequence(n_steps=3, shape=(16, 16, 16), seed=6):
    base = np.random.default_rng(seed).random(shape).astype(np.float32)
    return VolumeSequence([Volume(base.copy(), time=t) for t in range(n_steps)])


def _train(seq, seed=3, epochs=60):
    clf = DataSpaceClassifier(
        ShellFeatureExtractor(radius=2, include_time=False), seed=seed)
    data = seq[0].data
    pos = data > np.percentile(data, 99.0)
    neg = (data < np.percentile(data, 60.0)) \
        & (np.random.default_rng(seed).random(data.shape) < 0.01)
    clf.add_examples(seq[0], positive_mask=pos, negative_mask=neg)
    clf.train(epochs=epochs)
    return clf


class TestClassifyComposition:
    @pytest.fixture(scope="class")
    def seq(self):
        return _steady_sequence()

    @pytest.fixture(scope="class")
    def clf(self, seq):
        return _train(seq)

    def test_workers_bit_identical_to_serial(self, seq, clf, tmp_path, metrics):
        serial = classify_sequence(clf, seq, mode="fast", cache=tmp_path / "serial")
        metrics.reset()
        fanned = classify_sequence(clf, seq, mode="fast",
                                   cache=tmp_path / "cache", workers=2)
        for a, b in zip(serial, fanned):
            assert np.array_equal(a, b)
        # the ridden stats landed in the parent registry
        counters = metrics.counter_values("classify.")
        assert counters["classify.voxels"] == sum(v.data.size for v in seq)
        assert counters["classify.cache_misses"] >= 1
        assert (counters.get("classify.cache_hits", 0)
                + counters["classify.cache_misses"]) \
            == counters["classify.blocks_total"]

    def test_warm_replay_hits(self, seq, clf, tmp_path, metrics):
        cachedir = tmp_path / "cache"
        cold = classify_sequence(clf, seq, mode="fast", cache=cachedir, workers=2)
        metrics.reset()
        warm = classify_sequence(clf, seq, mode="fast", cache=cachedir, workers=2)
        counters = metrics.counter_values("classify.")
        assert counters.get("classify.cache_misses", 0) == 0
        assert counters["classify.cache_hits"] == counters["classify.blocks_total"]
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)

    def test_shared_spec_forms_agree(self, seq, clf, tmp_path):
        """A path, a SharedArrayCache, and a store-wired cache object all
        resolve to the same on-disk namespace."""
        cachedir = tmp_path / "cache"
        by_path = classify_sequence(clf, seq, mode="fast", cache=cachedir,
                                    workers=1)
        by_obj = classify_sequence(clf, seq, mode="fast", workers=1,
                                   cache=SharedArrayCache(cachedir))
        wired = TemporalCoherenceCache(store=SharedArrayCache(cachedir))
        by_cache = classify_sequence(clf, seq, mode="fast", cache=wired, workers=2)
        for a, b, c in zip(by_path, by_obj, by_cache):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_in_memory_cache_still_rejects_processes(self, seq, clf):
        """No in-memory mode remains: ``cache=True`` and a cache without a
        store are rejected, in-process and on workers alike."""
        for workers in (1, 2):
            with pytest.raises(TypeError, match="cache"):
                classify_sequence(clf, seq, mode="fast", cache=True,
                                  workers=workers)
        with pytest.raises(TypeError):
            TemporalCoherenceCache()
        with pytest.raises(TypeError, match="store"):
            TemporalCoherenceCache(store=None)


class TestRenderComposition:
    @pytest.fixture(scope="class")
    def seq(self):
        return _steady_sequence(n_steps=4, shape=(12, 16, 16), seed=9)

    @pytest.fixture(scope="class")
    def tf(self, seq):
        lo, hi = seq.value_range
        return TransferFunction1D((lo, hi)).add_box(lo + 0.3 * (hi - lo), hi, 0.8)

    def test_workers_bit_identical_to_serial(self, seq, tf, tmp_path, metrics):
        cam = Camera(width=20, height=20)
        serial = render_sequence(seq, tf, camera=cam, mode="fast",
                                 cache=tmp_path / "serial")
        metrics.reset()
        fanned = render_sequence(seq, tf, camera=cam, mode="fast",
                                 cache=tmp_path / "cache", workers=2)
        for a, b in zip(serial, fanned):
            assert np.array_equal(a.pixels, b.pixels)
        counters = metrics.counter_values("render.frame_cache.")
        assert counters.get("render.frame_cache.hits", 0) \
            + counters["render.frame_cache.misses"] == len(seq)
        # steady steps share one digest: at most one unique frame misses
        # everywhere, though concurrent workers may each miss it once
        assert counters["render.frame_cache.misses"] >= 1

    def test_warm_replay_all_hits(self, seq, tf, tmp_path, metrics):
        cam = Camera(width=20, height=20)
        cachedir = tmp_path / "cache"
        cold = render_sequence(seq, tf, camera=cam, mode="fast", cache=cachedir,
                               workers=1)
        metrics.reset()
        warm = render_sequence(seq, tf, camera=cam, mode="fast", cache=cachedir,
                               workers=2)
        counters = metrics.counter_values("render.frame_cache.")
        assert counters["render.frame_cache.hits"] == len(seq)
        assert counters.get("render.frame_cache.misses", 0) == 0
        for a, b in zip(cold, warm):
            assert np.array_equal(a.pixels, b.pixels)

    def test_serial_parent_counters_still_total(self, seq, tf, tmp_path, metrics):
        """In-process cached renders count through the same parent-side
        aggregation path (workers never touch the counters)."""
        cam = Camera(width=20, height=20)
        render_sequence(seq, tf, camera=cam, mode="fast", cache=tmp_path / "cache")
        counters = metrics.counter_values("render.frame_cache.")
        assert counters["render.frame_cache.hits"] \
            + counters["render.frame_cache.misses"] == len(seq)
