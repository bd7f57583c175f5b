"""The fast classification path: correctness against the float64 reference.

Four properties are on trial:

1. **Padded-view extraction is exact** — the edge-padded strided views
   must reproduce ``features_at``'s clipped gathers element-for-element,
   including at volume edges and corners, for every radius and direction
   set, for both extractor families.
2. **Fused float32 inference tracks the exact path** — |Δcertainty| stays
   ≤ 1e-3 across every synthetic generator.
3. **The temporal cache only returns what inference would compute** —
   hits replay bit-for-bit, context changes (weights, time feature) miss,
   and hit/miss counts surface through the obs layer.
4. **The plane-major kernel is the row-major formula, bit for bit** —
   the sorting network sorts like ``np.sort``, and whatever the walk,
   block size or batch cut, every certainty equals one row-major GEMM
   over the whole volume's feature rows.

The per-shell fused RGBA sampler of :mod:`repro.render.raycast` is
verified against ``map_coordinates`` here too (same PR, same
"fused gather must match the reference" obligation).
"""

import json

import numpy as np
import pytest
from scipy import ndimage

from repro.cache import SharedArrayCache
from repro.core import (
    DataSpaceClassifier,
    FastVolumeClassifier,
    MultivariateShellExtractor,
    ShellFeatureExtractor,
    TemporalCoherenceCache,
    classify_sequence,
    fast_feature_matrix,
)
from repro.core.fastclassify import (
    BATCH_VOXELS,
    _FusedNet,
    _merge_pairs,
    sort_planes,
)
from repro.core.mlp import NeuralNetwork
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.render.raycast import _sample_channels
from repro.volume.grid import Volume, VolumeSequence
from repro.volume.multivariate import MultiVolume

GENERATOR_FIXTURES = ["argon_small", "combustion_small", "cosmology_small",
                      "vortex_small", "fast_vortex_small", "swirl_small"]


def _all_coords(shape):
    return np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape),
                    axis=1)


def _paint_masks(vol, rng, pos_pct=99.0, neg_pct=60.0):
    """Oracle paint strokes: brightest voxels positive, dim sample negative."""
    data = vol.data
    pos = data > np.percentile(data, pos_pct)
    neg = (data < np.percentile(data, neg_pct)) & (rng.random(data.shape) < 0.01)
    return pos, neg


def _train_classifier(vol, radius=2, seed=5, epochs=120, **extractor_kwargs):
    clf = DataSpaceClassifier(
        ShellFeatureExtractor(radius=radius, **extractor_kwargs), seed=seed)
    pos, neg = _paint_masks(vol, np.random.default_rng(seed))
    clf.add_examples(vol, positive_mask=pos, negative_mask=neg)
    clf.train(epochs=epochs)
    return clf


@pytest.fixture(scope="module")
def trained_cosmology(cosmology_small):
    return _train_classifier(cosmology_small[0])


# --------------------------------------------------------------------- #
# 1. Padded-view extraction == features_at, everywhere
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("directions", ["faces", "faces+corners"])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_padded_views_match_features_at(radius, directions):
    """Edge padding must equal the reference path's np.clip clamping at
    every voxel — edges and corners of a non-cubic grid included."""
    rng = np.random.default_rng(radius * 10 + len(directions))
    vol = Volume(rng.random((9, 8, 7)).astype(np.float32), time=42)
    ex = ShellFeatureExtractor(radius=radius, directions=directions)
    ref = ex.features_at(vol, _all_coords(vol.shape), time=42.0).astype(np.float32)
    fast = fast_feature_matrix(ex, vol, time=42.0)
    assert np.array_equal(ref, fast)


@pytest.mark.parametrize("include_position,include_time,sort_shell",
                         [(False, False, True), (True, False, False),
                          (False, True, True)])
def test_padded_views_match_feature_flags(include_position, include_time,
                                          sort_shell):
    rng = np.random.default_rng(3)
    vol = Volume(rng.random((6, 7, 8)).astype(np.float32), time=9)
    ex = ShellFeatureExtractor(radius=2, include_position=include_position,
                               include_time=include_time, sort_shell=sort_shell)
    ref = ex.features_at(vol, _all_coords(vol.shape), time=9.0).astype(np.float32)
    assert np.array_equal(ref, fast_feature_matrix(ex, vol, time=9.0))


def test_multivariate_padded_views_match():
    rng = np.random.default_rng(8)
    mv = MultiVolume({"a": rng.random((7, 6, 9)).astype(np.float32),
                      "b": rng.random((7, 6, 9)).astype(np.float32)}, time=3)
    ex = MultivariateShellExtractor(["a", "b"], radius=2)
    ref = ex.features_at(mv, _all_coords(mv.shape), time=3.0).astype(np.float32)
    assert np.array_equal(ref, fast_feature_matrix(ex, mv, time=3.0))


def test_features_at_shell_is_descending():
    """Satellite regression: the in-place-sort + reversed-view rewrite must
    still hand the network descending shell samples."""
    rng = np.random.default_rng(0)
    vol = Volume(rng.random((8, 8, 8)).astype(np.float32))
    ex = ShellFeatureExtractor(radius=2)
    feats = ex.features_at(vol, _all_coords(vol.shape))
    shell = feats[:, 1 : 1 + ex.n_shell]
    assert (np.diff(shell, axis=1) <= 0).all()
    unsorted = ShellFeatureExtractor(radius=2, sort_shell=False)
    raw = unsorted.features_at(vol, _all_coords(vol.shape))[:, 1 : 1 + ex.n_shell]
    assert np.array_equal(shell, -np.sort(-raw, axis=1))


# --------------------------------------------------------------------- #
# 2. Fused inference tracks the exact path on every generator
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture", GENERATOR_FIXTURES)
def test_fast_matches_exact_on_generators(fixture, request):
    sequence = request.getfixturevalue(fixture)
    clf = _train_classifier(sequence[0], epochs=80)
    for step, vol in enumerate(sequence):
        exact = clf.classify(vol, mode="exact")
        fast = clf.classify(vol, mode="fast")
        assert fast.dtype == np.float32
        if step == 0:
            assert float(np.abs(fast - exact).max()) <= 1e-3
        assert np.array_equal(fast > 0.5, exact > 0.5), f"step {vol.time}"


def test_multivariate_composes_with_fast_path():
    rng = np.random.default_rng(5)
    fields = {"a": rng.random((16, 16, 16)).astype(np.float32),
              "b": rng.random((16, 16, 16)).astype(np.float32)}
    mv = MultiVolume(fields, time=2)
    clf = DataSpaceClassifier(MultivariateShellExtractor(["a", "b"], radius=2),
                              seed=4)
    pos = (fields["a"] > 0.9) & (fields["b"] > 0.5)
    neg = (fields["a"] < 0.5) & (rng.random(fields["a"].shape) < 0.05)
    clf.add_examples(mv, positive_mask=pos, negative_mask=neg)
    clf.train(epochs=80)
    exact = clf.classify(mv, mode="exact")
    fast = clf.classify(mv, mode="fast")
    assert float(np.abs(fast - exact).max()) <= 1e-3


def test_auto_mode_and_gating(tmp_path):
    rng = np.random.default_rng(2)
    vol = Volume(rng.random((12, 12, 12)).astype(np.float32))
    clf = DataSpaceClassifier(ShellFeatureExtractor(radius=1), engine="svm")
    pos, neg = _paint_masks(vol, rng)
    clf.add_examples(vol, positive_mask=pos, negative_mask=neg)
    clf.train()
    ok, reason = clf.supports_fast_path()
    assert not ok and "neural network" in reason
    with pytest.raises(ValueError, match="fast classification path unavailable"):
        clf.classify(vol, mode="fast")
    # auto degrades to the exact path instead of raising
    assert clf.classify(vol, mode="auto").shape == vol.shape

    untrained = DataSpaceClassifier(ShellFeatureExtractor(radius=1))
    ok, reason = untrained.supports_fast_path()
    assert not ok and "untrained" in reason
    with pytest.raises(ValueError):
        untrained.classify(vol, mode="fast")

    trained = _train_classifier(vol, radius=1, epochs=30)
    cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
    with pytest.raises(ValueError, match="requires the fast"):
        trained.classify(vol, mode="exact", cache=cache)
    with pytest.raises(ValueError, match="unknown mode"):
        trained.classify(vol, mode="warp")


# --------------------------------------------------------------------- #
# 3. Temporal-coherence cache
# --------------------------------------------------------------------- #
def test_cache_replay_is_bitwise(trained_cosmology, cosmology_small, tmp_path):
    clf = trained_cosmology
    vol = cosmology_small[0]
    fast = FastVolumeClassifier(clf.extractor, clf.engine.net, block_shape=(16, 16, 16))
    cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
    first = fast.classify(vol, time=float(vol.time), cache=cache)
    assert cache.hits == 0 and cache.misses == fast.last_stats["blocks_total"]
    second = fast.classify(vol, time=float(vol.time), cache=cache)
    assert cache.hits == fast.last_stats["blocks_total"]
    assert np.array_equal(first, second)
    # and the cache replay equals a cacheless fast run bit-for-bit
    assert np.array_equal(second, clf.classify(vol, mode="fast"))


def test_cache_misses_when_context_changes(cosmology_small, tmp_path):
    vol = cosmology_small[0]
    clf = _train_classifier(vol)  # include_time=True by default
    cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
    clf.classify(vol, mode="fast", cache=cache, time=130.0)
    hits_before = cache.hits
    # same voxels, different time feature: every block must miss
    clf.classify(vol, mode="fast", cache=cache, time=250.0)
    assert cache.hits == hits_before
    # retrained weights: every block must miss too
    clf2 = _train_classifier(vol, seed=99)
    clf2.classify(vol, mode="fast", cache=cache, time=130.0)
    assert cache.hits == hits_before


def test_cache_lru_eviction(tmp_path):
    """``max_entries`` bounds the in-memory L1; an evicted block still
    reads back through the store."""
    store = SharedArrayCache(tmp_path)
    cache = TemporalCoherenceCache(store=store, max_entries=2)
    for i, key in enumerate("abc"):
        cache.put(key, np.full(1, i, dtype=np.float32))
    assert len(cache) == 2                  # "a" evicted from memory
    assert cache.get("a")[0] == 0           # ... reread from the store
    assert len(cache) == 2
    with pytest.raises(ValueError):
        TemporalCoherenceCache(store=store, max_entries=0)


def test_classify_sequence_temporal_cache(tmp_path):
    """Replayed steady bricks across steps hit the cache, the counters
    surface through the obs sink, and a path spec gets a fresh cache."""
    rng = np.random.default_rng(6)
    base = rng.random((16, 16, 16)).astype(np.float32)
    # Steps share identical voxels (a steady region between outputs —
    # the temporal-coherence case); the extractor carries no time
    # feature, so the brick keys match across steps.
    seq = VolumeSequence([Volume(base.copy(), time=t) for t in (0, 1, 2)])
    clf = DataSpaceClassifier(
        ShellFeatureExtractor(radius=2, include_time=False), seed=3)
    pos, neg = _paint_masks(seq[0], rng)
    clf.add_examples(seq[0], positive_mask=pos, negative_mask=neg)
    clf.train(epochs=60)

    metrics = get_metrics()
    metrics.reset()
    sink = tmp_path / "trace.jsonl"
    metrics.configure_sink(sink)
    try:
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path / "cache"))
        results = classify_sequence(clf, seq, mode="fast", cache=cache)
        assert cache.hits >= 1  # steps 2 and 3 replay step 1's bricks
        counters = metrics.counter_values("classify.")
        assert counters["classify.cache_hits"] == cache.hits
        assert counters["classify.cache_misses"] == cache.misses
        assert counters["classify.voxels"] == 3 * base.size
        for a, b in zip(results[1:], results[:-1]):
            assert np.array_equal(a, b)
        spans = [json.loads(line) for line in sink.read_text().splitlines()]
        classify_spans = [s for s in spans if s["name"] == "dataspace.classify"]
        assert len(classify_spans) == 3
        assert sum(s["attrs"]["cache_hits"] for s in classify_spans) == cache.hits
        assert all(s["attrs"]["cached"] for s in classify_spans)
    finally:
        metrics.configure_sink(None)
        metrics.reset()

    # a directory path builds a fresh store-backed cache internally
    fresh = classify_sequence(clf, seq, mode="fast", cache=tmp_path / "fresh")
    assert all(np.array_equal(r, results[0]) for r in fresh)


# --------------------------------------------------------------------- #
# 4. Plane-major kernel == row-major formula
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_keys,n_pairs", [(6, 12), (14, 53)])
def test_network_sorts_every_binary_vector(n_keys, n_pairs):
    """The 0-1 principle: a comparator network that sorts every 0/1
    input sorts every input."""
    assert len(_merge_pairs(n_keys)) == n_pairs
    codes = np.arange(1 << n_keys)
    planes = ((codes >> np.arange(n_keys)[:, None]) & 1).astype(np.float32)
    expected = np.sort(planes, axis=0)
    sort_planes(planes)
    assert np.array_equal(planes, expected)


@pytest.mark.parametrize("n_keys", [1, 2, 3, 6, 14])
def test_network_matches_np_sort_on_ties_zeros_and_infs(n_keys):
    rng = np.random.default_rng(n_keys)
    pool = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 1e-30, 1.0, 3.25, np.inf],
                    dtype=np.float32)
    planes = pool[rng.integers(0, len(pool), size=(n_keys, 4000))]
    planes[:, :50] = rng.random((n_keys, 50), dtype=np.float32)
    expected = np.sort(planes, axis=0)
    sort_planes(planes)
    assert np.array_equal(planes, expected)


def _row_major_oracle(clf, vol, time):
    """Certainties by the row-major formula: feature rows with ascending
    shells times the folded ``w1t`` with reversed shell columns, tanh,
    times ``w2t``, then the clipped sigmoid, in one GEMM per layer."""
    ex = clf.extractor
    X = fast_feature_matrix(ex, vol, time=time)
    w1, b1, w2, b2 = clf.engine.net.fused_layers(dtype=np.float32)
    if ex.sort_shell:
        n_fields = len(getattr(ex, "field_names_used", None) or [None])
        for f in range(n_fields):
            shell = slice(f * (1 + ex.n_shell) + 1, (f + 1) * (1 + ex.n_shell))
            X[:, shell] = X[:, shell][:, ::-1]
            w1[:, shell] = w1[:, shell][:, ::-1]
    h = np.dot(X, np.ascontiguousarray(w1.T))
    h += b1
    np.tanh(h, out=h)
    z = h @ np.ascontiguousarray(w2.T)
    z += b2
    np.clip(z, -40.0, 40.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    return z[:, 0].reshape(vol.shape)


def _assert_walks_match_oracle(clf, vol, tmp_path, block_sizes=(12, 16, 32)):
    """Slab walk and cached block walk (cold and warm) against the oracle."""
    t = float(vol.time)
    oracle = _row_major_oracle(clf, vol, t)
    assert np.array_equal(clf.classify(vol, mode="fast"), oracle)
    for b in block_sizes:
        fast = FastVolumeClassifier(clf.extractor, clf.engine.net, block_shape=(b, b, b))
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path / f"c{b}"))
        for _ in range(2):
            assert np.array_equal(fast.classify(vol, time=t, cache=cache), oracle)
        assert cache.hits == fast.last_stats["blocks_total"]


@pytest.mark.parametrize("fixture", GENERATOR_FIXTURES)
def test_kernel_matches_row_major_oracle_on_generators(fixture, request, tmp_path):
    """Bit for bit, which relies on BLAS computing each row of a product
    in the same order whatever the operand layout and row count (true of
    OpenBLAS)."""
    sequence = request.getfixturevalue(fixture)
    clf = _train_classifier(sequence[0], epochs=40)
    _assert_walks_match_oracle(clf, sequence[-1], tmp_path)


@pytest.mark.parametrize("shape,blocks,wide", [
    ((9, 8, 7), (2, 3, 4), False),
    # One z-slice holds more voxels than a batch: slabs of one slice,
    # many blocks to a batch, blocks larger than a batch, one whole block.
    ((3, 190, 180), (16, 128, 190), True),
])
def test_kernel_matches_row_major_oracle_on_odd_grids(shape, blocks, wide, tmp_path):
    assert (shape[1] * shape[2] > BATCH_VOXELS) == wide
    rng = np.random.default_rng(17)
    vol = Volume(rng.random(shape, dtype=np.float32), time=5)
    clf = _train_classifier(vol, epochs=20)
    _assert_walks_match_oracle(clf, vol, tmp_path, block_sizes=blocks)


def test_weights_digest_is_unchanged():
    """Cache keys carry the folded weights' digest: it stays the digest of
    the row-major ``w1t``, so warm shared caches keep hitting."""
    ex = ShellFeatureExtractor(radius=2)
    net = NeuralNetwork(ex.n_features, n_hidden=16, seed=3)
    net._mean = np.zeros(ex.n_features)
    net._std = 2.0 ** np.arange(ex.n_features) / 64
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    fused = _FusedNet(net, FastVolumeClassifier._layout(ex, vol), 64)
    assert fused.weights_digest() == "30087e6f9067dee657d6553eac98a471"
    w1, b1, w2, b2 = net.fused_layers(dtype=np.float32)
    w1[:, 1:15] = w1[:, 1:15][:, ::-1]
    assert fused.weights_digest() == content_digest(
        np.ascontiguousarray(w1.T), b1, np.ascontiguousarray(w2.T), b2)


# --------------------------------------------------------------------- #
# Fused RGBA sampler (render fast path, same PR)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_channels", [3, 4])
def test_sample_channels_matches_map_coordinates(n_channels):
    rng = np.random.default_rng(11)
    stack = rng.random((9, 11, 7, n_channels)).astype(np.float32)
    coords = np.concatenate([
        rng.uniform(-2.0, 13.0, size=(400, 3)),       # includes out-of-bounds
        np.array([[0.0, 0.0, 0.0], [8.0, 10.0, 6.0],  # exact corners
                  [8.0, 0.0, 6.0], [4.0, 10.0, 3.0],
                  [-1e-9, 0.0, 0.0], [8.0, 10.0, 6.0 + 1e-7]]),
    ])
    ref = np.stack([
        ndimage.map_coordinates(np.ascontiguousarray(stack[..., c]), coords.T,
                                order=1, mode="constant", cval=0.0,
                                prefilter=False)
        for c in range(n_channels)
    ], axis=-1)
    got = _sample_channels(stack, coords)
    assert got.shape == (len(coords), n_channels)
    assert np.allclose(ref, got, atol=1e-6)
