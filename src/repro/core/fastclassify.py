"""Fast whole-volume classification (the Sec. 7 hot path, rebuilt).

The reference classification path (:meth:`DataSpaceClassifier.classify`
with ``mode="exact"``) materializes voxel coordinates chunk by chunk, runs
14 clipped flat-index gathers per chunk, double-allocates a descending
sort, standardizes in float64, and forwards through the MLP with per-chunk
temporaries.  The paper times this at 10 s for a 256³ grid; real-time and
in-situ successors (FTK, Yan & Yan) make single-step latency the budget
that matters.  This module makes the intra-step path as fast as numpy
allows, three ideas deep:

1. **Edge-padded strided views.**  The volume is padded once with
   ``np.pad(mode="edge")``; each shell offset then reads as a plain slab
   view of the padded array — no coordinate materialization, no index
   arithmetic, no clipping.  Edge padding replicates the boundary exactly
   as the reference path's ``np.clip`` does, so results match to float32
   rounding everywhere including edges and corners.
2. **Plane-major fused float32 inference.**  A batch of about
   :data:`BATCH_VOXELS` voxels fills a contiguous float32 ``(d, n)``
   buffer, one row per feature (value, each shell offset, z/y/x
   position, time), so every feature write is a contiguous copy from its
   view and one batch's planes (~2.4 MB at 19 features) stay near a
   2 MB L2 cache.  A fixed compare-exchange network
   (:func:`sort_planes`, Batcher's odd-even merge: 53 pairs for 14 shell
   samples, 12 for 6) sorts the shell rows *ascending* with elementwise
   ``np.minimum``/``np.maximum``; the folded first-layer weight columns
   are reversed once so the network still sees its descending training
   order.  The first GEMM reads the planes through their transpose, so
   BLAS multiplies the same ``(n, d) @ (d, h)`` product a row-major
   layout would and the certainties do not depend on the layout or the
   batch cut.  Standardization is folded into the first layer
   (:meth:`NeuralNetwork.fused_layers`), activations run in place, and
   the slab walk and the cached block walk below feed the same kernel.
3. **Temporal-coherence caching.**  Blocks are keyed by content digest of
   their shell-dilated voxels (plus position, grid shape, time feature
   when used, and a digest of the folded weights) in a
   :class:`TemporalCoherenceCache`.  Unchanged bricks across
   re-classification, streaming replay, or consecutive steps (when the
   extractor carries no time feature) skip inference and are copied from
   the cache; hit/miss counts flow to the :mod:`repro.obs` metrics layer.
   The cache sits on a shared on-disk store (``store=``, see
   :mod:`repro.cache.shared`), so the reuse extends across worker
   processes and runs.  Uncached calls walk z-slabs; only the cache
   walks blocks, because it keys them.

The float64 gather path stays available as ``mode="exact"`` — it is the
equivalence reference (max |Δcertainty| ≤ 1e-3, exact 0.5-threshold mask
agreement; see ``tests/test_fastclassify.py`` and
``benchmarks/test_classify_throughput.py``).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.mlp import NeuralNetwork
from repro.parallel.bricking import axis_chunks, content_digest

_SIGMOID_CLIP = 40.0
_BIAS_ROW = 1024   # elements per row of the hidden layer's bias add

BATCH_VOXELS = 1 << 15
"""Voxels per inference batch (a slab of whole z-slices, or packed blocks).

At 19 features the ``(d, n)`` float32 planes take ~2.4 MB and the hidden
layer 2 MB, so a batch is sorted and multiplied while it is still in
cache.  A single z-slice or block larger than this is one batch."""


@functools.cache
def _merge_pairs(n: int) -> tuple:
    """Compare-exchange pairs ``(i, j)``, ``i < j``, of Batcher's odd-even
    merge sort for ``n`` keys (the power-of-two network with every pair
    that touches a key ``>= n`` dropped)."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def sort_planes(planes: np.ndarray, spare: np.ndarray | None = None) -> None:
    """Sort every column of the ``(S, n)`` array ``planes`` ascending, in place.

    Runs Batcher's odd-even merge network over whole rows: each
    compare-exchange is one ``np.minimum`` and one ``np.maximum`` over
    ``n`` contiguous values, so the cost is a fixed number of vector
    passes instead of ``n`` tiny per-row sorts.  For non-NaN input each
    column ends up holding the values ``np.sort(planes, axis=0)`` would.
    ``spare`` is an optional ``(n,)`` scratch row of the same dtype.
    """
    if spare is None:
        spare = np.empty(planes.shape[1], dtype=planes.dtype)
    for i, j in _merge_pairs(len(planes)):
        lo, hi = planes[i], planes[j]
        np.minimum(lo, hi, out=spare)
        np.maximum(lo, hi, out=hi)
        lo[...] = spare


class TemporalCoherenceCache:
    """LRU cache of classified blocks keyed by content + context.

    Keys are built by the fast classifier from the block's shell-dilated
    voxel digest, its grid position, the volume shape, the time feature
    (when the extractor uses one), and a digest of the folded network
    weights — so a hit is only possible when the cached certainty block is
    bit-for-bit what inference would recompute.  Values are float32
    certainty blocks, stored and returned **read-only** (mutating a
    returned block raises instead of silently poisoning every future
    hit).

    ``store`` is the shared backend every cache sits on (anything with
    ``load(key) -> ndarray | None`` and ``save(key, ndarray)``, e.g.
    :class:`repro.cache.shared.SharedArrayCache`): the in-memory LRU is a
    per-process L1 over that cross-process on-disk namespace — puts write
    through, memory misses fall through to the store — which is what lets
    cached classification and rendering run on worker processes.
    ``max_entries`` bounds the L1; least-recently-used entries are
    evicted from memory only.
    """

    def __init__(self, store, max_entries: int = 4096) -> None:
        if store is None:
            raise TypeError("TemporalCoherenceCache needs a store, e.g. "
                            "SharedArrayCache(root)")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.store = store
        self._store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def _insert(self, key, value: np.ndarray) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def get(self, key):
        """Cached block for ``key``, or ``None`` (counts hit/miss)."""
        try:
            value = self._store[key]
        except KeyError:
            value = self.store.load(key)
            if value is None:
                self.misses += 1
                return None
            self._insert(key, value)
            self.hits += 1
            return value
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value: np.ndarray) -> None:
        """Store a classified block, evicting LRU entries past the cap.

        The stored array is frozen (``flags.writeable = False``); views
        are copied first so the freeze cannot be bypassed through a
        writable base.
        """
        value = np.asarray(value)
        if value.base is not None:
            value = value.copy()
        value.flags.writeable = False
        self._insert(key, value)
        self.store.save(key, value)

    def clear(self) -> None:
        """Drop all in-memory entries (hit/miss statistics are kept)."""
        self._store.clear()

    def worker_clone(self) -> "TemporalCoherenceCache":
        """An empty cache over the same shared store.

        Process fan-out gives each task payload one of these: the L1
        starts cold (nothing rides the pickle) and all cross-step reuse
        flows through the shared store, whose hit/miss tallies return on
        the task result.
        """
        return TemporalCoherenceCache(self.store, max_entries=self.max_entries)


@dataclass
class _Layout:
    """Resolved feature layout and padded views for one volume."""

    fields: list          # one float32 (nz, ny, nx) array per variable
    padded: list          # edge-padded copies, one per field
    views: list           # per field: list of shifted slab views (one per offset)
    n_shell: int
    sort_shell: bool
    pos_col: int | None   # feature row of pos_z, or None
    time_col: int | None  # feature row of the time feature, or None
    n_features: int
    pad: int              # padding width (max |offset| component)
    znorm: np.ndarray = field(default=None)  # type: ignore[assignment]
    ynorm: np.ndarray = field(default=None)  # type: ignore[assignment]
    xnorm: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def block_width(self) -> int:
        """Feature rows per field: value + shell samples."""
        return 1 + self.n_shell

    def shell_rows(self) -> list:
        """Row slices of each field's shell samples (empty if unsorted)."""
        if not self.sort_shell:
            return []
        return [slice(c0, c0 + self.n_shell)
                for c0 in range(1, len(self.fields) * self.block_width,
                                self.block_width)]


class _FusedNet:
    """Float32 inference kernel over plane-major batches.

    Holds the folded weights and the scratch of one batch of up to
    ``capacity`` voxels: the ``(d, capacity)`` feature planes, the hidden
    layer and a spare row for the sorting network.
    """

    def __init__(self, net: NeuralNetwork, layout: _Layout, capacity: int) -> None:
        w1, b1, w2, b2 = net.fused_layers(dtype=np.float32)
        self.shell_rows = layout.shell_rows()
        for rows in self.shell_rows:
            # The planes hold shells sorted *ascending*; reversing the
            # corresponding weight columns feeds the network the
            # descending order it was trained with, for free.
            w1[:, rows] = w1[:, rows][:, ::-1]
        self.w1t = np.ascontiguousarray(w1.T)
        self.b1 = b1
        # b1 repeated across one long row: the bias add then runs over
        # the flat hidden layer in rows of _BIAS_ROW elements, not in
        # numpy's n_hidden-long broadcast inner loop.
        self._b1_row = np.tile(b1, max(1, _BIAS_ROW // b1.size))
        self.w2t = np.ascontiguousarray(w2.T)
        self.b2 = b2
        self.n_hidden = w1.shape[0]
        self.n_features = layout.n_features
        self._planes = np.empty(self.n_features * capacity, dtype=np.float32)
        self._hidden = np.empty((capacity, self.n_hidden), dtype=np.float32)
        self._spare = np.empty(capacity, dtype=np.float32)

    def planes(self, n: int) -> np.ndarray:
        """The contiguous ``(d, n)`` feature planes of an ``n``-voxel batch.

        Always a prefix of one buffer, never a column slice of it: a
        transposed view with a longer row stride would slow the GEMM.
        """
        return self._planes[: self.n_features * n].reshape(self.n_features, n)

    def predict_into(self, X: np.ndarray, out: np.ndarray) -> None:
        """Certainties for the ``(d, n)`` planes ``X`` into ``out`` (float32).

        Sorts the shell rows in place, then runs both layers; tanh and
        sigmoid run in place, so the only allocation per call is the
        tiny ``(n, 1)`` output-layer product.
        """
        n = X.shape[1]
        for rows in self.shell_rows:
            sort_planes(X[rows], self._spare[:n])
        h = self._hidden[:n]
        np.dot(X.T, self.w1t, out=h)
        width = self._b1_row.size
        full = h.size // width
        rows = h.reshape(-1)[: full * width].reshape(full, width)
        rows += self._b1_row
        h[full * width // self.n_hidden :] += self.b1
        np.tanh(h, out=h)
        z = h @ self.w2t
        z += self.b2
        np.clip(z, -_SIGMOID_CLIP, _SIGMOID_CLIP, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
        out[:] = z[:, 0]

    def weights_digest(self) -> str:
        """Content digest of the folded weights (cache-key component)."""
        return content_digest(self.w1t, self.b1, self.w2t, self.b2)


class FastVolumeClassifier:
    """Whole-volume certainty fields via padded views + fused inference.

    Parameters
    ----------
    extractor:
        A :class:`~repro.core.dataspace.ShellFeatureExtractor` or
        :class:`~repro.core.dataspace.MultivariateShellExtractor`.
    net:
        A *trained* :class:`NeuralNetwork` (standardization statistics are
        folded into the first layer, so they must exist).
    block_shape:
        Block granularity of the temporal cache.
    """

    def __init__(self, extractor, net: NeuralNetwork,
                 block_shape=(32, 32, 32)) -> None:
        if net.n_inputs != extractor.n_features:
            raise ValueError(
                f"network expects {net.n_inputs} inputs but the extractor "
                f"produces {extractor.n_features} features"
            )
        if not net.is_fitted:
            raise ValueError("fast path needs a trained network "
                             "(no standardization statistics to fold)")
        self.extractor = extractor
        self.net = net
        self.block_shape = tuple(int(b) for b in block_shape)
        if any(b < 1 for b in self.block_shape) or len(self.block_shape) != 3:
            raise ValueError(f"block_shape must be 3 positive ints, got {block_shape}")
        self.last_stats: dict = {}

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @staticmethod
    def _layout(ex, volume) -> _Layout:
        from repro.core.dataspace import MultivariateShellExtractor
        from repro.volume.grid import Volume

        if isinstance(ex, MultivariateShellExtractor):
            fields = [volume.field(name) for name in ex.field_names_used]
        else:
            data = volume.data if isinstance(volume, Volume) else (
                np.ascontiguousarray(volume, dtype=np.float32))
            fields = [data]
        offsets = ex.offsets
        pad = int(np.abs(offsets).max())
        nz, ny, nx = fields[0].shape
        padded, views = [], []
        for data in fields:
            p = np.pad(data, pad, mode="edge")
            padded.append(p)
            views.append([
                p[pad + dz : pad + dz + nz,
                  pad + dy : pad + dy + ny,
                  pad + dx : pad + dx + nx]
                for dz, dy, dx in offsets
            ])
        n_shell = len(offsets)
        n_fields = len(fields)
        col = n_fields * (1 + n_shell)
        pos_col = col if ex.include_position else None
        col += 3 * ex.include_position
        time_col = col if ex.include_time else None
        layout = _Layout(
            fields=fields, padded=padded, views=views, n_shell=n_shell,
            sort_shell=ex.sort_shell, pos_col=pos_col, time_col=time_col,
            n_features=ex.n_features, pad=pad,
        )
        layout.znorm = (np.arange(nz) / max(nz - 1, 1)).astype(np.float32)
        layout.ynorm = (np.arange(ny) / max(ny - 1, 1)).astype(np.float32)
        layout.xnorm = (np.arange(nx) / max(nx - 1, 1)).astype(np.float32)
        return layout

    @staticmethod
    def _fill(layout: _Layout, X: np.ndarray, col: int, box, time: float) -> int:
        """Write one box's features into columns ``col:`` of the planes ``X``.

        Each feature is a contiguous copy from its padded view into its
        own row; shells stay unsorted (the kernel sorts whole batches).
        Returns the box's voxel count.
        """
        z0, z1, y0, y1, x0, x1 = box
        shape = (z1 - z0, y1 - y0, x1 - x0)
        n = shape[0] * shape[1] * shape[2]
        planes = X[:, col : col + n]

        def plane(row: int) -> np.ndarray:
            return planes[row].reshape(shape)

        row = 0
        for data, views in zip(layout.fields, layout.views):
            plane(row)[...] = data[z0:z1, y0:y1, x0:x1]
            for k, v in enumerate(views):
                plane(row + 1 + k)[...] = v[z0:z1, y0:y1, x0:x1]
            row += layout.block_width
        if layout.pos_col is not None:
            plane(layout.pos_col)[...] = layout.znorm[z0:z1, None, None]
            plane(layout.pos_col + 1)[...] = layout.ynorm[y0:y1, None]
            plane(layout.pos_col + 2)[...] = layout.xnorm[x0:x1]
        if layout.time_col is not None:
            planes[layout.time_col] = np.float32(time)
        return n

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def classify(self, volume, time: float = 0.0,
                 cache: TemporalCoherenceCache | None = None) -> np.ndarray:
        """Float32 certainty field for a whole volume.

        ``cache`` enables content-keyed block reuse.  Per-call statistics
        land in :attr:`last_stats` and the :mod:`repro.obs` counters.
        """
        layout = self._layout(self.extractor, volume)
        nz, ny, nx = layout.fields[0].shape
        out = np.empty((nz, ny, nx), dtype=np.float32)
        stats = {"voxels": nz * ny * nx, "blocks_total": 0,
                 "cache_hits": 0, "cache_misses": 0}
        if cache is not None:
            self._classify_blocks(layout, out, time, cache, stats)
        else:
            self._classify_slabs(layout, out, time)
        self.last_stats = stats
        return out

    def _classify_slabs(self, layout: _Layout, out: np.ndarray,
                        time: float) -> None:
        """Classify z-slabs of about :data:`BATCH_VOXELS` (at least one slice)."""
        nz, ny, nx = out.shape
        tz = max(1, min(nz, BATCH_VOXELS // (ny * nx)))
        fused = _FusedNet(self.net, layout, tz * ny * nx)
        flat = out.reshape(-1)
        for z0 in range(0, nz, tz):
            z1 = min(z0 + tz, nz)
            X = fused.planes((z1 - z0) * ny * nx)
            self._fill(layout, X, 0, (z0, z1, 0, ny, 0, nx), time)
            fused.predict_into(X, flat[z0 * ny * nx : z1 * ny * nx])

    def _classify_blocks(self, layout: _Layout, out: np.ndarray, time: float,
                         cache: TemporalCoherenceCache, stats: dict) -> None:
        """Replay cached blocks and pack the rest into batches of about
        :data:`BATCH_VOXELS` for the kernel."""
        nz, ny, nx = out.shape
        bz, by, bx = self.block_shape
        capacity = max(BATCH_VOXELS, min(bz, nz) * min(by, ny) * min(bx, nx))
        fused = _FusedNet(self.net, layout, capacity)
        certs = np.empty(capacity, dtype=np.float32)
        p = layout.pad
        wdigest = fused.weights_digest()
        signature = self._cache_signature()
        tkey = float(time) if layout.time_col is not None else None
        batch: list = []      # (box, cache key) of blocks awaiting inference
        batched = 0           # their voxel count

        def infer() -> None:
            X = fused.planes(batched)
            col = 0
            for box, _ in batch:
                col += self._fill(layout, X, col, box, time)
            fused.predict_into(X, certs[:batched])
            col = 0
            for (z0, z1, y0, y1, x0, x1), key in batch:
                shape = (z1 - z0, y1 - y0, x1 - x0)
                n = shape[0] * shape[1] * shape[2]
                block = certs[col : col + n].reshape(shape)
                out[z0:z1, y0:y1, x0:x1] = block
                cache.put(key, block)
                col += n

        for z0, z1 in axis_chunks(nz, bz):
            for y0, y1 in axis_chunks(ny, by):
                for x0, x1 in axis_chunks(nx, bx):
                    stats["blocks_total"] += 1
                    digest = content_digest(*[
                        padded[z0 : z1 + 2 * p, y0 : y1 + 2 * p, x0 : x1 + 2 * p]
                        for padded in layout.padded
                    ])
                    key = (signature, (nz, ny, nx), (z0, y0, x0),
                           tkey, wdigest, digest)
                    hit = cache.get(key)
                    if hit is not None:
                        out[z0:z1, y0:y1, x0:x1] = hit
                        stats["cache_hits"] += 1
                        continue
                    stats["cache_misses"] += 1
                    n = (z1 - z0) * (y1 - y0) * (x1 - x0)
                    if batched + n > capacity:
                        infer()
                        batch, batched = [], 0
                    batch.append(((z0, z1, y0, y1, x0, x1), key))
                    batched += n
        if batch:
            infer()

    def _cache_signature(self) -> tuple:
        ex = self.extractor
        return (
            type(ex).__name__,
            getattr(ex, "radius", None),
            getattr(ex, "directions_name", None),
            ex.include_position,
            ex.include_time,
            ex.sort_shell,
            tuple(getattr(ex, "field_names_used", ()) or ()),
        )


def fast_feature_matrix(extractor, volume, time: float = 0.0) -> np.ndarray:
    """Whole-volume feature rows via padded views, in canonical order.

    Returns the float32 ``(n_voxels, n_features)`` matrix whose transpose
    is the planes the kernel multiplies (filled and network-sorted the
    same way), but with shell columns in the extractor's canonical
    *descending* order — element-for-element what
    ``extractor.features_at`` produces (cast to float32) for every voxel,
    including edges and corners.  Exists for the boundary-correctness
    property tests; the classifier itself never materializes this.
    """
    layout = FastVolumeClassifier._layout(extractor, volume)
    nz, ny, nx = layout.fields[0].shape
    X = np.empty((layout.n_features, nz * ny * nx), dtype=np.float32)
    FastVolumeClassifier._fill(layout, X, 0, (0, nz, 0, ny, 0, nx), time)
    for rows in layout.shell_rows():
        sort_planes(X[rows])
        X[rows] = X[rows][::-1]
    return np.ascontiguousarray(X.T)
