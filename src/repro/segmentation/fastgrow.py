"""Brick-parallel and sparse connected components and region growing.

The 4D tracking engine (Sec. 5) is, at bottom, connected-component
analysis: growing a seeded region through a boolean criterion selects
exactly the criterion components that contain a seed.  scipy's
``binary_propagation`` and ``label`` are serial, need the whole array
resident, and spend O(total voxels) regardless of how empty the
criterion is.  Neither reaches the ROADMAP's production-scale target on
a long ``[t, z, y, x]`` stack.

Two complementary strategies, selected per call (``strategy="auto"``):

- **bricked** (dense) — the route of FTK-style distributed feature
  tracking (Guo et al., 2020): decompose the domain into bricks, label
  every brick *independently* (optionally fanned out through
  :func:`repro.parallel.executor.map_timesteps`), then resolve
  cross-brick — and, for 4D stacks, cross-timestep — label equivalences
  with a path-compressed union-find over only the brick boundary faces.
  The merge scans each internal boundary plane once per
  structuring-element offset, so its cost is proportional to the brick
  *surface*, not the volume.
- **sparse** — tracking criteria are typically nearly empty (a feature
  occupies a few percent of the domain), so label the criterion's voxel
  *graph* directly: gather the set voxels once, connect them with
  vectorized sorted-index lookups per structuring-element offset, and
  run union-find (``scipy.sparse.csgraph.connected_components``) on that
  graph.  Cost scales with the number of set voxels, not the volume —
  on the tracking benchmark's ~1%-full criteria this is several times
  faster than ``binary_propagation``.

Outputs are exact:

- :func:`grow_bricked` is voxel-identical to
  ``scipy.ndimage.binary_propagation`` (both select the criterion
  components reachable from the seeds);
- :func:`label_bricked` equals scipy's ``label`` up to label numbering,
  and is made bit-deterministic by canonicalizing labels to raster-scan
  first-occurrence order (:func:`canonicalize_labels` maps any labeling
  onto the same canonical form, which the differential tests use to
  compare backends).

Determinism does not depend on the execution schedule: per-brick results
are assembled in submission order and the union-find processes a sorted,
de-duplicated pair list, so the worker count cannot change a single
output voxel.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import csgraph

from repro.obs import get_metrics
from repro.parallel.bricking import axis_chunks
from repro.parallel.executor import map_timesteps
from repro.segmentation.regiongrow import _seeds_to_mask, _structure


class UnionFind:
    """Array-backed disjoint sets with path compression and union by size.

    Element 0 is reserved for background and never merged with anything
    by the callers in this module.
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"UnionFind needs at least one element, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        """Root of ``x``'s set (path-halving compression)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def roots(self) -> np.ndarray:
        """Fully resolved root for every element (vectorized pointer jumping)."""
        root = self.parent.copy()
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                return root
            root = hop


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber a labeling to raster-scan first-occurrence order.

    Two labelings of the same mask that agree up to label permutation map
    to the identical array, which turns "equivalent labelings" into plain
    ``array_equal`` — the property the differential battery asserts
    between the bricked and scipy backends.
    """
    labels = np.asarray(labels)
    flat = labels.ravel()
    nonzero = flat[flat != 0]
    if nonzero.size == 0:
        return labels.astype(np.int32, copy=True)
    uniq, first_index = np.unique(nonzero, return_index=True)
    order = np.argsort(first_index, kind="stable")
    lut = np.zeros(int(uniq.max()) + 1, dtype=np.int32)
    lut[uniq[order]] = np.arange(1, len(uniq) + 1, dtype=np.int32)
    return lut[labels]


# --------------------------------------------------------------------- #
# Brick decomposition (nD)
# --------------------------------------------------------------------- #
def _grid_chunks(shape, brick_shape) -> list[list[tuple[int, int]]]:
    """Per-axis ``(start, stop)`` chunk lists; ``None`` means one brick."""
    if brick_shape is None:
        return [[(0, n)] for n in shape]
    brick_shape = tuple(int(b) for b in np.atleast_1d(np.asarray(brick_shape)))
    if len(brick_shape) != len(shape):
        raise ValueError(
            f"brick_shape must have {len(shape)} axes, got {len(brick_shape)}"
        )
    return [axis_chunks(n, b) for n, b in zip(shape, brick_shape)]


def _label_brick(payload) -> tuple[np.ndarray, int]:
    """Worker: label one brick locally.  Module-level for picklability."""
    sub, connectivity = payload
    labels, count = ndimage.label(sub, structure=_structure(sub.ndim, connectivity))
    return labels.astype(np.int32), int(count)


def _boundary_pairs(labels: np.ndarray, chunks, connectivity: int) -> np.ndarray:
    """Unique cross-boundary label equivalences, ``(n, 2)`` int64.

    For every internal brick boundary along every axis, pair the plane
    just before the boundary with the plane just after it under each
    structuring-element offset that crosses the boundary (+1 along the
    boundary axis, in-plane offsets with at most ``connectivity - 1``
    further nonzero components).  Diagonally adjacent *bricks* need no
    special casing: a corner-crossing voxel pair appears in one of these
    plane scans with a diagonal in-plane offset.
    """
    ndim = labels.ndim
    in_plane = [
        offset
        for offset in itertools.product((-1, 0, 1), repeat=ndim - 1)
        if sum(1 for o in offset if o) <= connectivity - 1
    ]
    collected: list[np.ndarray] = []
    for axis in range(ndim):
        for start, _stop in chunks[axis][1:]:
            plane_a = labels.take(start - 1, axis=axis)
            plane_b = labels.take(start, axis=axis)
            for offset in in_plane:
                sel_a: list[slice] = [slice(None)] * (ndim - 1)
                sel_b: list[slice] = [slice(None)] * (ndim - 1)
                for j, oj in enumerate(offset):
                    if oj == 1:
                        sel_a[j] = slice(None, -1)
                        sel_b[j] = slice(1, None)
                    elif oj == -1:
                        sel_a[j] = slice(1, None)
                        sel_b[j] = slice(None, -1)
                sub_a = plane_a[tuple(sel_a)]
                sub_b = plane_b[tuple(sel_b)]
                touching = (sub_a > 0) & (sub_b > 0)
                if touching.any():
                    collected.append(
                        np.stack([sub_a[touching], sub_b[touching]], axis=1)
                    )
    if not collected:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.concatenate(collected).astype(np.int64), axis=0)


# --------------------------------------------------------------------- #
# Sparse strategy
# --------------------------------------------------------------------- #
#: ``strategy="auto"`` switches to the sparse voxel-graph path when the
#: criterion fill fraction is at or below this (and no parallel fan-out
#: was requested).  Above it, dense per-brick labeling wins because the
#: gather/sort overhead of the sparse path grows with the voxel count.
SPARSE_FILL_MAX = 0.05


def _half_offsets(ndim: int, connectivity: int) -> list[tuple[int, ...]]:
    """Lexicographically-positive half of the structuring-element offsets.

    ``generate_binary_structure(ndim, c)`` connects offsets in
    ``{-1, 0, 1}^ndim`` with Manhattan length ≤ ``c``; adjacency is
    symmetric, so scanning one half of the offsets covers every edge.
    """
    zero = (0,) * ndim
    return [
        off
        for off in itertools.product((-1, 0, 1), repeat=ndim)
        if off > zero and sum(abs(o) for o in off) <= connectivity
    ]


def _sparse_components(mask: np.ndarray, connectivity: int):
    """Connected components of the set voxels only.

    Returns ``(flat, comp, n_comps)``: the sorted raveled indices of the
    set voxels, a component id per set voxel, and the component count.
    Edges are found without touching the full volume: for each
    structuring-element half-offset, the neighbour of every set voxel is
    looked up in the sorted index list with ``searchsorted``.
    """
    shape = mask.shape
    flat = np.flatnonzero(mask.ravel())
    n = flat.size
    if n == 0:
        return flat, np.empty(0, dtype=np.int64), 0
    coords = np.unravel_index(flat, shape)
    strides = [int(np.prod(shape[axis + 1:], dtype=np.int64))
               for axis in range(len(shape))]
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for off in _half_offsets(len(shape), connectivity):
        valid = np.ones(n, dtype=bool)
        delta = 0
        for axis, o in enumerate(off):
            if o == 1:
                valid &= coords[axis] < shape[axis] - 1
            elif o == -1:
                valid &= coords[axis] > 0
            delta += o * strides[axis]
        src = np.nonzero(valid)[0]
        target = flat[src] + delta
        pos = np.searchsorted(flat, target)
        pos_ok = pos < n
        hit = np.zeros(src.size, dtype=bool)
        hit[pos_ok] = flat[pos[pos_ok]] == target[pos_ok]
        rows.append(src[hit])
        cols.append(pos[hit])
    edges = np.concatenate(rows)
    graph = sparse.coo_matrix(
        (np.ones(edges.size, dtype=bool), (edges, np.concatenate(cols))),
        shape=(n, n),
    )
    n_comps, comp = csgraph.connected_components(graph, directed=False)
    return flat, comp, int(n_comps)


def label_sparse(mask, connectivity: int = 1) -> tuple[np.ndarray, int]:
    """Sparse-graph connected-component labeling, canonical numbering.

    Voxel-identical to ``scipy.ndimage.label`` after
    :func:`canonicalize_labels` — the set voxels are visited in raster
    order, so renumbering components by first occurrence reproduces the
    canonical form directly.  Cost scales with the set-voxel count.
    """
    mask = np.asarray(mask, dtype=bool)
    _structure(mask.ndim, connectivity)  # validates connectivity early
    flat, comp, n_comps = _sparse_components(mask, connectivity)
    labels = np.zeros(mask.size, dtype=np.int32)
    if n_comps:
        uniq, first_index = np.unique(comp, return_index=True)
        order = np.argsort(first_index, kind="stable")
        lut = np.empty(n_comps, dtype=np.int32)
        lut[uniq[order]] = np.arange(1, n_comps + 1, dtype=np.int32)
        labels[flat] = lut[comp]
    return labels.reshape(mask.shape), n_comps


def grow_sparse(criterion, seeds, connectivity: int = 1) -> np.ndarray:
    """Sparse seeded region growing: select the seeded voxel-graph components.

    Exact vs ``binary_propagation``; skips canonical renumbering (the
    output is boolean), so it is the cheapest path on near-empty
    criteria.
    """
    criterion = np.asarray(criterion, dtype=bool)
    seed_mask = _seeds_to_mask(seeds, criterion.shape)
    _structure(criterion.ndim, connectivity)
    metrics = get_metrics()
    with metrics.span("fastgrow.sparse_grow", voxels=int(criterion.size)):
        out = np.zeros(criterion.size, dtype=bool)
        stats = {"strategy": "sparse", "bricks": 0, "brick_labels": [],
                 "merge_pairs": 0, "merge_unions": 0, "components": 0,
                 "set_voxels": int(np.count_nonzero(criterion)),
                 "backend": "inline", "workers": 1,
                 "connectivity": int(connectivity)}
        seed_flat = np.flatnonzero((seed_mask & criterion).ravel())
        # No seed survives the criterion: the grown region is empty, so
        # skip the component pass entirely (the streaming tracker hits
        # this whenever a feature dies between steps).
        if seed_flat.size:
            flat, comp, n_comps = _sparse_components(criterion, connectivity)
            stats["components"] = n_comps
            if n_comps:
                pos = np.searchsorted(flat, seed_flat)
                selected = np.zeros(n_comps, dtype=bool)
                selected[comp[pos]] = True
                out[flat[selected[comp]]] = True
        metrics.counter("fastgrow.sparse_grows").inc()
    last_label_stats.clear()
    last_label_stats.update(stats)
    return out.reshape(criterion.shape)


def _pick_strategy(strategy: str, mask: np.ndarray, workers) -> str:
    """Resolve ``"auto"`` to ``"sparse"`` or ``"dense"`` for this call."""
    if strategy not in ("auto", "dense", "sparse"):
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'auto', 'dense' or 'sparse'"
        )
    if strategy != "auto":
        return strategy
    if workers is not None and workers > 1:
        return "dense"  # fan-out requested: bricks are the parallel unit
    if mask.size == 0:
        return "dense"
    fill = np.count_nonzero(mask) / mask.size
    return "sparse" if fill <= SPARSE_FILL_MAX else "dense"


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #
#: Statistics of the most recent :func:`label_bricked` call in this
#: process (per-brick label counts, merge pairs/unions, component count).
#: Mirrors ``DataSpaceClassifier.last_fast_stats`` — cheap introspection
#: for benchmarks and the CLI without threading a stats object through.
last_label_stats: dict = {}


def label_bricked(mask, connectivity: int = 1, brick_shape=None,
                  workers: int | None = None, backend: str = "serial",
                  strategy: str = "auto") -> tuple[np.ndarray, int]:
    """Label connected components by independent bricks + union-find merge.

    Parameters
    ----------
    mask:
        Boolean array of any dimension (3D volumes and 4D ``[t, z, y, x]``
        tracking stacks are the intended shapes).
    connectivity:
        1 = faces … ``ndim`` = full neighbourhood, exactly as
        :func:`repro.segmentation.components.label_components`.
    brick_shape:
        Per-axis interior brick size (``None`` = a single brick).  For a
        4D stack, a leading brick size of 1 decomposes per timestep, so
        the merge resolves cross-timestep equivalences the same way it
        resolves spatial seams.
    workers / backend:
        Fan the per-brick labeling through
        :func:`repro.parallel.executor.map_timesteps` (``backend="serial"``
        labels inline; ``"process"``/``"auto"`` ship bricks to pool
        workers).  Results are schedule-independent.
    strategy:
        ``"auto"`` (default) uses the sparse voxel-graph path
        (:func:`label_sparse`) when the mask fill is at most
        :data:`SPARSE_FILL_MAX` and no fan-out was requested, dense
        bricks otherwise; ``"dense"`` / ``"sparse"`` force a path.  All
        strategies produce the identical canonical labeling.

    Returns
    -------
    ``(labels, count)`` with int32 labels in canonical raster-scan
    first-occurrence order and 0 background.
    """
    mask = np.asarray(mask, dtype=bool)
    structure_check = _structure(mask.ndim, connectivity)  # validates early
    del structure_check
    if _pick_strategy(strategy, mask, workers) == "sparse":
        metrics = get_metrics()
        with metrics.span("fastgrow.label", strategy="sparse",
                          connectivity=int(connectivity)):
            labels, count = label_sparse(mask, connectivity=connectivity)
        last_label_stats.clear()
        last_label_stats.update(
            strategy="sparse", bricks=0, brick_labels=[], merge_pairs=0,
            merge_unions=0, components=count, backend="inline", workers=1,
            connectivity=int(connectivity),
        )
        return labels, count
    chunks = _grid_chunks(mask.shape, brick_shape)
    boxes = list(itertools.product(*chunks))
    metrics = get_metrics()
    metrics.counter("fastgrow.bricks").inc(len(boxes))
    stats: dict = {"strategy": "dense", "bricks": len(boxes),
                   "connectivity": int(connectivity),
                   "backend": "inline", "workers": 1}

    with metrics.span("fastgrow.label", bricks=len(boxes),
                      connectivity=int(connectivity)):
        if len(boxes) == 1:
            local_labels, count = _label_brick((mask, connectivity))
            stats["brick_labels"] = [count]
            labels = canonicalize_labels(local_labels)
            stats.update(merge_pairs=0, merge_unions=0, components=count)
            last_label_stats.clear()
            last_label_stats.update(stats)
            return labels, count

        subs = [mask[tuple(slice(a, b) for a, b in box)] for box in boxes]
        items = [(sub, connectivity) for sub in subs]
        if backend == "serial" and (workers is None or workers <= 1):
            brick_results = [_label_brick(item) for item in items]
        else:
            outcome = map_timesteps(_label_brick, items, workers=workers,
                                    backend=backend)
            brick_results = outcome.results
            stats["backend"] = outcome.backend
            stats["workers"] = outcome.workers

        labels = np.zeros(mask.shape, dtype=np.int32)
        offset = 0
        brick_counts = []
        for box, (sub_labels, count) in zip(boxes, brick_results):
            brick_counts.append(count)
            if count:
                view = labels[tuple(slice(a, b) for a, b in box)]
                np.copyto(view, sub_labels + offset, where=sub_labels > 0)
            offset += count
        stats["brick_labels"] = brick_counts

    with metrics.span("fastgrow.merge", bricks=len(boxes)):
        pairs = _boundary_pairs(labels, chunks, connectivity)
        union_find = UnionFind(offset + 1)
        unions = 0
        for a, b in pairs:
            if union_find.find(int(a)) != union_find.find(int(b)):
                union_find.union(int(a), int(b))
                unions += 1
        metrics.counter("fastgrow.merge_unions").inc(unions)
        root_lut = union_find.roots().astype(np.int64)
        root_lut[0] = 0
        labels = canonicalize_labels(root_lut[labels])
        count = int(labels.max())
    stats.update(merge_pairs=int(len(pairs)), merge_unions=unions,
                 components=count)
    last_label_stats.clear()
    last_label_stats.update(stats)
    return labels, count


def grow_bricked(criterion, seeds, connectivity: int = 1, brick_shape=None,
                 workers: int | None = None, backend: str = "serial",
                 strategy: str = "auto") -> np.ndarray:
    """Brick-parallel seeded region growing, exact vs ``binary_propagation``.

    Growing from seeds through a boolean criterion selects precisely the
    criterion components containing at least one seed, so the labeling
    does the heavy lifting and selection is one lookup-table gather.  On
    near-empty criteria ``strategy="auto"`` labels only the set-voxel
    graph (:func:`grow_sparse`) — cost proportional to the feature, not
    the domain, which is where the tracking throughput benchmark's
    speedup over serial 4D propagation comes from; denser criteria (or
    an explicit ``workers`` fan-out) use per-brick labeling merged by
    union-find.

    Arguments match :func:`repro.segmentation.regiongrow.grow_region`
    plus the bricking/fan-out controls of :func:`label_bricked`.
    """
    criterion = np.asarray(criterion, dtype=bool)
    seed_mask = _seeds_to_mask(seeds, criterion.shape)
    metrics = get_metrics()
    if _pick_strategy(strategy, criterion, workers) == "sparse":
        return grow_sparse(criterion, seed_mask, connectivity=connectivity)
    with metrics.span("fastgrow.grow", voxels=int(criterion.size)):
        labels, count = label_bricked(
            criterion, connectivity=connectivity, brick_shape=brick_shape,
            workers=workers, backend=backend, strategy="dense",
        )
        if count == 0:
            return np.zeros(criterion.shape, dtype=bool)
        seed_labels = np.unique(labels[seed_mask])
        seed_labels = seed_labels[seed_labels > 0]
        selected = np.zeros(count + 1, dtype=bool)
        selected[seed_labels] = True
        return selected[labels]
