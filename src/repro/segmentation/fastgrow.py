"""Dense and sparse connected components and region growing.

The 4D tracking engine (Sec. 5) is, at bottom, connected-component
analysis: growing a seeded region through a boolean criterion selects
exactly the criterion components that contain a seed.  scipy's
``binary_propagation`` and ``label`` need the whole array resident and
spend O(total voxels) regardless of how empty the criterion is.

Two complementary strategies, selected per call (``strategy="auto"``):

- **dense** — one ``scipy.ndimage.label`` pass over the whole array,
  then a lookup-table select of the seeded labels.
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
- :func:`label_sparse` equals scipy's ``label`` exactly, numbering
  included: both number components in raster-scan first-occurrence
  order.  :func:`repro.segmentation.components.label_components`, the
  one labeler, picks between it and one dense pass by the mask's fill.

Work inside one step stays in one process: a sequence parallelizes per
time step (paper Sec. 8), through :mod:`repro.parallel.executor`.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import csgraph

from repro.obs import get_metrics
from repro.segmentation.regiongrow import _seeds_to_mask, _structure


# --------------------------------------------------------------------- #
# Sparse strategy
# --------------------------------------------------------------------- #
#: ``strategy="auto"`` switches to the sparse voxel-graph path when the
#: criterion fill fraction is at or below this.  Above it, one dense
#: labeling pass wins because the gather/sort overhead of the sparse path
#: grows with the voxel count.
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
    """Sparse-graph connected-component labeling, in scipy's numbering.

    Equal to ``scipy.ndimage.label`` label for label: the set voxels are
    visited in raster order, so numbering components by first occurrence
    reproduces scipy's raster-scan numbering.  Cost scales with the
    set-voxel count.  Records the call in :data:`last_label_stats`.
    """
    mask = np.asarray(mask, dtype=bool)
    _structure(mask.ndim, connectivity)  # validates connectivity early
    with get_metrics().span("fastgrow.label", strategy="sparse",
                            connectivity=int(connectivity)):
        flat, comp, n_comps = _sparse_components(mask, connectivity)
        labels = np.zeros(mask.size, dtype=np.int32)
        if n_comps:
            uniq, first_index = np.unique(comp, return_index=True)
            order = np.argsort(first_index, kind="stable")
            lut = np.empty(n_comps, dtype=np.int32)
            lut[uniq[order]] = np.arange(1, n_comps + 1, dtype=np.int32)
            labels[flat] = lut[comp]
    _record_stats("sparse", n_comps, connectivity)
    return labels.reshape(mask.shape), n_comps


def grow_sparse(criterion, seeds, connectivity: int = 1) -> np.ndarray:
    """Sparse seeded region growing: select the seeded voxel-graph components.

    Exact vs ``binary_propagation``; skips numbering the components (the
    output is boolean), so it is the cheapest path on near-empty
    criteria.
    """
    criterion = np.asarray(criterion, dtype=bool)
    seed_mask = _seeds_to_mask(seeds, criterion.shape)
    _structure(criterion.ndim, connectivity)
    metrics = get_metrics()
    with metrics.span("fastgrow.sparse_grow", voxels=int(criterion.size)):
        out = np.zeros(criterion.size, dtype=bool)
        stats = {"strategy": "sparse", "components": 0,
                 "set_voxels": int(np.count_nonzero(criterion)),
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


def _pick_strategy(strategy: str, mask: np.ndarray) -> str:
    """Resolve ``"auto"`` to ``"sparse"`` or ``"dense"`` for this call."""
    if strategy not in ("auto", "dense", "sparse"):
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'auto', 'dense' or 'sparse'"
        )
    if strategy != "auto":
        return strategy
    if mask.size == 0:
        return "dense"
    fill = np.count_nonzero(mask) / mask.size
    return "sparse" if fill <= SPARSE_FILL_MAX else "dense"


# --------------------------------------------------------------------- #
# Dense strategy and the grower
# --------------------------------------------------------------------- #
#: Statistics of the most recent labeling or growing call in this process
#: (strategy and component count).  Mirrors
#: ``DataSpaceClassifier.last_fast_stats`` — cheap introspection for
#: benchmarks and the CLI without threading a stats object through.
last_label_stats: dict = {}


def _record_stats(strategy: str, components: int, connectivity: int) -> None:
    last_label_stats.clear()
    last_label_stats.update(strategy=strategy, components=int(components),
                            connectivity=int(connectivity))


def _label_dense(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """One ``ndimage.label`` pass: int32 labels ``0..count``, and ``count``.

    Records the call in :data:`last_label_stats`.
    """
    with get_metrics().span("fastgrow.label", connectivity=int(connectivity)):
        labels, count = ndimage.label(
            mask, structure=_structure(mask.ndim, connectivity))
    _record_stats("dense", count, connectivity)
    return labels.astype(np.int32, copy=False), int(count)


def grow_bricked(criterion, seeds, connectivity: int = 1,
                 strategy: str = "auto") -> np.ndarray:
    """Seeded region growing, exact vs ``binary_propagation``.

    Growing from seeds through a boolean criterion selects precisely the
    criterion components containing at least one seed, so the labeling
    does the heavy lifting and selection is one lookup-table gather over
    the labels (their numbering does not matter).  On near-empty
    criteria ``strategy="auto"`` labels only the set-voxel graph
    (:func:`grow_sparse`) — cost proportional to the feature, not the
    domain, which is where the tracking throughput benchmark's speedup
    over serial 4D propagation comes from; denser criteria take one
    dense labeling pass.

    Arguments match :func:`repro.segmentation.regiongrow.grow_region`
    plus ``strategy``: ``"auto"`` (default) takes the sparse path when
    the criterion's fill is at most :data:`SPARSE_FILL_MAX`;
    ``"dense"`` / ``"sparse"`` force a path.  Every strategy grows the
    identical region.
    """
    criterion = np.asarray(criterion, dtype=bool)
    seed_mask = _seeds_to_mask(seeds, criterion.shape)
    if _pick_strategy(strategy, criterion) == "sparse":
        return grow_sparse(criterion, seed_mask, connectivity=connectivity)
    _structure(criterion.ndim, connectivity)  # validates early
    with get_metrics().span("fastgrow.grow", voxels=int(criterion.size)):
        labels, count = _label_dense(criterion, connectivity)
        if count == 0:
            return np.zeros(criterion.shape, dtype=bool)
        selected = np.zeros(count + 1, dtype=bool)
        selected[labels[seed_mask]] = True
        selected[0] = False
        return selected[labels]
