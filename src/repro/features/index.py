"""Nearest-neighbour index over feature descriptors.

A :class:`DescriptorIndex` is a float32 matrix of descriptors plus one
JSON-able metadata record per row (run/step/label/centroid/...).  Queries
are brute-force — one GEMV against the matrix — which at the scale of
"every feature in a run" (thousands of rows, ~50-dim descriptors) is
microseconds and needs no approximate-NN machinery.

Persistence goes through the content-addressed
:class:`~repro.cache.store.ArtifactStore`: the matrix rides as an array
artifact, the metadata (and the matrix artifact's key) as a JSON
artifact, both integrity-checked on read.  Index keys are derived from
the inputs that determine the index
(:func:`~repro.cache.store.derive_key` over the descriptor config and
the per-step volume digests), so a rebuilt-but-identical run finds its
index warm while any voxel change invalidates it — the same contract as
the resumable runner's artifacts.  :func:`cached_index` packages the
probe-or-build-and-save dance and feeds the ``track.match.index.*`` obs
counters the CI warm-replay leg asserts on.
"""

from __future__ import annotations

import numpy as np

from repro.cache.store import IntegrityError
from repro.obs import get_metrics

_EPS = 1e-12
_METRICS = ("cosine", "l2")


class DescriptorIndex:
    """Append-only descriptor matrix with metadata and NN queries.

    Parameters
    ----------
    dim:
        Descriptor length; inferred from the first :meth:`add` when None.
    metric:
        ``"cosine"`` — scores are cosine similarities, higher is better;
        ``"l2"`` — scores are Euclidean distances, lower is better.
    """

    def __init__(self, dim: int | None = None, metric: str = "cosine") -> None:
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; options: {_METRICS}")
        self.metric = metric
        self.dim = None if dim is None else int(dim)
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        self.metas: list[dict] = []

    def __len__(self) -> int:
        return len(self.metas)

    def add(self, descriptor, meta: dict) -> int:
        """Append one descriptor row; returns its row id."""
        row = np.asarray(descriptor, dtype=np.float32).reshape(-1)
        if self.dim is None:
            self.dim = int(row.shape[0])
        elif row.shape[0] != self.dim:
            raise ValueError(
                f"descriptor has {row.shape[0]} dims, index expects {self.dim}")
        self._rows.append(row)
        self._matrix = None
        self.metas.append(dict(meta))
        return len(self.metas) - 1

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, dim)`` float32 descriptor matrix (consolidated lazily)."""
        if self._matrix is None:
            if not self._rows:
                return np.empty((0, self.dim or 0), dtype=np.float32)
            self._matrix = np.stack(self._rows, axis=0)
        return self._matrix

    def scores(self, descriptor) -> np.ndarray:
        """Metric scores of ``descriptor`` against every row (one GEMV)."""
        query = np.asarray(descriptor, dtype=np.float32).reshape(-1)
        matrix = self.matrix
        if matrix.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        if query.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"query has {query.shape[0]} dims, index holds {matrix.shape[1]}")
        if self.metric == "cosine":
            norms = np.linalg.norm(matrix, axis=1) * max(
                float(np.linalg.norm(query)), _EPS)
            return (matrix @ query) / np.maximum(norms, _EPS)
        diff = matrix - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff, dtype=np.float64))

    def query(self, descriptor, k: int = 5) -> list[tuple[float, dict]]:
        """Top-``k`` ``(score, meta)`` pairs, best first.

        Ties break on row id (insertion order), so results are
        deterministic across processes.
        """
        scores = self.scores(descriptor)
        if scores.size == 0:
            return []
        k = min(int(k), scores.size)
        order = np.argsort(-scores if self.metric == "cosine" else scores,
                           kind="stable")[:k]
        return [(float(scores[i]), self.metas[i]) for i in order]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, store, key: str) -> str:
        """Persist to an :class:`~repro.cache.store.ArtifactStore`.

        Two artifacts: ``<key>`` (JSON: metric, dim, metas, matrix key)
        and ``<key>.mat`` (the float32 matrix).  The matrix goes first so
        a crash between the writes leaves the JSON — the artifact reads
        look up — absent, never dangling.
        """
        matrix = self.matrix
        mat_key = f"{key}.mat"
        store.put_array(mat_key, matrix)
        store.put_json(key, {
            "kind": "descriptor_index",
            "metric": self.metric,
            "dim": int(matrix.shape[1]) if self.dim is None else self.dim,
            "rows": int(matrix.shape[0]),
            "metas": self.metas,
            "matrix_key": mat_key,
        })
        return key

    @classmethod
    def load(cls, store, key: str) -> "DescriptorIndex":
        """Load a persisted index (integrity-checked reads).

        Raises ``ValueError`` when the stored payload is not an index
        object, lacks a field, or its matrix artifact is missing or does
        not match it; a payload that fails its integrity check raises
        :class:`~repro.cache.store.IntegrityError`.
        """
        payload = store.get_json(key)
        if not isinstance(payload, dict) or payload.get("kind") != "descriptor_index":
            raise ValueError(f"artifact {key} is not a descriptor index")
        missing = sorted({"dim", "metric", "rows", "metas", "matrix_key"} - set(payload))
        if missing:
            raise ValueError(f"index {key} lacks field(s) {missing}")
        if not (isinstance(payload["metas"], list)
                and all(isinstance(m, dict) for m in payload["metas"])):
            raise ValueError(f"index {key}: metas must be a list of objects")
        index = cls(dim=payload["dim"], metric=payload["metric"])
        try:
            matrix = store.get_array(payload["matrix_key"]).astype(np.float32)
        except KeyError:
            raise ValueError(f"index {key}: matrix artifact "
                             f"{payload['matrix_key']!r} is missing") from None
        if matrix.shape != (payload["rows"], payload["dim"]):
            raise ValueError(
                f"index {key}: matrix shape {matrix.shape} != recorded "
                f"({payload['rows']}, {payload['dim']})")
        index._rows = [row for row in matrix]
        index._matrix = matrix if matrix.shape[0] else None
        index.metas = [dict(m) for m in payload["metas"]]
        return index


def cached_index(store, key: str, build) -> tuple[DescriptorIndex, bool]:
    """Load ``key`` from ``store`` or build-and-save it.

    Returns ``(index, hit)`` and maintains the ``track.match.index.hits``
    / ``track.match.index.misses`` counters — the CI warm-replay leg
    asserts a hit on the second ``repro match`` over an unchanged run.
    A stored index that fails to load (:class:`IntegrityError` or
    ``ValueError`` from :meth:`DescriptorIndex.load`) counts in
    ``track.match.index.corrupt`` and rebuilds; any other error
    propagates.
    """
    metrics = get_metrics()
    if store.has(key):
        try:
            index = DescriptorIndex.load(store, key)
        except (IntegrityError, ValueError):
            metrics.counter("track.match.index.corrupt").inc()
        else:
            metrics.counter("track.match.index.hits").inc()
            return index, True
    metrics.counter("track.match.index.misses").inc()
    index = build()
    index.save(store, key)
    return index, False
