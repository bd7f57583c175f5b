"""Connected components and per-feature attributes.

Feature-based visualization (Secs. 2, 5) treats a "feature" as a connected
set of voxels passing a criterion.  This module labels those sets and
summarizes each with the attributes the tracking literature (Reinders et
al., Silver & Wang — the paper's Refs. [20, 22]) uses for correspondence:
voxel count, centroid, bounding box, and mass.

:func:`label_components` is the one labeler.  A nearly empty mask (a
tracked feature fills ~1% of its grid) is labeled through its set-voxel
graph, whose cost follows the feature; any other mask takes one
``scipy.ndimage.label`` pass.  Both paths give scipy's labels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.segmentation.fastgrow import _label_dense, label_sparse

#: :func:`label_components` labels the set-voxel graph when the mask's
#: fill is at or below this, one dense pass above it.  Measured on
#: smoothed-noise masks, one CPU (docs/reproduction_notes.md §11): the
#: two paths cost the same at ~2% fill on 64³ and 128³ grids.  Growing
#: crosses over later (``fastgrow.SPARSE_FILL_MAX``) because it skips the
#: numbering.
LABEL_SPARSE_FILL_MAX = 0.02


def label_components(mask, connectivity: int = 1) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Returns ``(labels, count)`` where ``labels`` is int32 with 0 background
    and components numbered 1…count in raster-scan first-occurrence order,
    exactly as ``scipy.ndimage.label`` numbers them.  Works in any
    dimension (the 4D tracking stack included); ``connectivity`` runs from
    1 (faces) to ``ndim`` (full neighbourhood).
    """
    mask = np.asarray(mask, dtype=bool)
    if np.count_nonzero(mask) <= LABEL_SPARSE_FILL_MAX * mask.size:
        return label_sparse(mask, connectivity)
    return _label_dense(mask, connectivity)


@dataclass(frozen=True)
class FeatureAttributes:
    """Summary attributes of one labeled feature.

    Attributes
    ----------
    label:
        Component id (1-based).
    voxels:
        Voxel count — the "size" used by size-based extraction (Sec. 4.3).
    centroid:
        Mean voxel coordinate, axis order matching the array.
    bbox_min / bbox_max:
        Inclusive bounding-box corners.
    mass:
        Sum of the data values inside the feature (0 when no data given).
    """

    label: int
    voxels: int
    centroid: tuple
    bbox_min: tuple
    bbox_max: tuple
    mass: float

    @property
    def extent(self) -> tuple:
        """Bounding-box side lengths (inclusive voxel counts)."""
        return tuple(hi - lo + 1 for lo, hi in zip(self.bbox_min, self.bbox_max))


def feature_attributes(labels: np.ndarray, count: int, data=None) -> list[FeatureAttributes]:
    """Compute :class:`FeatureAttributes` for every labeled feature.

    Vectorized with ``np.bincount`` over the flat label array — one pass
    for sizes, one per axis for centroids, one for mass; no per-feature
    Python loops over voxels.
    """
    labels = np.asarray(labels)
    if count == 0:
        return []
    flat = labels.ravel()
    sizes = np.bincount(flat, minlength=count + 1)[1:]
    coords = np.indices(labels.shape).reshape(labels.ndim, -1)
    centroids = np.empty((count, labels.ndim), dtype=np.float64)
    bbox_min = np.empty((count, labels.ndim), dtype=np.int64)
    bbox_max = np.empty((count, labels.ndim), dtype=np.int64)
    inside = flat > 0
    flat_in = flat[inside]
    for axis in range(labels.ndim):
        axis_coords = coords[axis][inside]
        sums = np.bincount(flat_in, weights=axis_coords, minlength=count + 1)[1:]
        centroids[:, axis] = sums / np.maximum(sizes, 1)
        # min/max per label via sorting-free reduction
        bbox_min[:, axis] = _per_label_reduce(flat_in, axis_coords, count, np.minimum, np.iinfo(np.int64).max)
        bbox_max[:, axis] = _per_label_reduce(flat_in, axis_coords, count, np.maximum, np.iinfo(np.int64).min)
    if data is not None:
        data = np.asarray(data)
        if data.shape != labels.shape:
            raise ValueError(f"data shape {data.shape} != labels shape {labels.shape}")
        masses = np.bincount(flat_in, weights=data.ravel()[inside], minlength=count + 1)[1:]
    else:
        masses = np.zeros(count)
    out = []
    for i in range(count):
        if sizes[i] == 0:
            continue  # label id unused (can happen with filtered label maps)
        out.append(
            FeatureAttributes(
                label=i + 1,
                voxels=int(sizes[i]),
                centroid=tuple(float(c) for c in centroids[i]),
                bbox_min=tuple(int(v) for v in bbox_min[i]),
                bbox_max=tuple(int(v) for v in bbox_max[i]),
                mass=float(masses[i]),
            )
        )
    return out


def _per_label_reduce(labels_flat, values, count, op, init):
    """Per-label min/max via ``np.{minimum,maximum}.at`` (vectorized scatter)."""
    out = np.full(count + 1, init, dtype=np.int64)
    op.at(out, labels_flat, values.astype(np.int64))
    return out[1:]
