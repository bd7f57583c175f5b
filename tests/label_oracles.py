"""Reference labelers the tests check ``label_components`` against.

Neither runs in the program: :func:`bfs_labels` grows one component at a
time with the frontier grower, independently of both paths of
``label_components``, and :func:`canonicalize_labels` renumbers any
labeling to raster-scan first-occurrence order, the numbering scipy and
``label_components`` already use.
"""

import numpy as np

from repro.segmentation.regiongrow import _grow_frontier


def bfs_labels(mask, connectivity: int = 1) -> tuple[np.ndarray, int]:
    """Label components by breadth-first growth from each unlabeled voxel.

    Seeds are taken in raster order, so components come out numbered by
    first occurrence, like ``scipy.ndimage.label``.
    """
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    remaining = mask.copy()
    count = 0
    while True:
        seeds_flat = np.flatnonzero(remaining)
        if len(seeds_flat) == 0:
            break
        seed_mask = np.zeros(mask.shape, dtype=bool)
        seed_mask[np.unravel_index(seeds_flat[0], mask.shape)] = True
        grown = _grow_frontier(remaining, seed_mask, connectivity)
        count += 1
        labels[grown] = count
        remaining &= ~grown
    return labels, count


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber a labeling to raster-scan first-occurrence order.

    Two labelings of the same mask that agree up to label permutation map
    to the identical array, which turns "equivalent labelings" into plain
    ``array_equal``.
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
