"""Level-of-detail volume pyramids (paper Sec. 4.3).

The data-space workflow wants the scientist to *"see 4D flow field from
different views and at different levels of details, and interactively
select the features with the desired sizes"*.  A mean-pooling mip pyramid
provides the levels: level 0 is the full grid, each next level halves
every axis (2×2×2 block means, odd edges padded by edge replication), so

- coarse levels render an order of magnitude faster (interactive
  navigation, then refine);
- a feature's *size* is directly visible as the coarsest level at which
  it survives — tiny features average away, large structures persist,
  which is the size intuition the shell features formalize.
"""

from __future__ import annotations

import numpy as np

from repro.volume.grid import Volume


def downsample2(data: np.ndarray) -> np.ndarray:
    """Halve each axis by 2×2×2 mean pooling (edge-replicated padding)."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 3:
        raise ValueError(f"expected 3D array, got ndim={data.ndim}")
    pads = [(0, s % 2) for s in data.shape]
    if any(p[1] for p in pads):
        data = np.pad(data, pads, mode="edge")
    nz, ny, nx = (s // 2 for s in data.shape)
    blocks = data.reshape(nz, 2, ny, 2, nx, 2)
    return blocks.mean(axis=(1, 3, 5)).astype(np.float32)


def minmax_pool(data: np.ndarray, cell: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-macro-cell ``(min, max)`` summaries over ``cell``³ voxel blocks.

    The same block reduction the mip pyramid performs, but with min/max
    instead of mean pooling: the result is the value *interval* each
    macro cell can produce under any interpolation that stays inside its
    voxels' convex hull — the summary the empty-space-skipping renderer
    certifies against.  Edge cells are completed by edge replication,
    which adds only duplicate values and therefore leaves both extrema
    exact.  Returns two ``(ceil(nz/cell), ceil(ny/cell), ceil(nx/cell))``
    arrays in the input dtype.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(f"expected 3D array, got ndim={data.ndim}")
    if cell < 1:
        raise ValueError(f"cell must be >= 1, got {cell}")
    pads = [(0, (-s) % cell) for s in data.shape]
    if any(p[1] for p in pads):
        data = np.pad(data, pads, mode="edge")
    if cell == 1:
        return data.copy(), data.copy()
    return _fold_cells(data, cell, np.minimum), _fold_cells(data, cell, np.maximum)


def _fold_cells(data: np.ndarray, cell: int, op) -> np.ndarray:
    """Reduce each ``cell``-long run along every axis with ``op``.

    Folds a cell's halves together (any odd leftover into the first
    slot) until one slot is left, outermost axis first, so each pass is
    a few long contiguous elementwise ops and the later, strided ones
    touch an eighth of the data or less.  Min and max are exact, so the
    result equals the block reduction bit for bit.
    """
    for axis in range(data.ndim):
        lead = (slice(None),) * (axis + 1)
        shape = data.shape
        blocks = data.reshape(shape[:axis] + (shape[axis] // cell, cell) + shape[axis + 1:])
        width = cell
        while width > 1:
            half = width // 2
            folded = op(blocks[lead + (slice(0, half),)],
                        blocks[lead + (slice(half, 2 * half),)])
            if width % 2:
                first = folded[lead + (slice(0, 1),)]
                op(first, blocks[lead + (slice(2 * half, width),)], out=first)
            blocks, width = folded, half
        data = blocks.reshape(shape[:axis] + (shape[axis] // cell,) + shape[axis + 1:])
    return data


class VolumePyramid:
    """Mip pyramid over one volume.

    Parameters
    ----------
    volume:
        :class:`Volume` (metadata propagates to every level) or raw array.
    levels:
        Number of levels including the base; ``None`` builds down to the
        coarsest level with every axis ≥ 2 voxels.
    """

    def __init__(self, volume, levels: int | None = None) -> None:
        if isinstance(volume, Volume):
            base, self.time, self.name = volume.data, volume.time, volume.name
        else:
            base = np.asarray(volume, dtype=np.float32)
            self.time, self.name = 0, ""
        if base.ndim != 3:
            raise ValueError(f"expected a 3D volume, got ndim={base.ndim}")
        if levels is not None and levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self._levels = [np.ascontiguousarray(base, dtype=np.float32)]
        while True:
            if levels is not None and len(self._levels) >= levels:
                break
            current = self._levels[-1]
            if levels is None and min(current.shape) < 4:
                break
            self._levels.append(downsample2(current))

    @property
    def n_levels(self) -> int:
        """Number of pyramid levels (level 0 = full resolution)."""
        return len(self._levels)

    def level(self, index: int) -> Volume:
        """The volume at pyramid level ``index`` (0 = finest)."""
        if not 0 <= index < self.n_levels:
            raise IndexError(
                f"level {index} out of range (pyramid has {self.n_levels})"
            )
        return Volume(self._levels[index], time=self.time, name=self.name)

    def shapes(self) -> list[tuple[int, int, int]]:
        """Grid shape per level."""
        return [lvl.shape for lvl in self._levels]

    def coarsest_level_with(self, mask: np.ndarray, threshold: float = 0.5) -> int:
        """Coarsest level at which the masked feature is still visible.

        The feature's mean value inside the (downsampled) mask footprint
        must stay above ``threshold`` × its level-0 mean.  Small features
        average into their surroundings after a level or two; large
        structures persist — a direct, viewable size measure.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._levels[0].shape:
            raise ValueError(
                f"mask shape {mask.shape} != base shape {self._levels[0].shape}"
            )
        if not mask.any():
            raise ValueError("mask is empty")
        base_mean = float(self._levels[0][mask].mean())
        if base_mean <= 0:
            raise ValueError("feature has non-positive mean value")
        weight = mask.astype(np.float32)
        last_visible = 0
        for idx in range(1, self.n_levels):
            weight = downsample2(weight)
            footprint = weight > 0.0
            if not footprint.any():
                break
            # weighted mean of the downsampled data over the footprint
            data = self._levels[idx]
            mean = float((data[footprint] * weight[footprint]).sum()
                         / weight[footprint].sum())
            if mean >= threshold * base_mean:
                last_visible = idx
            else:
                break
        return last_visible
