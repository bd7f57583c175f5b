"""Tiled fast rendering with empty-space skipping (ESS) + ERT.

The paper renders classification results with fragment programs on a
GeForce 6800 and scales frames across a PC cluster (Secs. 7–8); the
software reference in :mod:`repro.render.raycast` reproduces the
*semantics* of that renderer but marches every ray through every sample
shell.  This module is the fast path, three ideas deep:

1. **Tile decomposition.**  The image plane splits into square tiles,
   each marched independently in a plain loop (the default tile is the
   whole image: per-shell vector ops amortize best over one big batch).
   Frames parallelize one level up, as steps of the per-step map in
   :mod:`repro.core.pipeline`.
2. **Macro-cell empty-space skipping.**  A per-cell min/max summary
   (:func:`repro.volume.pyramid.minmax_pool`, dilated one cell so every
   trilinear footprint is covered) certifies, per macro cell, whether
   *any* sample inside it can receive nonzero opacity — for the scalar
   path by querying the transfer function's table over the cell's value
   interval, for the RGBA path directly from the alpha channel.  Samples
   in certified-empty cells are skipped; rays additionally march only
   the sample range where they intersect the volume's bounding box.  The
   empty-cell set is octree-encoded
   (:class:`repro.segmentation.octree.OctreeMask`) so the skip regions
   are enumerable — the soundness tests re-certify every skipped leaf.
3. **Early ray termination.**  Configurable ``ert_alpha``; at the
   reference's own cutoff (:data:`repro.render.raycast.ALPHA_CUTOFF`,
   the default) termination is identical to the reference.

Equivalence is the load-bearing property: a skipped sample provably
contributes *exactly zero* opacity, and front-to-back compositing is
elementwise per ray, so at the default ``ert_alpha`` the fast path is
**bit-identical** to :func:`repro.render.raycast.render_volume` /
``render_rgba_volume`` — and bit-identical to itself across any tile
size.  Lower ``ert_alpha`` trades a bounded tail of the compositing sum
(|Δ| ≤ 1 − ert_alpha per channel) for speed.  ``tests/test_fastcast.py``
pins all of this differentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.obs import get_metrics
from repro.render.camera import Camera
from repro.render.image import Image
from repro.render.raycast import ALPHA_CUTOFF, _sample, _sample_channels
from repro.render.shading import phong_shade
from repro.segmentation.octree import OctreeMask
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume
from repro.volume.pyramid import minmax_pool


# --------------------------------------------------------------------- #
# Macro-cell summaries
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SkipGrid:
    """Per-macro-cell contribution certificate for one volume.

    ``occupied[k]`` is ``True`` when some sample whose trilinear
    footprint touches cell ``k`` *could* receive nonzero opacity;
    ``False`` cells are certified skippable.  ``lo``/``hi`` are the
    dilated per-cell value bounds the certificate was derived from
    (``None`` for the RGBA path, which certifies on the alpha channel
    directly).  The empty-cell set is kept octree-encoded so skip
    regions can be enumerated and audited.
    """

    cell: int
    occupied: np.ndarray
    empty_octree: OctreeMask
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @property
    def cells_total(self) -> int:
        """Number of macro cells covering the volume."""
        return int(self.occupied.size)

    @property
    def cells_empty(self) -> int:
        """Number of certified-empty (skippable) macro cells."""
        return int(self.occupied.size - np.count_nonzero(self.occupied))

    @property
    def empty_fraction(self) -> float:
        """Fraction of macro cells certified empty."""
        return self.cells_empty / max(self.cells_total, 1)


def _dilate_bounds(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widen per-cell bounds to cover every neighboring cell.

    A sample in cell ``k`` interpolates corner voxels that may sit one
    voxel into an adjacent cell, and the per-sample cell lookup itself
    may land one cell off when a coordinate sits within rounding of a
    cell boundary; folding each cell's bounds with all 26 neighbors
    makes the certificate sound against both.
    """
    return (ndimage.minimum_filter(lo, size=3, mode="nearest"),
            ndimage.maximum_filter(hi, size=3, mode="nearest"))


def tf_interval_occupancy(tf: TransferFunction1D, lo: np.ndarray,
                          hi: np.ndarray) -> np.ndarray:
    """Whether any value in ``[lo, hi]`` maps to nonzero table opacity.

    Opacity lookup is a nearest-entry table read and the entry index is
    monotone in the value, so the exact query is "does the table hold a
    nonzero entry between ``indices_of(lo)`` and ``indices_of(hi)``".
    The interval is widened by a relative epsilon in value space plus one
    table entry on each side to absorb the float32 rounding of trilinear
    interpolation — a ``False`` answer certifies ``opacity_at(v) == 0``
    for every reachable sample value ``v``.
    """
    nonzero = np.flatnonzero(tf.opacity != 0.0)
    if nonzero.size == 0:
        return np.zeros(np.shape(lo), dtype=bool)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    pad = 1e-6 * (np.abs(lo) + np.abs(hi) + (tf.hi - tf.lo))
    ilo = tf.indices_of(lo - pad) - 1
    ihi = tf.indices_of(hi + pad) + 1
    occ = (np.searchsorted(nonzero, ilo.ravel(), side="left")
           < np.searchsorted(nonzero, ihi.ravel(), side="right"))
    return occ.reshape(np.shape(lo))


def build_skip_grid(data: np.ndarray, tf: TransferFunction1D, cell: int) -> SkipGrid:
    """Macro-cell certificate for a scalar volume rendered through ``tf``."""
    lo, hi = minmax_pool(data, cell)
    lo, hi = _dilate_bounds(lo, hi)
    occupied = tf_interval_occupancy(tf, lo, hi)
    return SkipGrid(cell=cell, occupied=occupied,
                    empty_octree=OctreeMask.from_mask(~occupied), lo=lo, hi=hi)


def build_alpha_skip_grid(alpha: np.ndarray, cell: int) -> SkipGrid:
    """Macro-cell certificate for a precomputed RGBA volume's alpha field."""
    lo, hi = minmax_pool(alpha, cell)
    lo, hi = _dilate_bounds(lo, hi)
    occupied = hi > 0.0
    return SkipGrid(cell=cell, occupied=occupied,
                    empty_octree=OctreeMask.from_mask(~occupied))


# --------------------------------------------------------------------- #
# Ray marching (one tile)
# --------------------------------------------------------------------- #
def _ray_sample_ranges(origins: np.ndarray, directions: np.ndarray, shape3,
                       step: float, n_samples: int):
    """Conservative per-ray sample-index range intersecting the volume box.

    Slab intersection in float64 with the range widened by one sample on
    each side, so FP error can only *add* out-of-box samples — those are
    re-tested exactly per sample and contribute nothing.  Rays missing
    the box by more than two steps get the empty range ``(0, -1)``.
    """
    o = origins.astype(np.float64)
    d = directions.astype(np.float64)
    tlo = np.zeros(len(o))
    thi = np.full(len(o), (n_samples - 1) * step)
    for ax, n in enumerate(shape3):
        oa, da = o[:, ax], d[:, ax]
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (0.0 - oa) / da
            t1 = ((n - 1.0) - oa) / da
        near, far = np.minimum(t0, t1), np.maximum(t0, t1)
        parallel = da == 0.0
        inside_slab = (oa >= 0.0) & (oa <= n - 1.0)
        near = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), far)
        tlo = np.maximum(tlo, near)
        thi = np.minimum(thi, far)
    miss = tlo > thi + 2.0 * step
    s_min = np.clip(np.floor(tlo / step).astype(np.int64) - 1, 0, n_samples - 1)
    s_max = np.clip(np.ceil(thi / step).astype(np.int64) + 1, -1, n_samples - 1)
    s_min[miss] = 0
    s_max[miss] = -1
    return s_min, s_max


def _march_tile(origins, directions, n_samples, step, ert_alpha, occupied,
                cell, shape3, skip_outside, sample_rgba, shade_fn):
    """Front-to-back composite one tile's rays with ESS + ERT.

    Mirrors :func:`repro.render.raycast._composite_shells` operation for
    operation; the only difference is that samples certified to carry
    exactly zero opacity (empty macro cell, or outside the volume when
    the outside value is transparent) never reach ``sample_rgba`` — in
    the reference those samples composite with weight exactly 0.0, so
    omitting them is bitwise free.
    """
    n_pixels = len(origins)
    nz, ny, nx = shape3
    accum_rgb = np.zeros((n_pixels, 3), dtype=np.float32)
    accum_a = np.zeros(n_pixels, dtype=np.float32)
    alive = np.ones(n_pixels, dtype=bool)
    stats = {"samples_composited": 0, "samples_skipped": 0,
             "rays_terminated_early": 0, "shells_visited": 0}
    if skip_outside:
        s_min, s_max = _ray_sample_ranges(origins, directions, shape3,
                                          step, n_samples)
        in_box = s_min <= s_max
        if not in_box.any():
            return accum_rgb, accum_a, stats
        s_first = int(s_min[in_box].min())
        s_last = int(s_max[in_box].max())
    else:
        s_min = np.zeros(n_pixels, dtype=np.int64)
        s_max = np.full(n_pixels, n_samples - 1, dtype=np.int64)
        s_first, s_last = 0, n_samples - 1
    occ_flat = None
    if occupied is not None:
        occ_flat = np.ascontiguousarray(occupied, dtype=bool).ravel()
        cdims = occupied.shape
    for s in range(s_first, s_last + 1):
        idx = np.flatnonzero(alive & (s_min <= s) & (s <= s_max))
        if idx.size == 0:
            if not alive.any():
                break
            continue
        stats["shells_visited"] += 1
        coords = origins[idx] + (s * step) * directions[idx]
        z, y, x = coords[:, 0], coords[:, 1], coords[:, 2]
        inside = ((z >= 0) & (z <= nz - 1) & (y >= 0) & (y <= ny - 1)
                  & (x >= 0) & (x <= nx - 1))
        # Outside samples read the constant 0.0: they contribute only when
        # the outside value is not certified transparent.
        contrib = np.zeros(idx.size, dtype=bool) if skip_outside else ~inside
        if occ_flat is not None:
            pts = coords[inside]
            ck = np.floor(pts * (1.0 / cell)).astype(np.intp)
            flat = (ck[:, 0] * cdims[1] + ck[:, 1]) * cdims[2] + ck[:, 2]
            contrib[inside] = occ_flat[flat]
        else:
            contrib[inside] = True
        cidx = idx[contrib]
        stats["samples_skipped"] += int(idx.size - cidx.size)
        if cidx.size:
            ccoords = coords[contrib]
            rgb, alpha = sample_rgba(ccoords)
            if shade_fn is not None:
                rgb = shade_fn(rgb, ccoords)
            if step != 1.0:
                alpha = 1.0 - np.power(1.0 - alpha, step)
            weight = (1.0 - accum_a[cidx]) * alpha
            accum_rgb[cidx] += weight[:, None] * rgb
            accum_a[cidx] += weight
            stats["samples_composited"] += int(cidx.size)
            dead = accum_a[cidx] >= ert_alpha
            if dead.any():
                alive[cidx[dead]] = False
                stats["rays_terminated_early"] += int(dead.sum())
    return accum_rgb, accum_a, stats


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #
def tile_boxes(height: int, width: int, tile: int) -> list[tuple[int, int, int, int]]:
    """Row-major ``(r0, r1, c0, c1)`` tile boxes covering the image."""
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    return [(r0, min(r0 + tile, height), c0, min(c0 + tile, width))
            for r0 in range(0, height, tile)
            for c0 in range(0, width, tile)]


def _render_fast(mode: str, field: np.ndarray, grad: np.ndarray | None,
                 tf: TransferFunction1D | None, skip: SkipGrid,
                 skip_outside: bool, camera: Camera, step: float,
                 background, tile: int | None, ert_alpha: float) -> Image:
    """Shared tile loop of the two public entry points."""
    if not 0.0 < ert_alpha <= 1.0:
        raise ValueError(f"ert_alpha must be in (0, 1], got {ert_alpha}")
    shape3 = field.shape[:3]
    origins, directions, n_samples = camera.ray_grid(shape3, step=step)
    height, width = camera.height, camera.width
    tile = max(height, width) if tile is None else int(tile)
    boxes = tile_boxes(height, width, tile)
    o_grid = origins.reshape(height, width, 3)
    d_grid = directions.reshape(height, width, 3)
    occupied = None if skip.occupied.all() else skip.occupied

    if tf is not None:

        def sample_rgba(coords):
            values = _sample(field, coords)
            rgb = tf.color_at(values).astype(np.float32)
            alpha = tf.opacity_at(values).astype(np.float32)
            return rgb, alpha

    else:

        def sample_rgba(coords):
            samples = _sample_channels(field, coords)
            return samples[:, :3], np.clip(samples[:, 3], 0.0, 1.0)

    if grad is not None:
        forward, _, _ = camera.basis()
        to_viewer = (-forward).astype(np.float32)

        def shade_fn(rgb, coords):
            g = _sample_channels(grad, coords)
            return phong_shade(rgb, g, light_dir=to_viewer, view_dir=to_viewer)

    else:
        shade_fn = None

    pixels = np.empty((height, width, 4), dtype=np.float32)
    totals = {"samples_composited": 0, "samples_skipped": 0,
              "rays_terminated_early": 0, "shells_visited": 0}
    metrics = get_metrics()
    with metrics.span(f"render.fast.{mode}", pixels=height * width,
                      samples=n_samples, tiles=len(boxes), tile=tile,
                      ert_alpha=ert_alpha, cells_total=skip.cells_total,
                      cells_empty=skip.cells_empty):
        for r0, r1, c0, c1 in boxes:
            rgb, alpha, tile_stats = _march_tile(
                np.ascontiguousarray(o_grid[r0:r1, c0:c1]).reshape(-1, 3),
                np.ascontiguousarray(d_grid[r0:r1, c0:c1]).reshape(-1, 3),
                n_samples, step, ert_alpha, occupied, skip.cell, shape3,
                skip_outside, sample_rgba, shade_fn)
            pixels[r0:r1, c0:c1, :3] = rgb.reshape(r1 - r0, c1 - c0, 3)
            pixels[r0:r1, c0:c1, 3] = alpha.reshape(r1 - r0, c1 - c0)
            for key in totals:
                totals[key] += tile_stats[key]
    metrics.counter("render.fast.frames").inc()
    metrics.counter("render.fast.tiles").inc(len(boxes))
    metrics.counter("render.fast.cells_skipped").inc(skip.cells_empty)
    metrics.counter("render.fast.samples_skipped").inc(totals["samples_skipped"])
    metrics.counter("render.fast.rays_terminated_early").inc(
        totals["rays_terminated_early"])
    return Image.from_array(pixels, background=background)


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #
def render_volume_fast(volume, tf: TransferFunction1D, camera: Camera | None = None,
                       step: float = 1.0, shading: bool = True,
                       background=(0.0, 0.0, 0.0), tile: int | None = None,
                       ert_alpha: float = ALPHA_CUTOFF, cell: int = 8) -> Image:
    """Fast-path equivalent of :func:`repro.render.raycast.render_volume`.

    Parameters beyond the reference renderer's:

    tile:
        Tile edge in pixels (``None`` = the whole image).
    ert_alpha:
        Early-ray-termination threshold.  At the default (the reference's
        own cutoff) output is bit-identical to the reference; lower
        values drop a compositing tail bounded by ``1 - ert_alpha``.
    cell:
        Macro-cell edge in voxels for the empty-space certificate.
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(
        volume, dtype=np.float32)
    if data.ndim != 3:
        raise ValueError(f"expected a 3D volume, got ndim={data.ndim}")
    camera = camera or Camera()
    skip = build_skip_grid(data, tf, cell)
    # Samples outside the volume read the constant 0.0: skippable only
    # when the transfer function keeps value 0.0 transparent.
    skip_outside = float(np.asarray(tf.opacity_at(0.0))) == 0.0
    grad = None
    if shading:
        grad = np.ascontiguousarray(
            np.stack(np.gradient(data.astype(np.float32, copy=False)), axis=-1))
    return _render_fast("volume", data, grad, tf, skip, skip_outside, camera,
                        step, background, tile, ert_alpha)


def render_rgba_volume_fast(rgba_volume: np.ndarray, camera: Camera | None = None,
                            step: float = 1.0,
                            shading_field: np.ndarray | None = None,
                            background=(0.0, 0.0, 0.0), tile: int | None = None,
                            ert_alpha: float = ALPHA_CUTOFF, cell: int = 8) -> Image:
    """Fast-path equivalent of :func:`repro.render.raycast.render_rgba_volume`.

    The empty-space certificate comes straight from the RGBA volume's
    alpha channel; outside samples are always exactly transparent, so
    ray-box clipping always applies.  See :func:`render_volume_fast` for
    the fast-path parameters.
    """
    rgba_volume = np.asarray(rgba_volume, dtype=np.float32)
    if rgba_volume.ndim != 4 or rgba_volume.shape[3] != 4:
        raise ValueError(f"expected (nz, ny, nx, 4) volume, got {rgba_volume.shape}")
    camera = camera or Camera()
    shape3 = rgba_volume.shape[:3]
    skip = build_alpha_skip_grid(rgba_volume[..., 3], cell)
    grad = None
    if shading_field is not None:
        field = np.asarray(shading_field, dtype=np.float32)
        if field.shape != shape3:
            raise ValueError("shading_field shape must match the RGBA volume grid")
        grad = np.ascontiguousarray(np.stack(np.gradient(field), axis=-1))
    stack = np.ascontiguousarray(rgba_volume)
    return _render_fast("rgba_volume", stack, grad, None, skip, True, camera,
                        step, background, tile, ert_alpha)
