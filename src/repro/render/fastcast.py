"""Tiled fast rendering with empty-space skipping (ESS) + ERT.

The paper renders classification results with fragment programs on a
GeForce 6800 and scales frames across a PC cluster (Secs. 7–8); the
software reference in :mod:`repro.render.raycast` reproduces the
*semantics* of that renderer but marches every ray through every sample
shell.  This module is the fast path, five ideas deep:

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
   empty-cell set is octree-encoded on demand
   (:class:`repro.segmentation.octree.OctreeMask`) so the skip regions
   are enumerable — the soundness tests re-certify every skipped leaf.
3. **Early ray termination.**  Configurable ``ert_alpha``; at the
   reference's own cutoff (:data:`repro.render.raycast.ALPHA_CUTOFF`,
   the default) termination is identical to the reference.  Rays join a
   compact active set at their entry shell and leave it once terminated
   or past the box.
4. **Opacity-first samples and the outside constant.**  A sampled point's
   opacity comes first; only nonzero-opacity samples are colored, get
   the gradient gather and Phong shading, and composite.  Every point off
   the grid reads the same value 0.0, so when the transfer function
   makes it visible the frame shades it once and tabulates a ray's state
   after ``k`` such samples: each ray starts at its box entry from that
   table (rays it terminates, or that miss the box, never march), and
   after the box exit the constant composites without sampling.
5. **Build only what a frame shades.**  The shading gradient is a
   zero-filled buffer whose z-slices are built, by the reference's own
   float32 difference operations, the first time a shaded in-volume
   sample's trilinear corners reach them; a frame whose feature sits in
   a few slices, or whose rays die in the outside fog, builds few or
   none.  A view's rays and box sample ranges are computed once per
   process (a small memo keyed by camera, grid shape and step) and
   every frame and tile of that view slices the same read-only arrays.

Equivalence is the load-bearing property: a skipped sample provably
contributes *exactly zero* opacity, the outside table is built by the
kernel's own float32 ops, front-to-back compositing is elementwise per
ray, and a shaded in-volume sample gathers the bytes the reference's
whole-volume gradient holds (an outside sample gathers zero either way),
so at the default ``ert_alpha`` the fast path is
**bit-identical** to :func:`repro.render.raycast.render_volume` /
``render_rgba_volume`` — and bit-identical to itself across any tile
size.  Lower ``ert_alpha`` trades a bounded tail of the compositing sum
(|Δ| ≤ 1 − ert_alpha per channel) for speed.  None of these certificates
holds for a NaN or infinite voxel, so such a frame renders through the
reference caster.  ``tests/test_fastcast.py`` pins all of this
differentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

from repro.obs import get_metrics
from repro.render.camera import Camera
from repro.render.image import Image
from repro.render.raycast import (
    ALPHA_CUTOFF,
    _sample,
    _sample_channels,
    render_rgba_volume,
    render_volume,
)
from repro.render.shading import check_shading_shape, phong_shade
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
    directly).  The empty-cell set is octree-encoded on first access
    (:attr:`empty_octree`) so skip regions can be enumerated and audited;
    marching reads ``occupied`` alone.
    """

    cell: int
    occupied: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @cached_property
    def empty_octree(self) -> OctreeMask:
        """The certified-empty cells, octree-encoded."""
        return OctreeMask.from_mask(~self.occupied)

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
    return SkipGrid(cell=cell, occupied=occupied, lo=lo, hi=hi)


def build_alpha_skip_grid(alpha: np.ndarray, cell: int) -> SkipGrid:
    """Macro-cell certificate for a precomputed RGBA volume's alpha field."""
    lo, hi = minmax_pool(alpha, cell)
    lo, hi = _dilate_bounds(lo, hi)
    return SkipGrid(cell=cell, occupied=hi > 0.0)


# --------------------------------------------------------------------- #
# Rays and ray marching (one tile)
# --------------------------------------------------------------------- #
def _ray_sample_ranges(origins: np.ndarray, directions: np.ndarray, shape3,
                       step: float, n_samples: int):
    """Conservative per-ray sample-index range intersecting the volume box.

    Slab intersection in float64 with the range widened by one sample on
    each side, so FP error can only *add* out-of-box samples — those are
    re-tested exactly per sample and contribute nothing.  Rays missing
    the box by more than two steps get the empty range ``(0, -1)``; only
    they can carry infinite slab parameters (a ray parallel to a slab it
    lies outside of), so they are set aside before the integer casts.
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
    hit = ~(tlo > thi + 2.0 * step)
    s_min = np.zeros(len(o), dtype=np.int64)
    s_max = np.full(len(o), -1, dtype=np.int64)
    s_min[hit] = np.clip(np.floor(tlo[hit] / step).astype(np.int64) - 1,
                         0, n_samples - 1)
    s_max[hit] = np.clip(np.ceil(thi[hit] / step).astype(np.int64) + 1,
                         -1, n_samples - 1)
    return s_min, s_max


@lru_cache(maxsize=4)
def _view_rays(camera: Camera, shape3: tuple, step: float):
    """``(origins, directions, n_samples, s_min, s_max)`` of ``camera``'s
    rays through a ``shape3`` grid, one row per pixel, read-only.

    Computed once per process per view: a run renders all its frames
    from one view, and the ranges are elementwise per ray, so every frame
    and tile slices one set.
    """
    origins, directions, n_samples = camera.ray_grid(shape3, step=step)
    s_min, s_max = _ray_sample_ranges(origins, directions, shape3, step,
                                      n_samples)
    for array in (origins, directions, s_min, s_max):
        array.setflags(write=False)
    return origins, directions, n_samples, s_min, s_max


# --------------------------------------------------------------------- #
# Shading gradient, built where shaded samples read it
# --------------------------------------------------------------------- #
def _gradient_rows(f: np.ndarray, axis: int, lo: int, hi: int,
                   out: np.ndarray) -> None:
    """Rows ``lo:hi`` along ``axis`` of :func:`numpy.gradient`, into ``out``.

    Its float32 operations at unit spacing: central differences halved
    inside, one-sided differences at the two faces (it divides those by
    1.0, which is exact, so that division is left out).
    """
    f, out = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    n = len(f)
    i0, i1 = max(lo, 1), min(hi, n - 1)
    if i0 < i1:
        dst = out[i0 - lo:i1 - lo]
        np.subtract(f[i0 + 1:i1 + 1], f[i0 - 1:i1 - 1], out=dst)
        dst /= 2.0
    if lo == 0:
        np.subtract(f[1], f[0], out=out[0])
    if hi == n:
        np.subtract(f[n - 1], f[n - 2], out=out[hi - lo - 1])


class _GradientSlices:
    """The reference casters' whole-volume gradient stack, built z-slices
    at a time.

    The channels-last float32 buffer (one :func:`numpy.gradient`
    component per channel) starts as zeros.  Before each gather,
    the z-slices the trilinear corners of the in-volume samples reach,
    ``[floor(z_min), floor(z_max) + 2)``, are built in whole blocks of
    ``block`` slices (:func:`_gradient_rows`: the y and x components from
    the slice itself, the z component from the slices either side).  A
    sample off the grid builds nothing: :func:`_sample_channels` zeroes it
    whatever its corners hold, and unbuilt slices hold finite zeros.
    """

    def __init__(self, field: np.ndarray, block: int):
        check_shading_shape(field.shape)
        self.field = field
        self.block = block
        self.grad = np.zeros(field.shape + (3,), dtype=np.float32)
        self.built = np.zeros(-(-field.shape[0] // block), dtype=bool)
        self.complete = False

    def sample(self, coords: np.ndarray) -> np.ndarray:
        """Trilinear gradient at ``coords``, as from the whole-volume stack."""
        if not self.complete:
            self._build_for(coords)
        return _sample_channels(self.grad, coords)

    def _build_for(self, coords: np.ndarray) -> None:
        nz, ny, nx = self.field.shape
        z, y, x = coords[:, 0], coords[:, 1], coords[:, 2]
        inside = ((z >= 0) & (z <= nz - 1) & (y >= 0) & (y <= ny - 1)
                  & (x >= 0) & (x <= nx - 1))
        if not inside.any():
            return
        z = z[inside]
        first = int(np.floor(z.min())) // self.block
        last = min(int(np.floor(z.max())) + 1, nz - 1) // self.block
        todo = np.flatnonzero(~self.built[first:last + 1]) + first
        for b in todo.tolist():
            self._build(b * self.block, min((b + 1) * self.block, nz))
        self.built[todo] = True
        self.complete = bool(self.built.all())

    def _build(self, lo: int, hi: int) -> None:
        f, slab = self.field, self.grad[lo:hi]
        _gradient_rows(f, 0, lo, hi, slab[..., 0])
        _gradient_rows(f[lo:hi], 1, 0, f.shape[1], slab[..., 1])
        _gradient_rows(f[lo:hi], 2, 0, f.shape[2], slab[..., 2])
        get_metrics().counter("render.fast.gradient_slices").inc(hi - lo)


def _composite(accum_rgb, accum_a, rays, rgb, alpha) -> None:
    """One front-to-back compositing step of the rays ``rays``.

    The float32 ops of :func:`repro.render.raycast._composite_shells`,
    shared by the shell loop, the outside-constant table and the
    post-exit constant, so all three round exactly like the reference.
    """
    weight = (1.0 - accum_a[rays]) * alpha
    accum_rgb[rays] += weight[:, None] * rgb
    accum_a[rays] += weight


@dataclass(frozen=True)
class _Outside:
    """The shaded sample every point off the grid yields, and the ray
    state after ``k`` of them (``k = 0, 1, ...``, frozen at termination).

    ``alpha`` is step-corrected; when it is zero the outside is
    transparent and the table holds the zero state alone.
    """

    rgb: np.ndarray          # (1, 3) float32
    alpha: np.ndarray        # (1,) float32
    table_rgb: np.ndarray    # (K, 3) float32
    table_a: np.ndarray      # (K,) float32

    @property
    def opaque(self) -> bool:
        """Whether outside samples composite at all."""
        return bool(self.alpha[0] != 0.0)


def _outside_constant(sample_alpha, color_of, shade_fn, step: float, n_samples: int,
                      ert_alpha: float) -> _Outside:
    """Sample, shade and tabulate the constant outside the volume.

    Trilinear sampling in ``constant`` mode reads exactly 0.0 (and a zero
    gradient, Phong's flat branch) at every point off the grid, so one
    such point, pushed through the kernel's own sampling, coloring, shading
    functions and compositing step, stands for all of them.
    """
    point = np.full((1, 3), -1.0, dtype=np.float32)
    alpha, payload = sample_alpha(point)
    if step != 1.0:
        alpha = 1.0 - np.power(1.0 - alpha, step)
    rgb = color_of(payload)
    if shade_fn is not None:
        rgb = shade_fn(rgb, point)
    ray = np.zeros(1, dtype=np.intp)
    acc_rgb = np.zeros((1, 3), dtype=np.float32)
    acc_a = np.zeros(1, dtype=np.float32)
    rows_rgb, rows_a = [acc_rgb.copy()], [acc_a.copy()]
    if alpha[0] != 0.0:
        for _ in range(n_samples):
            _composite(acc_rgb, acc_a, ray, rgb, alpha)
            rows_rgb.append(acc_rgb.copy())
            rows_a.append(acc_a.copy())
            if acc_a[0] >= ert_alpha:
                break
    return _Outside(rgb=rgb, alpha=alpha, table_rgb=np.concatenate(rows_rgb),
                    table_a=np.concatenate(rows_a))


def _march_tile(origins, directions, s_min, s_max, n_samples, step, ert_alpha,
                occupied, cell, shape3, outside, sample_alpha, color_of,
                shade_fn):
    """Front-to-back composite one tile's rays with ESS + ERT.

    Mirrors :func:`repro.render.raycast._composite_shells` operation for
    operation, but each sample pays only for what can change its pixel:

    - samples in certified-empty cells (and outside samples, when the
      outside is transparent) are never sampled;
    - a sampled point's step-corrected opacity comes first, and only
      nonzero-opacity samples are colored, shaded and composited — a
      zero-opacity sample adds exactly +0.0 in the reference;
    - every sample before a ray's conservative box entry ``s_min`` (from
      :func:`_ray_sample_ranges`, read-only) is the outside constant, so
      the ray starts from ``outside``'s table (rays the table terminates,
      and rays missing the box, never enter the shell loop), and after
      the box exit the constant composites per shell without sampling;
    - rays sorted by entry shell join the active set when their shell
      arrives and leave it once terminated or past ``s_max``.
    """
    nz, ny, nx = shape3
    s_min = np.where(s_min > s_max, n_samples, s_min)   # a miss meets only the outside
    start = np.minimum(s_min, len(outside.table_a) - 1)
    accum_rgb = outside.table_rgb[start]
    accum_a = outside.table_a[start]
    enter = np.flatnonzero((s_min <= s_max) & (accum_a < ert_alpha))
    enter = enter[np.argsort(s_min[enter], kind="stable")]
    entry = s_min[enter]
    skipped = 0
    occ_flat = None
    if occupied is not None:
        occ_flat = np.ascontiguousarray(occupied, dtype=bool).ravel()
        cdims = occupied.shape
    act = np.zeros(0, dtype=np.intp)    # rays inside [s_min, s_max]
    post = np.zeros(0, dtype=np.intp)   # rays past s_max, opaque outside
    admitted = 0
    s = int(entry[0]) if enter.size else n_samples
    while s < n_samples:
        if admitted < enter.size and entry[admitted] <= s:
            upto = int(np.searchsorted(entry, s, side="right"))
            act = np.concatenate((act, enter[admitted:upto]))
            admitted = upto
        if post.size:
            _composite(accum_rgb, accum_a, post, outside.rgb, outside.alpha)
            post = post[accum_a[post] < ert_alpha]
        if act.size:
            coords = origins[act] + (s * step) * directions[act]
            z, y, x = coords[:, 0], coords[:, 1], coords[:, 2]
            inside = ((z >= 0) & (z <= nz - 1) & (y >= 0) & (y <= ny - 1)
                      & (x >= 0) & (x <= nx - 1))
            # Outside samples read the constant 0.0: they are sampled only
            # when the outside composites.
            sampled = ~inside if outside.opaque else np.zeros(act.size, dtype=bool)
            if occ_flat is not None:
                ck = np.floor(coords[inside] * (1.0 / cell)).astype(np.intp)
                flat = (ck[:, 0] * cdims[1] + ck[:, 1]) * cdims[2] + ck[:, 2]
                sampled[inside] = occ_flat[flat]
            else:
                sampled[inside] = True
            pos = np.flatnonzero(sampled)
            skipped += int(act.size - pos.size)
            dead = pos[:0]
            if pos.size:
                pcoords = coords[pos]
                alpha, payload = sample_alpha(pcoords)
                if step != 1.0:
                    alpha = 1.0 - np.power(1.0 - alpha, step)
                shown = np.flatnonzero(alpha)
                if shown.size:
                    rgb = color_of(payload[shown])
                    if shade_fn is not None:
                        rgb = shade_fn(rgb, pcoords[shown])
                    pos = pos[shown]
                    rays = act[pos]
                    _composite(accum_rgb, accum_a, rays, rgb, alpha[shown])
                    dead = pos[accum_a[rays] >= ert_alpha]
            leaving = s_max[act] <= s
            leaving[dead] = False
            keep = ~leaving
            keep[dead] = False
            if outside.opaque and leaving.any():
                post = np.concatenate((post, act[leaving]))
            act = act[keep]
        if not (act.size or post.size):
            if admitted == enter.size:
                break
            s = int(entry[admitted])
            continue
        s += 1
    stats = {"samples_skipped": skipped,
             "rays_terminated_early": int(np.count_nonzero(accum_a >= ert_alpha))}
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


def check_ert_alpha(ert_alpha: float) -> None:
    """The early-ray-termination threshold must lie in (0, 1].

    The fast entry points, ``repro render --ert-alpha`` and serve render
    bodies check it with this before any work is done (a run config's
    ``fast_options`` state the same rule).
    """
    if not 0.0 < ert_alpha <= 1.0:
        raise ValueError(f"ert_alpha must be in (0, 1], got {ert_alpha}")


def _render_fast(mode: str, field: np.ndarray, grad: _GradientSlices | None,
                 tf: TransferFunction1D | None, skip: SkipGrid,
                 camera: Camera, step: float, background, tile: int | None,
                 ert_alpha: float) -> Image:
    """Shared tile loop of the two public entry points."""
    shape3 = field.shape[:3]
    origins, directions, n_samples, s_min, s_max = _view_rays(camera, shape3, step)
    height, width = camera.height, camera.width
    tile = max(height, width) if tile is None else int(tile)
    boxes = tile_boxes(height, width, tile)
    o_grid = origins.reshape(height, width, 3)
    d_grid = directions.reshape(height, width, 3)
    lo_grid = s_min.reshape(height, width)
    hi_grid = s_max.reshape(height, width)
    occupied = None if skip.occupied.all() else skip.occupied

    if tf is not None:

        def sample_alpha(coords):
            values = _sample(field, coords)
            return tf.opacity_at(values).astype(np.float32), values

        def color_of(values):
            return tf.color_at(values).astype(np.float32)

    else:

        def sample_alpha(coords):
            samples = _sample_channels(field, coords)
            return np.clip(samples[:, 3], 0.0, 1.0), samples

        def color_of(samples):
            return samples[:, :3]

    if grad is not None:
        forward, _, _ = camera.basis()
        to_viewer = (-forward).astype(np.float32)

        def shade_fn(rgb, coords):
            g = grad.sample(coords)
            return phong_shade(rgb, g, light_dir=to_viewer, view_dir=to_viewer)

    else:
        shade_fn = None

    pixels = np.empty((height, width, 4), dtype=np.float32)
    totals = {"samples_skipped": 0, "rays_terminated_early": 0}
    metrics = get_metrics()
    with metrics.span(f"render.fast.{mode}", pixels=height * width,
                      samples=n_samples, tiles=len(boxes), tile=tile,
                      ert_alpha=ert_alpha, cells_total=skip.cells_total,
                      cells_empty=skip.cells_empty):
        outside = _outside_constant(sample_alpha, color_of, shade_fn, step,
                                    n_samples, ert_alpha)
        for r0, r1, c0, c1 in boxes:
            rgb, alpha, tile_stats = _march_tile(
                np.ascontiguousarray(o_grid[r0:r1, c0:c1]).reshape(-1, 3),
                np.ascontiguousarray(d_grid[r0:r1, c0:c1]).reshape(-1, 3),
                lo_grid[r0:r1, c0:c1].ravel(), hi_grid[r0:r1, c0:c1].ravel(),
                n_samples, step, ert_alpha, occupied, skip.cell, shape3,
                outside, sample_alpha, color_of, shade_fn)
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
    check_ert_alpha(ert_alpha)
    if not np.isfinite(data).all():
        # No certificate holds for a non-finite voxel (its cell bounds
        # certify nothing, and a NaN color survives a zero weight).
        return render_volume(data, tf, camera=camera, step=step,
                             shading=shading, background=background)
    camera = camera or Camera()
    skip = build_skip_grid(data, tf, cell)
    grad = None
    if shading:
        grad = _GradientSlices(data.astype(np.float32, copy=False), cell)
    return _render_fast("volume", data, grad, tf, skip, camera, step,
                        background, tile, ert_alpha)


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
    check_ert_alpha(ert_alpha)
    shape3 = rgba_volume.shape[:3]
    field = None
    if shading_field is not None:
        field = np.asarray(shading_field, dtype=np.float32)
        if field.shape != shape3:
            raise ValueError("shading_field shape must match the RGBA volume grid")
    if not (np.isfinite(rgba_volume).all()
            and (field is None or np.isfinite(field).all())):
        return render_rgba_volume(rgba_volume, camera=camera, step=step,
                                  shading_field=field, background=background)
    camera = camera or Camera()
    skip = build_alpha_skip_grid(rgba_volume[..., 3], cell)
    grad = None if field is None else _GradientSlices(field, cell)
    stack = np.ascontiguousarray(rgba_volume)
    return _render_fast("rgba_volume", stack, grad, None, skip, camera, step,
                        background, tile, ert_alpha)
