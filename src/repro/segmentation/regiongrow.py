"""Seeded region growing in 3D and 4D.

The paper extracts features as *"connected nodes that satisfy a certain
criteria"* where the criterion is an arbitrary classification function
(Sec. 2), and tracks them with *"4D region growing where the fourth
dimension is time"* (Sec. 5).  Correspondingly the API here takes the
criterion as an already-evaluated boolean mask — the caller brings a
transfer function, an adaptive IATF, or a neural-network classification;
the grower is agnostic.

Three backends:

- ``"scipy"`` — :func:`scipy.ndimage.binary_propagation`, the serial
  reference (iterated dilation, O(region diameter) array sweeps);
- ``"bricked"`` — :func:`repro.segmentation.fastgrow.grow_bricked`:
  label the criterion, select the seeded components — exact, one
  labeling pass instead of diameter-many sweeps;
- ``"frontier"`` — an in-repo vectorized breadth-first frontier expansion
  (pure numpy slicing, no wraparound), used as an independent
  cross-check in the test suite and as a fallback.

Both support face connectivity (``connectivity=1``) and full neighbourhoods
(``connectivity=ndim``), in any dimension — the 4D grower just calls the
same machinery on a ``[t, z, y, x]`` stack.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def _seeds_to_mask(seeds, shape) -> np.ndarray:
    """Normalize ``seeds`` (mask or list of index tuples) to a boolean mask."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == bool:
        if seeds.shape != tuple(shape):
            raise ValueError(f"seed mask shape {seeds.shape} != criterion shape {shape}")
        return seeds
    mask = np.zeros(shape, dtype=bool)
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        return mask
    if seeds.shape[1] != len(shape):
        raise ValueError(
            f"seed points must have {len(shape)} coordinates, got {seeds.shape[1]}"
        )
    for axis, n in enumerate(shape):
        coords = seeds[:, axis]
        if coords.min() < 0 or coords.max() >= n:
            raise IndexError(f"seed coordinate out of range along axis {axis}")
    mask[tuple(seeds.T)] = True
    return mask


def _structure(ndim: int, connectivity: int) -> np.ndarray:
    if not 1 <= connectivity <= ndim:
        raise ValueError(f"connectivity must be in [1, {ndim}], got {connectivity}")
    return ndimage.generate_binary_structure(ndim, connectivity)


def _grow_frontier(criterion: np.ndarray, seeds: np.ndarray, connectivity: int) -> np.ndarray:
    """Vectorized BFS: expand the frontier one shell per iteration.

    Face connectivity shifts the frontier ±1 along each axis via slicing
    (no wraparound); higher connectivity falls back to a per-iteration
    binary dilation with the matching structuring element.  Each iteration
    is O(volume) vectorized work; iteration count is the grown region's
    graph diameter.
    """
    ndim = criterion.ndim
    grown = seeds & criterion
    frontier = grown.copy()
    use_slicing = connectivity == 1
    structure = None if use_slicing else _structure(ndim, connectivity)
    while frontier.any():
        if use_slicing:
            neighbour = np.zeros_like(frontier)
            for axis in range(ndim):
                src_lo = [slice(None)] * ndim
                dst_lo = [slice(None)] * ndim
                src_lo[axis] = slice(1, None)
                dst_lo[axis] = slice(None, -1)
                # shift -1 along axis: frontier[i+1] reaches cell i
                neighbour[tuple(dst_lo)] |= frontier[tuple(src_lo)]
                # shift +1 along axis: frontier[i-1] reaches cell i
                neighbour[tuple(src_lo)] |= frontier[tuple(dst_lo)]
        else:
            neighbour = ndimage.binary_dilation(frontier, structure=structure)
        frontier = neighbour & criterion & ~grown
        grown |= frontier
    return grown


def grow_region(criterion, seeds, connectivity: int = 1, backend: str = "scipy") -> np.ndarray:
    """Grow from ``seeds`` through ``criterion`` (nD boolean mask).

    Parameters
    ----------
    criterion:
        Boolean array: voxels eligible for membership.  This is where the
        "arbitrary-dimensional classification function" plugs in — evaluate
        it first, pass the mask here.
    seeds:
        Boolean mask of the same shape, or an ``(n, ndim)`` array / single
        tuple of index coordinates.  Seeds outside the criterion are
        dropped (they simply fail the membership test).
    connectivity:
        1 = face neighbours (the paper's flood fill), up to ``ndim`` for
        full neighbourhoods.
    backend:
        ``"scipy"`` (default), ``"bricked"`` (label-and-select, see
        :mod:`repro.segmentation.fastgrow`), or ``"frontier"`` (in-repo
        BFS).

    Returns
    -------
    Boolean mask of the connected region(s) reachable from the seeds.
    """
    criterion = np.asarray(criterion, dtype=bool)
    seed_mask = _seeds_to_mask(seeds, criterion.shape)
    if backend == "frontier":
        return _grow_frontier(criterion, seed_mask, connectivity)
    if backend == "bricked":
        from repro.segmentation.fastgrow import grow_bricked

        return grow_bricked(criterion, seed_mask, connectivity=connectivity)
    if backend == "scipy":
        structure = _structure(criterion.ndim, connectivity)
        return ndimage.binary_propagation(
            seed_mask & criterion, mask=criterion, structure=structure
        )
    raise ValueError(
        f"unknown backend {backend!r}; expected 'scipy', 'bricked' or 'frontier'"
    )


def grow_4d(criteria, seeds, time_connect: bool = True, connectivity: int = 1,
            backend: str = "scipy") -> np.ndarray:
    """4D region growing over a time-stack of criterion masks (Sec. 5).

    Parameters
    ----------
    criteria:
        Sequence of 3D boolean masks (one per time step) or a 4D array
        ``[t, z, y, x]``.  For adaptive tracking each step's mask comes
        from that step's IATF-generated transfer function.
    seeds:
        Boolean 4D mask, or ``(n, 4)`` coordinates ``(t, z, y, x)``.
        Seeding only the first step and letting growth cross time is the
        paper's usage.
    time_connect:
        When True (default) the region may spread to the same voxel in
        adjacent steps — the temporal-overlap tracking assumption.  When
        False each step grows independently (degenerates to per-step 3D
        extraction, useful for ablation).

    Memory
    ------
    This function materializes the **entire** 4D stack: the criteria
    array plus the grown output are O(T · volume) resident at once, and
    the ``"scipy"`` backend's propagation allocates further full-stack
    scratch per sweep.  It is therefore the differential-test oracle,
    not a production path: every :class:`repro.core.tracking.FeatureTracker`
    entry point runs a :class:`~repro.core.tracking.TrackStream`, which
    holds one unpacked step plus two bit-packed planes per step and
    reaches this function's exact fixpoint.

    Returns
    -------
    4D boolean mask ``[t, z, y, x]`` of the tracked feature.
    """
    stack = np.asarray(criteria, dtype=bool)
    if stack.ndim != 4:
        raise ValueError(f"criteria must stack to 4D [t,z,y,x], got ndim={stack.ndim}")
    seed_mask = _seeds_to_mask(seeds, stack.shape)
    if time_connect:
        return grow_region(stack, seed_mask, connectivity=connectivity, backend=backend)
    out = np.zeros_like(stack)
    for t in range(stack.shape[0]):
        if seed_mask[t].any():
            out[t] = grow_region(
                stack[t], seed_mask[t], connectivity=connectivity, backend=backend
            )
    return out
