"""Feature tracking with fixed and adaptive criteria (paper Sec. 5).

Tracking is 4D region growing: stack per-step criterion masks into a
``[t, z, y, x]`` array, seed the feature at one step, and grow — temporal
adjacency carries the region across steps as long as consecutive
occurrences overlap in 3D (the paper's sufficient-temporal-sampling
assumption).

Two criteria:

- **fixed** — a constant data-value range, the conventional baseline.
  When the feature's values drift out of the range (the swirl dataset),
  the criterion mask loses the feature mid-sequence (Fig. 10, top row).
- **adaptive** — each step's mask comes from that step's IATF-generated
  transfer function (*"the adaptive transfer function … is used as the
  region growing criteria"*).  The criterion follows the drifting values
  and tracking survives to the last step (Fig. 10, bottom row).

The result object carries per-step masks (the "3D volume texture" the
renderer consumes), voxel counts, and the event timeline (Fig. 9's split).

Two execution engines and two consumption models:

- ``engine="scipy"`` (default) grows with ``binary_propagation``;
  ``engine="bricked"`` decomposes the domain into bricks labeled
  independently (optionally process-parallel) and merged by union-find
  (:mod:`repro.segmentation.fastgrow`) — voxel-identical, much faster on
  long stacks.
- ``track_fixed``/``track_adaptive`` materialize the full ``[t,z,y,x]``
  criteria stack; :meth:`FeatureTracker.track_streaming` consumes
  timesteps one at a time (straight from a saved sequence directory if
  desired) and keeps peak memory independent of the sequence length
  while producing the identical tracked region.  Streaming per-step
  grows always route through the fastgrow engine (sparse voxel-graph at
  typical criterion fills), so streaming matches or beats serial 4D
  growth on wall clock too; ``prefetch=True`` additionally loads
  timestep *t+1* on a background thread while *t* grows, for sources
  where the per-step I/O is the bottleneck.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from repro.core.iatf import AdaptiveTransferFunction
from repro.obs import get_metrics
from repro.segmentation.components import label_components
from repro.segmentation.events import (
    TrackEvent,
    detect_events,
    merge_match_events,
    track_timeline,
)
from repro.segmentation.fastgrow import grow_bricked
from repro.segmentation.regiongrow import _structure, grow_4d
from repro.volume.grid import VolumeSequence


@dataclass
class TrackResult:
    """Outcome of tracking one feature through a sequence.

    Attributes
    ----------
    masks:
        4D boolean array ``[step, z, y, x]`` — per-step tracked voxels.
    times:
        Simulation step ids, aligned with ``masks``.
    criterion:
        ``"fixed"`` or ``"adaptive"``.
    """

    masks: np.ndarray
    times: list[int]
    criterion: str
    _events: list[TrackEvent] | None = field(default=None, repr=False)
    match_events: list[TrackEvent] = field(default_factory=list, repr=False)

    def mask_at(self, time: int) -> np.ndarray:
        """Tracked mask at simulation step id ``time``."""
        return self.masks[self.times.index(time)]

    @property
    def voxel_counts(self) -> list[int]:
        """Tracked voxels per step — drops to 0 when tracking loses the
        feature (the Fig. 10 diagnostic)."""
        return [int(m.sum()) for m in self.masks]

    @property
    def events(self) -> list[TrackEvent]:
        """Continuation/split/merge/birth/death timeline of the tracked
        feature (computed lazily from per-step component labelings), in
        canonical ``(time, component-id)`` order.  When the tracker's
        descriptor fallback fired, its ``lost``/``reacquired`` lineage
        events are folded in, superseding the spurious death/birth the
        overlap timeline would otherwise report at the gap."""
        if self._events is None:
            labelings = [label_components(m)[0] for m in self.masks]
            self._events = merge_match_events(
                track_timeline(labelings, times=self.times), self.match_events)
        return self._events

    def component_counts(self) -> list[int]:
        """Connected-component count per step (2 after the Fig. 9 split)."""
        return [label_components(m)[1] for m in self.masks]


def _pack_mask(mask: np.ndarray) -> np.ndarray:
    """Bit-pack a boolean step mask (8 voxels per byte)."""
    return np.packbits(mask.ravel())


def _unpack_mask(packed: np.ndarray, shape) -> np.ndarray:
    """Recover a boolean step mask from its bit-packed form."""
    count = int(np.prod(shape))
    return np.unpackbits(packed, count=count).view(np.bool_).reshape(shape)


class StreamingTrackResult:
    """Outcome of :meth:`FeatureTracker.track_streaming`.

    Per-step masks are held bit-packed (one byte per 8 voxels), so the
    result of a long run costs T/8 "timesteps" of memory instead of T;
    everything the eager :class:`TrackResult` offers is recomputed from
    the packed store on demand, touching at most two unpacked steps at a
    time.
    """

    def __init__(self, shape, times: list[int], criterion: str,
                 packed_masks: list[np.ndarray], voxel_counts: list[int],
                 sweeps: int, match_events: list[TrackEvent] | None = None) -> None:
        self.shape = tuple(shape)
        self.times = list(times)
        self.criterion = criterion
        self.sweeps = int(sweeps)
        self._packed = packed_masks
        self._voxel_counts = [int(c) for c in voxel_counts]
        self._events: list[TrackEvent] | None = None
        self.match_events = list(match_events or [])

    def step_mask(self, index: int) -> np.ndarray:
        """Tracked mask at sequence position ``index`` (unpacked copy)."""
        return _unpack_mask(self._packed[index], self.shape)

    def mask_at(self, time: int) -> np.ndarray:
        """Tracked mask at simulation step id ``time``."""
        return self.step_mask(self.times.index(time))

    @property
    def masks(self) -> np.ndarray:
        """Materialized 4D ``[step, z, y, x]`` mask stack.

        This is the one accessor that costs O(T · volume); use
        :meth:`step_mask` / :meth:`mask_at` to stay streaming.
        """
        return np.stack([self.step_mask(i) for i in range(len(self.times))], axis=0)

    @property
    def voxel_counts(self) -> list[int]:
        """Tracked voxels per step (recorded during the run)."""
        return list(self._voxel_counts)

    @property
    def events(self) -> list[TrackEvent]:
        """Same continuation/split/merge/birth/death timeline as
        :attr:`TrackResult.events`, computed pairwise so only two steps
        are ever unpacked at once — same canonical ordering, same
        folding-in of descriptor-matching lineage events."""
        if self._events is None:
            events: list[TrackEvent] = []
            prev_labels = None
            for i, time in enumerate(self.times):
                labels = label_components(self.step_mask(i))[0]
                if prev_labels is not None:
                    events.extend(detect_events(prev_labels, labels,
                                                time_a=self.times[i - 1],
                                                time_b=time))
                prev_labels = labels
            self._events = merge_match_events(events, self.match_events)
        return self._events

    def component_counts(self) -> list[int]:
        """Connected-component count per step."""
        return [label_components(self.step_mask(i))[1]
                for i in range(len(self.times))]

    def to_result(self) -> TrackResult:
        """Materialize into an eager :class:`TrackResult`."""
        return TrackResult(masks=self.masks, times=list(self.times),
                           criterion=self.criterion,
                           match_events=list(self.match_events))


class FeatureTracker:
    """Track a feature through a :class:`VolumeSequence`.

    Parameters
    ----------
    connectivity:
        Spatial/temporal connectivity of the 4D growth (1 = faces).
    opacity_threshold:
        Opacity above which a voxel passes an adaptive TF criterion.
    engine:
        ``"scipy"`` — serial ``binary_propagation`` reference;
        ``"bricked"`` — brick-decomposed label-and-select
        (:mod:`repro.segmentation.fastgrow`), voxel-identical and
        optionally process-parallel.
    brick_shape:
        Spatial ``(bz, by, bx)`` brick interior for the bricked engine
        (``None`` = one brick per timestep for 4D growth, one brick per
        volume for streaming steps).
    workers:
        Fan per-brick labeling through the task farm when the bricked
        engine is selected (``workers`` > 1 uses the process backend).
    matcher:
        Optional :class:`~repro.features.matching.DescriptorMatcher`
        enabling the descriptor fallback: when cross-step seeding finds
        zero overlap (fast motion, occlusion), candidate components at
        the next step are matched against the lost feature's descriptor
        and the grow is re-seeded from the accepted match, with
        ``lost``/``reacquired`` lineage events surfacing in the result's
        ``events``.  The fallback only ever runs on steps where plain
        growth produced *nothing*, so whenever overlap exists the tracked
        region is bit-identical to ``matcher=None`` (the default).
        Tracking with a matcher consumes voxel data alongside each
        criterion (descriptors are value histograms + moments), so
        matcher-enabled streaming holds one step's voxels during its
        push.
    """

    def __init__(self, connectivity: int = 1, opacity_threshold: float = 0.05,
                 engine: str = "scipy", brick_shape=None,
                 workers: int | None = None, matcher=None) -> None:
        if not 0.0 <= opacity_threshold < 1.0:
            raise ValueError(
                f"opacity_threshold must be in [0, 1), got {opacity_threshold}"
            )
        if engine not in ("scipy", "bricked"):
            raise ValueError(f"unknown engine {engine!r}; expected 'scipy' or 'bricked'")
        self.connectivity = int(connectivity)
        self.opacity_threshold = float(opacity_threshold)
        self.engine = engine
        self.brick_shape = None if brick_shape is None else tuple(int(b) for b in brick_shape)
        if self.brick_shape is not None and len(self.brick_shape) != 3:
            raise ValueError(f"brick_shape must be (bz, by, bx), got {brick_shape}")
        self.workers = workers
        self.matcher = matcher

    @property
    def _farm_backend(self) -> str:
        return "auto" if (self.workers or 1) > 1 else "serial"

    # ------------------------------------------------------------------ #
    # Criterion stacks
    # ------------------------------------------------------------------ #
    def fixed_criteria(self, sequence: VolumeSequence, lo: float, hi: float) -> np.ndarray:
        """Per-step masks for a constant value range ``[lo, hi]``."""
        if hi <= lo:
            raise ValueError(f"criterion range requires hi > lo, got ({lo}, {hi})")
        return np.stack(
            [(v.data >= lo) & (v.data <= hi) for v in sequence], axis=0
        )

    def adaptive_criteria(self, sequence: VolumeSequence,
                          iatf: AdaptiveTransferFunction) -> np.ndarray:
        """Per-step masks from the IATF's regenerated TF at each step.

        Regenerating the 1D TF per step is the sub-second operation Sec. 7
        mentions; the expensive part (whole-volume opacity lookup) is one
        vectorized table lookup per step.
        """
        masks = []
        for vol in sequence:
            tf = iatf.generate(vol)
            masks.append(tf.opacity_at(vol.data) > self.opacity_threshold)
        return np.stack(masks, axis=0)

    # ------------------------------------------------------------------ #
    # Tracking
    # ------------------------------------------------------------------ #
    def _track(self, sequence: VolumeSequence, criteria: np.ndarray, seed,
               criterion_name: str) -> TrackResult:
        seed = np.asarray(seed, dtype=np.int64).reshape(-1)
        if seed.shape != (4,):
            raise ValueError(
                f"seed must be a (step_index, z, y, x) 4-tuple, got shape {seed.shape}"
            )
        if self.matcher is not None:
            return self._track_matched(sequence, criteria, seed, criterion_name)
        if self.engine == "bricked":
            stack = np.asarray(criteria, dtype=bool)
            if stack.ndim != 4:
                raise ValueError(
                    f"criteria must stack to 4D [t,z,y,x], got ndim={stack.ndim}"
                )
            brick4d = None if self.brick_shape is None else (1, *self.brick_shape)
            grown = grow_bricked(
                stack, [tuple(seed)], connectivity=self.connectivity,
                brick_shape=brick4d, workers=self.workers,
                backend=self._farm_backend,
            )
        else:
            grown = grow_4d(criteria, [tuple(seed)], connectivity=self.connectivity)
        return TrackResult(masks=grown, times=list(sequence.times), criterion=criterion_name)

    def _track_matched(self, sequence: VolumeSequence, criteria, seed,
                       criterion_name: str) -> TrackResult:
        """Eager tracking with the descriptor fallback enabled.

        Routed through a push-mode :class:`TrackStream` so all three
        consumption models (eager, pull-streaming, push) share one
        matching code path; ``finalize(refine=True)`` reconciles to the
        4D-growth fixpoint, so whenever the fallback never fires the
        masks equal the plain :meth:`_track` result voxel for voxel.
        """
        criteria = np.asarray(criteria, dtype=bool)
        seeds_by_step = self._normalize_seeds(tuple(seed), criteria.shape[0])
        stream = TrackStream(self, seeds_by_step, criterion_name)
        for i, vol in enumerate(sequence):
            stream.push(int(vol.time), criteria[i], data=vol.data)
        streaming = stream.finalize(refine=True)
        return TrackResult(masks=streaming.masks, times=list(sequence.times),
                           criterion=criterion_name,
                           match_events=list(streaming.match_events))

    def track_fixed(self, sequence: VolumeSequence, seed, lo: float, hi: float) -> TrackResult:
        """Track with the conventional fixed value-range criterion.

        ``seed`` is ``(step_index, z, y, x)`` — step *index*, not id,
        matching the 4D stack's axis.
        """
        criteria = self.fixed_criteria(sequence, lo, hi)
        return self._track(sequence, criteria, seed, "fixed")

    def track_adaptive(self, sequence: VolumeSequence, seed,
                       iatf: AdaptiveTransferFunction) -> TrackResult:
        """Track with the IATF-driven adaptive criterion (the paper's
        contribution)."""
        criteria = self.adaptive_criteria(sequence, iatf)
        return self._track(sequence, criteria, seed, "adaptive")

    def track_with_criteria(self, sequence: VolumeSequence, criteria, seed,
                            name: str = "custom") -> TrackResult:
        """Track with caller-supplied per-step masks (e.g. a data-space
        classifier's thresholded certainty — extraction and tracking
        compose, Sec. 4.3 + Sec. 5)."""
        criteria = np.asarray(criteria, dtype=bool)
        if criteria.shape[0] != len(sequence):
            raise ValueError(
                f"criteria has {criteria.shape[0]} steps, sequence has {len(sequence)}"
            )
        return self._track(sequence, criteria, seed, name)

    # ------------------------------------------------------------------ #
    # Streaming tracking
    # ------------------------------------------------------------------ #
    def _resolve_streaming_criterion(self, lo, hi, iatf, criteria_fn, name):
        """Pick exactly one per-step criterion source; return (fn, label)."""
        picked = [criteria_fn is not None, iatf is not None,
                  lo is not None or hi is not None]
        if sum(picked) != 1:
            raise ValueError(
                "track_streaming needs exactly one criterion: criteria_fn=, "
                "iatf=, or lo=/hi="
            )
        if criteria_fn is not None:
            return (lambda vol: np.asarray(criteria_fn(vol), dtype=bool),
                    name or "custom")
        if iatf is not None:
            threshold = self.opacity_threshold

            def adaptive(vol):
                tf = iatf.generate(vol)
                return tf.opacity_at(vol.data) > threshold

            return adaptive, name or "adaptive"
        if lo is None or hi is None or hi <= lo:
            raise ValueError(f"criterion range requires hi > lo, got ({lo}, {hi})")

        def fixed(vol):
            # Build the band in-place: one transient bool instead of three
            # (this closure sets the streaming path's peak memory).
            crit = vol.data >= lo
            np.logical_and(crit, vol.data <= hi, out=crit)
            return crit

        return fixed, name or "fixed"

    @staticmethod
    def _step_loaders(source, mmap: bool, masks: bool = True):
        """``(time, load)`` pairs for a sequence or a saved sequence dir.

        A :class:`VolumeSequence` is consumed step by step; a path streams
        each step from disk through the sequence manifest
        (:func:`repro.parallel.streaming.sequence_step_stems`), so the
        parent never materializes the run.  ``masks=False`` skips the
        ground-truth mask bricks on disk loads — value criteria never
        read them, and not loading them keeps the streaming working set
        at voxels + criterion.
        """
        if isinstance(source, VolumeSequence):
            return [(vol.time, (lambda v=vol: v)) for vol in source]
        if isinstance(source, (str, Path)):
            from repro.parallel.streaming import sequence_step_stems
            from repro.volume.io import load_volume

            return [(time, (lambda s=stem: load_volume(s, mmap=mmap,
                                                       masks=masks)))
                    for time, stem in sequence_step_stems(source)]
        raise TypeError(
            f"source must be a VolumeSequence or a sequence directory path, "
            f"got {type(source).__name__}"
        )

    @staticmethod
    def _normalize_seeds(seed, n_steps: int | None) -> dict[int, list[tuple]]:
        """Group ``(step_index, z, y, x)`` seed(s) by step index.

        ``n_steps=None`` defers the upper range check — an open-ended
        :class:`TrackStream` does not know the step count until it is
        finalized.
        """
        seeds = np.atleast_2d(np.asarray(seed, dtype=np.int64))
        if seeds.ndim != 2 or seeds.shape[1] != 4 or seeds.shape[0] == 0:
            raise ValueError(
                f"seed must be one or more (step_index, z, y, x) 4-tuples, "
                f"got shape {np.asarray(seed).shape}"
            )
        by_step: dict[int, list[tuple]] = {}
        for row in seeds:
            step = int(row[0])
            if step < 0 or (n_steps is not None and step >= n_steps):
                raise IndexError(
                    f"seed step index {step} out of range for {n_steps} steps"
                )
            by_step.setdefault(step, []).append(tuple(int(c) for c in row[1:]))
        return by_step

    def _grow_step(self, criterion: np.ndarray, seed_mask: np.ndarray) -> np.ndarray:
        """Grow one 3D step — always through the fastgrow engine.

        Streaming steps are exactly the near-empty-criterion workload the
        ``"auto"`` strategy exists for: the sparse voxel-graph path costs
        O(set voxels) where ``binary_propagation`` costs O(volume) per
        step, which is what made streaming slower than serial 4D growth
        despite touching less data.  Both engines stay voxel-identical to
        the scipy reference; ``"bricked"`` adds the explicit brick /
        fan-out controls.
        """
        connectivity = min(self.connectivity, criterion.ndim)
        if self.engine == "bricked":
            return grow_bricked(
                criterion, seed_mask, connectivity=connectivity,
                brick_shape=self.brick_shape, workers=self.workers,
                backend=self._farm_backend,
            )
        return grow_bricked(criterion, seed_mask, connectivity=connectivity)

    def _cross_step_seeds(self, mask: np.ndarray) -> np.ndarray:
        """Voxels temporally adjacent to ``mask`` in a neighbouring step.

        ``generate_binary_structure(4, c)`` connects across time at
        spatial offsets of Manhattan length ≤ ``c - 1``; for the default
        face connectivity that is the same voxel, for higher
        connectivities a spatial dilation of the neighbouring step's mask.
        """
        if self.connectivity <= 1 or not mask.any():
            return mask
        structure = _structure(mask.ndim, min(self.connectivity - 1, mask.ndim))
        return ndimage.binary_dilation(mask, structure=structure)

    @staticmethod
    def _shift_mask(mask: np.ndarray, offset) -> np.ndarray:
        """Translate a mask by an integer offset, zero-filling (no wrap)."""
        out = np.zeros_like(mask)
        src: list[slice] = []
        dst: list[slice] = []
        for n, o in zip(mask.shape, offset):
            o = int(o)
            if abs(o) >= n:
                return out
            src.append(slice(max(0, -o), min(n, n - o)))
            dst.append(slice(max(0, o), min(n, n + o)))
        out[tuple(dst)] = mask[tuple(src)]
        return out

    def open_stream(self, seed, *, name: str = "custom",
                    predict_seeds: bool = False,
                    max_sweeps: int = 64) -> "TrackStream":
        """Open an open-ended push-mode tracking session.

        Unlike :meth:`track_streaming`, which pulls a known, complete
        source, the returned :class:`TrackStream` accepts criterion masks
        one at a time via :meth:`TrackStream.push` — including out of
        time order, as an in-situ follower sees them — and reconciles to
        the exact offline :func:`~repro.segmentation.regiongrow.grow_4d`
        fixpoint at :meth:`TrackStream.finalize`.
        """
        seeds_by_step = self._normalize_seeds(seed, None)
        return TrackStream(self, seeds_by_step, name,
                           predict=predict_seeds, max_sweeps=max_sweeps)

    def track_streaming(self, source, seed, *, lo: float | None = None,
                        hi: float | None = None,
                        iatf: AdaptiveTransferFunction | None = None,
                        criteria_fn=None, name: str | None = None,
                        refine: bool = True, predict_seeds: bool = False,
                        max_sweeps: int = 64, mmap: bool = False,
                        prefetch: bool = False,
                        sink=None) -> StreamingTrackResult:
        """Track while holding O(1 timestep) in memory instead of O(T).

        Steps are consumed one at a time — from an in-memory sequence or
        straight from a saved sequence directory — and each step's
        criterion mask is computed, used, and bit-packed away (adaptive
        criteria are generated incrementally instead of stacked).  Step
        *t+1* is seeded from the tracked mask at *t* (plus, with
        ``predict_seeds``, a motion-extrapolated copy of it in the
        prediction–verification spirit of
        :mod:`repro.segmentation.prediction`); forward/backward
        refinement sweeps over the packed store then repeat until the
        region stops changing, which makes the result voxel-identical to
        :func:`repro.segmentation.regiongrow.grow_4d` on the stacked
        criteria.

        Parameters
        ----------
        source:
            :class:`VolumeSequence`, or a path to a directory written by
            :func:`repro.volume.io.save_sequence`.
        seed:
            One or more ``(step_index, z, y, x)`` tuples.
        lo, hi / iatf / criteria_fn:
            Exactly one criterion source: a fixed value range, an
            adaptive transfer function, or a callable
            ``vol -> bool mask``.
        refine:
            Run forward/backward sweeps to an exact fixpoint (default).
            ``False`` keeps the single forward pass — cheaper, and
            identical whenever the feature never grows backward in time.
        predict_seeds:
            Additionally seed each step with the previous tracked mask
            shifted by its estimated motion — survives temporal sampling
            too coarse for spatial overlap, at the cost of exactness
            w.r.t. plain 4D growth.
        max_sweeps:
            Safety bound on refinement sweeps.
        mmap:
            Memory-map volumes when streaming from a directory.
        prefetch:
            Load + decode timestep *t+1* on a background thread while *t*
            is being classified and grown.  Worth enabling when the
            per-step load dominates (network filesystems, cold page
            cache, large bricks); off by default because the look-ahead
            keeps one extra in-flight volume resident and buys nothing
            when the data is already warm in memory.  Criterion
            callables always run on the calling thread either way.
        sink:
            Optional ``sink(time, mask)`` callback invoked with every
            final per-step mask (e.g. to write masks to disk without
            materializing the stack).
        """
        crit_fn, crit_name = self._resolve_streaming_criterion(
            lo, hi, iatf, criteria_fn, name)
        # Only a custom callable may look at ground-truth masks; the
        # built-in value/IATF criteria read voxels alone.
        loaders = self._step_loaders(source, mmap,
                                     masks=criteria_fn is not None)
        n_steps = len(loaders)
        seeds_by_step = self._normalize_seeds(seed, n_steps)
        metrics = get_metrics()
        stream = TrackStream(self, seeds_by_step, crit_name,
                             predict=predict_seeds, max_sweeps=max_sweeps)

        # Only the *load* rides the producer thread: volume I/O releases
        # the GIL, so it genuinely overlaps the (GIL-bound) criterion
        # evaluation and growth of the previous step — prefetching the
        # criterion itself would just serialize against the consumer's
        # numpy work.  It also keeps ``criteria_fn`` on the caller's
        # thread, so stateful criterion callables stay safe.
        use_prefetch = prefetch and n_steps > 1
        if use_prefetch:
            from repro.parallel.streaming import prefetch_map
            volumes = prefetch_map(lambda load: load(),
                                   [load for _, load in loaders], depth=1)
        else:
            volumes = iter(load() for _, load in loaders)

        with metrics.span("track.streaming", steps=n_steps, criterion=crit_name,
                          refine=bool(refine), engine=self.engine,
                          prefetch=use_prefetch):
            for time, _ in loaders:
                # Pull with an explicit next() rather than zipping the
                # volumes in: zip/enumerate cache their last result tuple,
                # which would pin each step's volume through the whole
                # grow and double the streaming working set.
                volume = next(volumes)
                with metrics.span("track.stream_step", time=int(time)):
                    criterion = np.asarray(crit_fn(volume), dtype=bool)
                    if self.matcher is None:
                        del volume  # only the criterion stays resident
                        stream.push(time, criterion)
                    else:
                        # Descriptors read voxel values, so the matcher
                        # path keeps this one step's data live through
                        # its push (and no longer).
                        data = volume.data
                        del volume
                        stream.push(time, criterion, data=data)
                        del data
                metrics.counter("track.stream_steps").inc()
            result = stream.finalize(refine=refine)
            metrics.counter("track.stream_sweeps").inc(result.sweeps)

        if sink is not None:
            for i, time in enumerate(result.times):
                sink(time, result.step_mask(i))
        return result

    def _refine_packed(self, packed_crit, packed_mask, counts, shape,
                       max_sweeps: int) -> int:
        """Backward/forward sweeps over the packed store until fixpoint.

        Each sweep unpacks two steps at a time: seeds that a neighbouring
        step's mask projects into step *t* (and that the forward pass
        missed) are grown within *t*'s criterion and the union packed
        back.  Monotone and bounded, so it terminates; at the fixpoint
        every temporal adjacency of the 4D structuring element is
        satisfied, i.e. the result equals full 4D growth.
        """
        n_steps = len(packed_mask)
        sweeps = 0
        changed = True
        while changed and sweeps < max_sweeps:
            changed = False
            for order in (range(n_steps - 2, -1, -1), range(1, n_steps)):
                order = list(order)
                neighbour_delta = 1 if order[0] > order[-1] else -1
                swept = False
                for t in order:
                    neighbour = _unpack_mask(packed_mask[t + neighbour_delta], shape)
                    if not neighbour.any():
                        continue
                    criterion = _unpack_mask(packed_crit[t], shape)
                    current = _unpack_mask(packed_mask[t], shape)
                    new_seeds = (self._cross_step_seeds(neighbour) & criterion
                                 & ~current)
                    if not new_seeds.any():
                        continue
                    grown = current | self._grow_step(criterion, new_seeds)
                    packed_mask[t] = _pack_mask(grown)
                    counts[t] = int(grown.sum())
                    swept = True
                sweeps += 1
                changed = changed or swept
        return sweeps

class TrackStream:
    """Open-ended push-mode tracking session (``FeatureTracker.open_stream``).

    An in-situ follower does not have a complete source to pull from —
    steps arrive whenever the simulation writes them, possibly out of
    time order, and the total step count is unknown until the run ends.
    :meth:`push` accepts one step's criterion mask at a time (inserted at
    its time-sorted position), maintains a live best-effort tracked mask
    per step, and :meth:`finalize` runs the same forward/backward
    refinement sweeps as :meth:`FeatureTracker.track_streaming`, so the
    closed result is voxel-identical to offline
    :func:`~repro.segmentation.regiongrow.grow_4d` over the stacked
    criteria in time order.

    Seed binding: explicit seeds address *final* step indices (position
    in time-sorted order), which a still-running stream can only bind
    provisionally.  Any out-of-order arrival replays the whole stream
    from its bit-packed criteria: the insertion shifts seed bindings
    *and* severs the direct temporal adjacency its neighbours were grown
    through, and refinement sweeps only add voxels — they cannot retract
    ones that stop being reachable.  Growth is cheap relative to I/O,
    replays only happen on out-of-order arrivals, and the invariant
    "every live mask voxel is 4D-reachable from a correctly-bound seed
    under the current adjacency" is what makes finalize exact.

    Memory: per step only two bit-packed planes (criterion + mask, one
    byte per 8 voxels each) are retained, plus the unpacked mask of the
    newest step for in-order seeding — the same profile as
    ``track_streaming``.
    """

    def __init__(self, tracker: FeatureTracker,
                 seeds_by_step: dict[int, list[tuple]], criterion: str,
                 predict: bool = False, max_sweeps: int = 64) -> None:
        self._tracker = tracker
        self._seeds = {int(k): list(v) for k, v in seeds_by_step.items()}
        self.criterion = criterion
        self._predict = bool(predict)
        self._max_sweeps = int(max_sweeps)
        self.shape: tuple | None = None
        self._times: list[int] = []
        self._packed_crit: list[np.ndarray] = []
        self._packed_mask: list[np.ndarray] = []
        self._counts: list[int] = []
        self._applied: dict[int, int] = {}  # seed step index -> bound time
        self._tail: np.ndarray | None = None  # unpacked mask, newest step
        self._prev_centroid: np.ndarray | None = None
        self._velocity = np.zeros(3)
        self._closed = False
        # Descriptor-fallback state (only maintained when the tracker has
        # a matcher): per-step candidate component descriptors — kept so
        # out-of-order replays can re-match without the voxel data — plus
        # the tracked feature's running descriptor thread.
        self._cands: list[list] = []
        self._desc: np.ndarray | None = None
        self._desc_time: int | None = None
        self._desc_pos: int = -1
        self._last_centroid: np.ndarray | None = None
        self._lost_emitted = False
        self._match_events: list[TrackEvent] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[int]:
        """Step ids pushed so far, in time order."""
        return list(self._times)

    def step_mask(self, index: int) -> np.ndarray:
        """Live tracked mask at time-sorted position ``index`` (unpacked).

        Before :meth:`finalize` this is the monotone lower bound the
        incremental passes have reached; after finalize it equals the
        offline fixpoint.
        """
        return _unpack_mask(self._packed_mask[index], self.shape)

    def voxel_counts(self) -> list[int]:
        """Live tracked voxels per step, in time order."""
        return list(self._counts)

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #
    def push(self, time: int, criterion: np.ndarray, data=None) -> int:
        """Insert one step's criterion mask; returns its sorted position.

        In-order arrivals (``time`` newer than everything seen) reduce to
        the classic forward pass: seed from the previous step's mask
        (plus any explicit seeds bound here) and grow.  Out-of-order
        arrivals insert mid-stream and replay the whole stream from the
        bit-packed criteria: the insertion both shifts seed bindings and
        severs the direct temporal adjacency its neighbours were grown
        through, so masks downstream of the insertion point may hold
        voxels that are no longer 4D-reachable — and refinement sweeps
        only ever add, never retract.  Pushing an already-present time
        raises — use :meth:`replace` for re-written steps.

        When the tracker has a matcher, ``data`` (the step's voxel
        values) is required: candidate component descriptors are
        extracted once here and retained — they are what lets replays and
        late matches run without the volume ever being loaded again.
        """
        if self._closed:
            raise RuntimeError("TrackStream is finalized; no more pushes")
        time = int(time)
        crit = np.asarray(criterion, dtype=bool)
        if self.shape is None:
            self.shape = crit.shape
        elif crit.shape != self.shape:
            raise ValueError(
                f"criterion shape {crit.shape} != stream shape {self.shape}")
        labels = cands = None
        if self._tracker.matcher is not None:
            labels, cands = self._describe_step(crit, data)
        pos = bisect.bisect_left(self._times, time)
        if pos < len(self._times) and self._times[pos] == time:
            raise ValueError(
                f"step time {time} already pushed; use replace() to rewrite")
        self._times.insert(pos, time)
        self._packed_crit.insert(pos, _pack_mask(crit))
        self._packed_mask.insert(pos, _pack_mask(np.zeros(self.shape, bool)))
        self._counts.insert(pos, 0)
        if self._tracker.matcher is not None:
            self._cands.insert(pos, cands)
        if pos != len(self._times) - 1:
            self._replay()
            return pos
        seed_mask = np.zeros(self.shape, dtype=bool)
        for point in self._seeds.get(pos, ()):
            seed_mask[point] = True
        if pos in self._seeds:
            self._applied[pos] = time
        if pos > 0:
            prev = (self._tail if self._tail is not None
                    else _unpack_mask(self._packed_mask[pos - 1], self.shape))
            seed_mask |= self._tracker._cross_step_seeds(prev)
            if self._predict and self._prev_centroid is not None and prev.any():
                seed_mask |= self._tracker._shift_mask(
                    prev, np.rint(self._velocity))
        seed_mask &= crit
        grown = (self._tracker._grow_step(crit, seed_mask)
                 if seed_mask.any() else np.zeros(self.shape, dtype=bool))
        if self._tracker.matcher is not None:
            grown = self._apply_match(pos, time, crit, grown, labels)
        if self._predict and grown.any():
            centroid = np.mean(np.nonzero(grown), axis=1)
            if self._prev_centroid is not None:
                self._velocity = centroid - self._prev_centroid
            self._prev_centroid = centroid
        self._packed_mask[pos] = _pack_mask(grown)
        self._counts[pos] = int(grown.sum())
        self._tail = grown
        return pos

    def replace(self, time: int, criterion: np.ndarray, data=None) -> int:
        """Swap the criterion of an already-pushed step (a re-written
        volume) and replay the stream to restore the seeding invariant.
        With a matcher, ``data`` is required again — the step's candidate
        descriptors must be rebuilt from the rewritten voxels."""
        if self._closed:
            raise RuntimeError("TrackStream is finalized; no more pushes")
        time = int(time)
        try:
            idx = self._times.index(time)
        except ValueError:
            raise KeyError(f"step time {time} was never pushed") from None
        crit = np.asarray(criterion, dtype=bool)
        if crit.shape != self.shape:
            raise ValueError(
                f"criterion shape {crit.shape} != stream shape {self.shape}")
        if self._tracker.matcher is not None:
            self._cands[idx] = self._describe_step(crit, data)[1]
        self._packed_crit[idx] = _pack_mask(crit)
        self._replay()
        return idx

    # ------------------------------------------------------------------ #
    # Descriptor fallback
    # ------------------------------------------------------------------ #
    def _describe_step(self, crit: np.ndarray, data):
        """Label one step's criterion and describe its components."""
        if data is None:
            raise ValueError(
                "tracking with a matcher needs each step's voxel data: "
                "push(time, criterion, data=volume.data)")
        connectivity = min(self._tracker.connectivity, crit.ndim)
        labels, count = label_components(crit, connectivity=connectivity)
        cands = self._tracker.matcher.candidates(
            data, crit, connectivity=connectivity, labels=labels, count=count)
        return labels, cands

    def _apply_match(self, pos: int, time: int, crit: np.ndarray,
                     grown: np.ndarray, labels=None) -> np.ndarray:
        """Descriptor fallback + descriptor-thread bookkeeping for one step.

        Fires only when plain growth produced an *empty* step mask while
        a descriptor thread is live — so whenever spatial overlap exists
        the returned mask is exactly the ``grown`` that came in, and
        tracking without fast motion is bit-identical to ``matcher=None``.
        On a match the step's mask becomes the matched criterion
        component (complete spatial components are exactly what growth
        would have produced had a seed landed anywhere inside).
        """
        matcher = self._tracker.matcher
        connectivity = min(self._tracker.connectivity, crit.ndim)
        if not grown.any() and self._desc is not None:
            gap = pos - self._desc_pos
            if 1 <= gap <= matcher.max_gap:
                metrics = get_metrics()
                cands = self._cands[pos]
                with metrics.span("track.match.query", time=int(time),
                                  gap=int(gap), candidates=len(cands)):
                    metrics.counter("track.match.attempts").inc()
                    hit = matcher.best(self._desc, cands,
                                       last_centroid=self._last_centroid,
                                       gap=gap)
                if hit is not None:
                    if labels is None:
                        labels = label_components(crit, connectivity=connectivity)[0]
                    grown = labels == hit[0].label
                    self._match_events.append(TrackEvent(
                        "reacquired", self._desc_time, time, (1,), (1,)))
                    metrics.counter("track.match.reacquired").inc()
                else:
                    metrics.counter("track.match.rejected").inc()
                    if not self._lost_emitted:
                        self._match_events.append(TrackEvent(
                            "lost", self._desc_time, time, (1,), ()))
                        metrics.counter("track.match.lost").inc()
                        self._lost_emitted = True
        if grown.any():
            if labels is None:
                labels = label_components(crit, connectivity=connectivity)[0]
            self._update_descriptor(pos, time, grown, labels)
        return grown

    def _update_descriptor(self, pos: int, time: int, grown: np.ndarray,
                           labels: np.ndarray) -> None:
        """Advance the descriptor thread to a step with a nonempty mask.

        The step's tracked mask is a union of complete spatial criterion
        components (growth fills whole components), so its descriptor is
        reconstructed as the voxel-weighted average of those components'
        stored candidate descriptors — no voxel data needed, which is
        what keeps out-of-order replays exact.
        """
        present = {int(p) for p in np.unique(labels[grown]) if p > 0}
        hits = [c for c in self._cands[pos] if c.label in present]
        if hits:
            weights = np.array([c.voxels for c in hits], dtype=np.float64)
            descs = np.stack([c.descriptor.astype(np.float64) for c in hits])
            self._desc = (weights[:, None] * descs).sum(axis=0) / weights.sum()
        # else: the mask only touches components below the matcher's
        # min_voxels floor — keep the previous descriptor rather than
        # synthesize one we could not rebuild during a replay.
        self._last_centroid = np.mean(np.nonzero(grown), axis=1)
        self._desc_time = time
        self._desc_pos = pos
        self._lost_emitted = False

    def _replay(self) -> None:
        """Forward pass over the packed criteria with current bindings."""
        self._applied = {}
        self._prev_centroid = None
        self._velocity = np.zeros(3)
        # The descriptor thread is re-derived from scratch too — stored
        # per-step candidate descriptors make that possible without data.
        self._desc = None
        self._desc_time = None
        self._desc_pos = -1
        self._last_centroid = None
        self._lost_emitted = False
        self._match_events = []
        prev: np.ndarray | None = None
        for idx, time in enumerate(self._times):
            crit = _unpack_mask(self._packed_crit[idx], self.shape)
            seed_mask = np.zeros(self.shape, dtype=bool)
            for point in self._seeds.get(idx, ()):
                seed_mask[point] = True
            if idx in self._seeds:
                self._applied[idx] = time
            if prev is not None:
                seed_mask |= self._tracker._cross_step_seeds(prev)
                if self._predict and self._prev_centroid is not None and prev.any():
                    seed_mask |= self._tracker._shift_mask(
                        prev, np.rint(self._velocity))
            seed_mask &= crit
            grown = (self._tracker._grow_step(crit, seed_mask)
                     if seed_mask.any() else np.zeros(self.shape, dtype=bool))
            if self._tracker.matcher is not None:
                grown = self._apply_match(idx, time, crit, grown)
            if self._predict and grown.any():
                centroid = np.mean(np.nonzero(grown), axis=1)
                if self._prev_centroid is not None:
                    self._velocity = centroid - self._prev_centroid
                self._prev_centroid = centroid
            self._packed_mask[idx] = _pack_mask(grown)
            self._counts[idx] = int(grown.sum())
            prev = grown
        self._tail = prev
        get_metrics().counter("track.stream_replays").inc()

    # ------------------------------------------------------------------ #
    # Closing
    # ------------------------------------------------------------------ #
    def finalize(self, refine: bool = True) -> StreamingTrackResult:
        """Close the stream and reconcile to the offline fixpoint.

        With ``refine`` (default) the backward/forward sweeps of
        :meth:`FeatureTracker._refine_packed` run until no step changes,
        at which point the result equals :func:`grow_4d` over the full
        criteria stack — regardless of the order steps were pushed in.
        """
        if self._closed:
            raise RuntimeError("TrackStream is already finalized")
        if not self._times:
            raise ValueError("finalize() before any step was pushed")
        n_steps = len(self._times)
        for step in self._seeds:
            if step >= n_steps:
                raise IndexError(
                    f"seed step index {step} out of range for {n_steps} steps")
        sweeps = 1
        if refine and n_steps > 1:
            sweeps += self._tracker._refine_packed(
                self._packed_crit, self._packed_mask, self._counts,
                self.shape, self._max_sweeps)
        self._closed = True
        self._tail = None
        return StreamingTrackResult(self.shape, self._times, self.criterion,
                                    self._packed_mask, self._counts, sweeps,
                                    match_events=self._match_events)
