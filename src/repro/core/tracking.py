"""Feature tracking with fixed and adaptive criteria (paper Sec. 5).

Tracking is 4D region growing: seed the feature at one step and grow
through each step's criterion mask — temporal adjacency carries the
region across steps as long as consecutive occurrences overlap in 3D
(the paper's sufficient-temporal-sampling assumption).

Two criteria:

- **fixed** — a constant data-value range, the conventional baseline.
  When the feature's values drift out of the range (the swirl dataset),
  the criterion mask loses the feature mid-sequence (Fig. 10, top row).
- **adaptive** — each step's mask comes from that step's IATF-generated
  transfer function (*"the adaptive transfer function … is used as the
  region growing criteria"*).  The criterion follows the drifting values
  and tracking survives to the last step (Fig. 10, bottom row).

One tracking core serves every consumer.  ``track_fixed``,
``track_adaptive``, ``track_with_criteria`` and ``track_streaming`` (and
the run's track task, and follow mode) push each step's criterion into a
:class:`TrackStream` and finalize it.  The stream grows every step
through :func:`repro.segmentation.fastgrow.grow_bricked`, whose ``auto``
strategy follows the criterion's fill, keeps only two bit-packed planes
per step, and its refinement sweeps reconcile to exactly the
:func:`~repro.segmentation.regiongrow.grow_4d` fixpoint over the stacked
criteria — ``grow_4d`` itself remains as the differential-test oracle.
Peak memory is one unpacked step plus the packed history, whatever the
sequence length, and a saved sequence directory streams from disk one
step at a time.

The :class:`TrackResult` carries per-step masks (the "3D volume texture"
the renderer consumes), voxel counts, and the event timeline (Fig. 9's
split).
"""

from __future__ import annotations

import bisect
from pathlib import Path

import numpy as np
from scipy import ndimage

from repro.core.iatf import AdaptiveTransferFunction
from repro.obs import get_metrics
from repro.parallel.bricking import stack_digest
from repro.segmentation.components import label_components
from repro.segmentation.events import TrackEvent, detect_events, merge_match_events
from repro.segmentation.fastgrow import grow_bricked
from repro.segmentation.regiongrow import _structure
from repro.volume.grid import VolumeSequence

#: Safety bound on :meth:`TrackStream.finalize`'s refinement sweeps.
MAX_SWEEPS = 64


def _pack_mask(mask: np.ndarray) -> np.ndarray:
    """Bit-pack a boolean step mask (8 voxels per byte)."""
    return np.packbits(mask.ravel())


def _unpack_mask(packed: np.ndarray, shape) -> np.ndarray:
    """Recover a boolean step mask from its bit-packed form."""
    count = int(np.prod(shape))
    return np.unpackbits(packed, count=count).view(np.bool_).reshape(shape)


class TrackResult:
    """Outcome of tracking one feature through a sequence.

    Per-step masks are held bit-packed (one byte per 8 voxels), so the
    result of a long run costs T/8 "timesteps" of memory instead of T;
    masks are unpacked on demand, and events and component counts come
    from one lazy labeling pass that touches at most two unpacked steps
    at a time.

    Attributes
    ----------
    times:
        Simulation step ids, aligned with the per-step masks.
    criterion:
        ``"fixed"``, ``"adaptive"``, or the caller's criterion name.
    sweeps:
        Passes the tracker made: the forward pass plus refinement sweeps.
    connectivity:
        The connectivity the feature was grown with; each step's
        components are labeled with it (capped at the step's rank).
    """

    def __init__(self, shape, times: list[int], criterion: str,
                 packed_masks: list[np.ndarray], voxel_counts: list[int],
                 sweeps: int, match_events: list[TrackEvent] | None = None,
                 connectivity: int = 1) -> None:
        self.shape = tuple(shape)
        self.times = list(times)
        self.criterion = criterion
        self.sweeps = int(sweeps)
        self.connectivity = int(connectivity)
        self._packed = packed_masks
        self._voxel_counts = [int(c) for c in voxel_counts]
        self._events: list[TrackEvent] | None = None
        self._component_counts: list[int] = []
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

    def masks_digest(self) -> str:
        """``content_digest(self.masks)``, hashed one unpacked step at a
        time instead of over the O(T · volume) stack."""
        return stack_digest((len(self.times), *self.shape), np.bool_,
                            (self.step_mask(i) for i in range(len(self.times))))

    @property
    def voxel_counts(self) -> list[int]:
        """Tracked voxels per step — drops to 0 when tracking loses the
        feature (the Fig. 10 diagnostic)."""
        return list(self._voxel_counts)

    @property
    def events(self) -> list[TrackEvent]:
        """Continuation/split/merge/birth/death timeline of the tracked
        feature, in canonical ``(time, component-id)`` order.

        When the tracker's descriptor fallback fired, its
        ``lost``/``reacquired`` lineage events are folded in, superseding
        the spurious death/birth the overlap timeline would otherwise
        report at the gap.
        """
        self._label_steps()
        return self._events

    def component_counts(self) -> list[int]:
        """Connected-component count per step (2 after the Fig. 9 split)."""
        self._label_steps()
        return list(self._component_counts)

    def _label_steps(self) -> None:
        """Label every step once, for both the timeline and the counts.

        Runs lazily, on the first read of :attr:`events` or
        :meth:`component_counts`, and pairwise: only two steps (and their
        label arrays) are unpacked at once.
        """
        if self._events is not None:
            return
        events: list[TrackEvent] = []
        counts: list[int] = []
        prev_labels = None
        connectivity = min(self.connectivity, len(self.shape))
        for i, time in enumerate(self.times):
            labels, count = label_components(self.step_mask(i), connectivity)
            counts.append(count)
            if prev_labels is not None:
                events.extend(detect_events(prev_labels, labels,
                                            time_a=self.times[i - 1],
                                            time_b=time))
            prev_labels = labels
        self._component_counts = counts
        self._events = merge_match_events(events, self.match_events)


class FeatureTracker:
    """Track a feature through a :class:`VolumeSequence`.

    Parameters
    ----------
    connectivity:
        Spatial/temporal connectivity of the 4D growth (1 = faces).
    opacity_threshold:
        Opacity above which a voxel passes an adaptive TF criterion.
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
        each step's voxels stay live through its push.
    """

    def __init__(self, connectivity: int = 1, opacity_threshold: float = 0.05,
                 matcher=None) -> None:
        if not 0.0 <= opacity_threshold < 1.0:
            raise ValueError(
                f"opacity_threshold must be in [0, 1), got {opacity_threshold}"
            )
        self.connectivity = int(connectivity)
        self.opacity_threshold = float(opacity_threshold)
        self.matcher = matcher

    # ------------------------------------------------------------------ #
    # Criteria
    # ------------------------------------------------------------------ #
    def _criterion(self, lo=None, hi=None, iatf=None, criteria_fn=None,
                   name=None):
        """The per-volume criterion: exactly one of a fixed ``[lo, hi]``
        range, an IATF, or a callable ``vol -> bool mask``.  Returns
        ``(fn, label)``."""
        picked = [criteria_fn is not None, iatf is not None,
                  lo is not None or hi is not None]
        if sum(picked) != 1:
            raise ValueError(
                "tracking needs exactly one criterion: criteria_fn=, "
                "iatf=, or lo=/hi="
            )
        if criteria_fn is not None:
            return (lambda vol: np.asarray(criteria_fn(vol), dtype=bool),
                    name or "custom")
        if iatf is not None:
            threshold = self.opacity_threshold

            def adaptive(vol):
                # Regenerating the 1D TF per step is the sub-second
                # operation Sec. 7 mentions; the whole-volume opacity
                # lookup is one vectorized table lookup.
                tf = iatf.generate(vol)
                return tf.opacity_at(vol.data) > threshold

            return adaptive, name or "adaptive"
        if lo is None or hi is None or hi <= lo:
            raise ValueError(f"criterion range requires hi > lo, got ({lo}, {hi})")

        def fixed(vol):
            # Build the band in-place: one transient bool instead of three
            # (this closure sets the tracker's peak memory).
            crit = vol.data >= lo
            np.logical_and(crit, vol.data <= hi, out=crit)
            return crit

        return fixed, name or "fixed"

    def fixed_criteria(self, sequence: VolumeSequence, lo: float, hi: float) -> np.ndarray:
        """Stacked ``[t, z, y, x]`` masks for a constant value range ``[lo, hi]``."""
        fn, _ = self._criterion(lo=lo, hi=hi)
        return np.stack([fn(v) for v in sequence], axis=0)

    def adaptive_criteria(self, sequence: VolumeSequence,
                          iatf: AdaptiveTransferFunction) -> np.ndarray:
        """Stacked ``[t, z, y, x]`` masks from the IATF's TF at each step."""
        fn, _ = self._criterion(iatf=iatf)
        return np.stack([fn(v) for v in sequence], axis=0)

    # ------------------------------------------------------------------ #
    # Tracking
    # ------------------------------------------------------------------ #
    def track_fixed(self, sequence: VolumeSequence, seed, lo: float, hi: float) -> TrackResult:
        """Track with the conventional fixed value-range criterion.

        ``seed`` is ``(step_index, z, y, x)`` — step *index*, not id,
        matching the 4D stack's axis.
        """
        return self.track_streaming(sequence, seed, lo=lo, hi=hi)

    def track_adaptive(self, sequence: VolumeSequence, seed,
                       iatf: AdaptiveTransferFunction) -> TrackResult:
        """Track with the IATF-driven adaptive criterion (the paper's
        contribution)."""
        return self.track_streaming(sequence, seed, iatf=iatf)

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
        by_time = dict(zip(sequence.times, criteria))
        return self.track_streaming(sequence, seed, name=name,
                                    criteria_fn=lambda vol: by_time[vol.time])

    @staticmethod
    def _step_loaders(source, masks: bool = True):
        """``(time, load)`` pairs for a sequence or a saved sequence dir.

        A :class:`VolumeSequence` is consumed step by step; a path streams
        each step from disk through the sequence manifest
        (:func:`repro.parallel.streaming.sequence_step_stems`), so the
        parent never materializes the run.  ``masks=False`` skips the
        ground-truth mask bricks on disk loads — value criteria never
        read them, and not loading them keeps the working set at
        voxels + criterion.
        """
        if isinstance(source, VolumeSequence):
            return [(vol.time, (lambda v=vol: v)) for vol in source]
        if isinstance(source, (str, Path)):
            from repro.parallel.streaming import sequence_step_stems
            from repro.volume.io import load_volume

            return [(time, (lambda s=stem: load_volume(s, masks=masks)))
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

    def open_stream(self, seed, *, name: str = "custom") -> "TrackStream":
        """Open an open-ended push-mode tracking session.

        Unlike :meth:`track_streaming`, which pulls a known, complete
        source, the returned :class:`TrackStream` accepts criterion masks
        one at a time via :meth:`TrackStream.push` — including out of
        time order, as an in-situ follower sees them — and reconciles to
        the exact offline :func:`~repro.segmentation.regiongrow.grow_4d`
        fixpoint at :meth:`TrackStream.finalize`.
        """
        return TrackStream(self, self._normalize_seeds(seed, None), name)

    def track_streaming(self, source, seed, *, lo: float | None = None,
                        hi: float | None = None,
                        iatf: AdaptiveTransferFunction | None = None,
                        criteria_fn=None, name: str | None = None,
                        refine: bool = True) -> TrackResult:
        """Track while holding O(1 timestep) in memory instead of O(T).

        Steps are consumed one at a time — from an in-memory sequence or
        straight from a saved sequence directory — and each step's
        criterion mask is computed, pushed into a :class:`TrackStream`,
        and bit-packed away.  Step *t+1* is seeded from the tracked mask
        at *t*; forward/backward refinement sweeps over the packed store
        then repeat until the region stops changing, which makes the
        result voxel-identical to
        :func:`repro.segmentation.regiongrow.grow_4d` on the stacked
        criteria.

        Parameters
        ----------
        source:
            :class:`VolumeSequence`, or a path to a directory written by
            :func:`repro.volume.io.save_sequence`.
        seed:
            One or more ``(step_index, z, y, x)`` tuples.  A step index
            or voxel outside the sequence raises ``IndexError``.
        lo, hi / iatf / criteria_fn:
            Exactly one criterion source: a fixed value range, an
            adaptive transfer function, or a callable
            ``vol -> bool mask``.
        refine:
            Run forward/backward sweeps to an exact fixpoint (default).
            ``False`` keeps the single forward pass — cheaper, and
            identical whenever the feature never grows backward in time.
        """
        crit_fn, crit_name = self._criterion(lo, hi, iatf, criteria_fn, name)
        # Only a custom callable may look at ground-truth masks; the
        # built-in value/IATF criteria read voxels alone.
        loaders = self._step_loaders(source, masks=criteria_fn is not None)
        stream = TrackStream(self, self._normalize_seeds(seed, len(loaders)),
                             crit_name)
        metrics = get_metrics()
        with metrics.span("track.streaming", steps=len(loaders),
                          criterion=crit_name, refine=bool(refine)):
            for time, load in loaders:
                volume = load()
                with metrics.span("track.stream_step", time=int(time)):
                    criterion = crit_fn(volume)
                    # Descriptors read voxel values, so the matcher path
                    # keeps this one step's data live through its push;
                    # otherwise only the criterion stays resident.
                    data = volume.data if self.matcher is not None else None
                    del volume
                    stream.push(time, criterion, data=data)
                    del criterion, data
                metrics.counter("track.stream_steps").inc()
            result = stream.finalize(refine=refine)
            metrics.counter("track.stream_sweeps").inc(result.sweeps)
        return result


class TrackStream:
    """The tracking core: push-mode 4D growth over bit-packed steps.

    Every tracker entry point runs through one of these
    (:meth:`FeatureTracker.track_streaming` pushes a complete source in
    order; :meth:`FeatureTracker.open_stream` hands one to an in-situ
    follower).  Steps arrive whenever the simulation writes them,
    possibly out of time order, and the total step count is unknown
    until the run ends.  :meth:`push` accepts one step's criterion mask
    at a time (inserted at its time-sorted position), maintains a live
    best-effort tracked mask per step, and :meth:`finalize` runs
    forward/backward refinement sweeps, so the closed result is
    voxel-identical to offline :func:`~repro.segmentation.regiongrow.grow_4d`
    over the stacked criteria in time order.

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
    newest step for in-order seeding.
    """

    def __init__(self, tracker: FeatureTracker,
                 seeds_by_step: dict[int, list[tuple]], criterion: str) -> None:
        self._tracker = tracker
        self._seeds = {int(k): list(v) for k, v in seeds_by_step.items()}
        self.criterion = criterion
        self.shape: tuple | None = None
        self._times: list[int] = []
        self._packed_crit: list[np.ndarray] = []
        self._packed_mask: list[np.ndarray] = []
        self._counts: list[int] = []
        self._tail: np.ndarray | None = None  # unpacked mask, newest step
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
        raises — use :meth:`replace` for re-written steps.  The first
        push fixes the grid; a seed voxel outside it raises
        ``IndexError``.

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
            for points in self._seeds.values():
                for point in points:
                    if not all(0 <= c < n for c, n in zip(point, crit.shape)):
                        raise IndexError(f"seed voxel {list(point)} outside the "
                                         f"grid {list(crit.shape)}")
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
        else:
            # In order: the tail is the previous step's mask (None on the
            # very first push).
            self._tail = self._forward(pos, crit, self._tail, labels)
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
    # Growth
    # ------------------------------------------------------------------ #
    def _grow_step(self, criterion: np.ndarray, seed_mask: np.ndarray) -> np.ndarray:
        """Grow one 3D step through the fastgrow engine, whose ``auto``
        strategy picks the sparse voxel-graph path on near-empty criteria
        and dense labeling otherwise — voxel-identical to the scipy
        reference either way."""
        connectivity = min(self._tracker.connectivity, criterion.ndim)
        return grow_bricked(criterion, seed_mask, connectivity=connectivity)

    def _cross_step_seeds(self, mask: np.ndarray) -> np.ndarray:
        """Voxels temporally adjacent to ``mask`` in a neighbouring step.

        ``generate_binary_structure(4, c)`` connects across time at
        spatial offsets of Manhattan length ≤ ``c - 1``; for the default
        face connectivity that is the same voxel, for higher
        connectivities a spatial dilation of the neighbouring step's mask.
        """
        connectivity = self._tracker.connectivity
        if connectivity <= 1 or not mask.any():
            return mask
        structure = _structure(mask.ndim, min(connectivity - 1, mask.ndim))
        return ndimage.binary_dilation(mask, structure=structure)

    def _forward(self, pos: int, crit: np.ndarray, prev: np.ndarray | None,
                 labels=None) -> np.ndarray:
        """One forward-pass step: seed step ``pos`` from its explicit
        seeds and the previous step's mask ``prev``, grow within ``crit``,
        apply the descriptor fallback, and pack.
        Returns the grown (unpacked) mask."""
        seed_mask = np.zeros(self.shape, dtype=bool)
        for point in self._seeds.get(pos, ()):
            seed_mask[point] = True
        if prev is not None:
            seed_mask |= self._cross_step_seeds(prev)
        seed_mask &= crit
        grown = (self._grow_step(crit, seed_mask)
                 if seed_mask.any() else np.zeros(self.shape, dtype=bool))
        if self._tracker.matcher is not None:
            grown = self._apply_match(pos, self._times[pos], crit, grown, labels)
        self._packed_mask[pos] = _pack_mask(grown)
        self._counts[pos] = int(grown.sum())
        return grown

    def _replay(self) -> None:
        """Forward pass over the packed criteria with current bindings."""
        # The descriptor thread is re-derived from scratch too — stored
        # per-step candidate descriptors make that possible without data.
        self._desc = None
        self._desc_time = None
        self._desc_pos = -1
        self._last_centroid = None
        self._lost_emitted = False
        self._match_events = []
        prev: np.ndarray | None = None
        for idx in range(len(self._times)):
            crit = _unpack_mask(self._packed_crit[idx], self.shape)
            prev = self._forward(idx, crit, prev)
        self._tail = prev
        get_metrics().counter("track.stream_replays").inc()

    def _refine(self) -> int:
        """Backward/forward sweeps over the packed store until fixpoint.

        Each sweep unpacks two steps at a time: seeds that a neighbouring
        step's mask projects into step *t* (and that the forward pass
        missed) are grown within *t*'s criterion and the union packed
        back.  Monotone and bounded, so it terminates; at the fixpoint
        every temporal adjacency of the 4D structuring element is
        satisfied, i.e. the result equals full 4D growth.  Returns the
        number of sweeps.
        """
        n_steps = len(self._times)
        sweeps = 0
        changed = True
        while changed and sweeps < MAX_SWEEPS:
            changed = False
            for order, delta in ((range(n_steps - 2, -1, -1), 1),
                                 (range(1, n_steps), -1)):
                for t in order:
                    neighbour = _unpack_mask(self._packed_mask[t + delta], self.shape)
                    if not neighbour.any():
                        continue
                    criterion = _unpack_mask(self._packed_crit[t], self.shape)
                    current = _unpack_mask(self._packed_mask[t], self.shape)
                    new_seeds = (self._cross_step_seeds(neighbour) & criterion
                                 & ~current)
                    if not new_seeds.any():
                        continue
                    grown = current | self._grow_step(criterion, new_seeds)
                    self._packed_mask[t] = _pack_mask(grown)
                    self._counts[t] = int(grown.sum())
                    changed = True
                sweeps += 1
        return sweeps

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

    # ------------------------------------------------------------------ #
    # Closing
    # ------------------------------------------------------------------ #
    def finalize(self, refine: bool = True) -> TrackResult:
        """Close the stream and reconcile to the offline fixpoint.

        With ``refine`` (default) backward/forward sweeps run until no
        step changes (at most :data:`MAX_SWEEPS`), at which point the
        result equals :func:`grow_4d` over the full criteria stack —
        regardless of the order steps were pushed in.
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
            sweeps += self._refine()
        self._closed = True
        self._tail = None
        return TrackResult(self.shape, self._times, self.criterion,
                           self._packed_mask, self._counts, sweeps,
                           match_events=self._match_events,
                           connectivity=self._tracker.connectivity)
