"""End-to-end orchestration over sequences (Sec. 4.2.3 / Sec. 8).

The trained artifacts (an IATF or a data-space classifier) are small and
picklable, so a run over hundreds of steps fans out per time step:
*"the processing of each time step is completely independent of other time
steps"*.  These helpers wire the core engines to the
:mod:`repro.parallel.executor` task farm and the renderer.

Each task pickles its own step's ``Volume`` into the worker pipe; the
invariants every task shares (a classifier, an IATF, the camera) are
broadcast once per worker when the caller passes a resident pool.
Retry/timeout/degraded-mode behaviour forwards to the task farm
(``retry=`` / ``on_error=``) — with ``on_error="skip"`` a failed step's
slot holds ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cache.shared import SharedArrayCache
from repro.core.dataspace import (
    DataSpaceClassifier,
    ShellFeatureExtractor,
    derive_shell_radius,
)
from repro.core.iatf import AdaptiveTransferFunction
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.parallel.executor import TaskError, map_timesteps, will_use_processes
from repro.parallel.pool import WorkerPool
from repro.render.camera import Camera
from repro.render.fastcast import render_volume_fast
from repro.render.image import Image
from repro.render.raycast import render_volume
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence


def _resolve_cache(cache, backend: str, kind: str):
    """Resolve a ``cache=`` spec into ``(cache, shared, backend)``.

    ``None`` passes through.  ``True`` or an existing
    :class:`~repro.core.fastclassify.TemporalCoherenceCache` without a
    store is purely in-process state: it forces the serial backend and
    refuses ``backend="process"``.  ``"shared"``, a directory path, a
    :class:`~repro.cache.shared.SharedArrayCache`, or a cache already
    wired to a store resolves to the on-disk cross-process namespace,
    which composes with every backend.
    """
    if cache is None:
        return None, False, backend
    from repro.core.fastclassify import TemporalCoherenceCache

    if cache is True:
        cache = TemporalCoherenceCache()
    elif isinstance(cache, (str, Path)):
        root = None if cache == "shared" else cache
        cache = TemporalCoherenceCache(store=SharedArrayCache(root))
    elif isinstance(cache, SharedArrayCache):
        cache = TemporalCoherenceCache(store=cache)
    if getattr(cache, "store", None) is not None:
        return cache, True, backend
    if backend == "process":
        raise ValueError(
            f"an in-memory cache requires in-process execution (its {kind} "
            "cannot be shared across worker processes); use backend='serial' "
            "or 'auto', or pass cache='shared' (or a cache directory path) "
            "for the on-disk cross-process backend")
    return cache, False, "serial"


def _task_caches(cache, shared: bool, fan_out: bool, n_items: int) -> list:
    """Per-task cache objects: clones over the shared store when fanning
    out (nothing rides the pickle), the one live object otherwise."""
    if cache is not None and shared and fan_out:
        return [cache.worker_clone() for _ in range(n_items)]
    return [cache] * n_items


def _sample_training_mask(mask, n: int, rng) -> np.ndarray:
    """Subsample a boolean mask down to at most ``n`` set voxels."""
    idx = np.argwhere(mask)
    if len(idx) == 0:
        raise ValueError("training mask selects no voxels")
    if len(idx) > n:
        idx = idx[rng.choice(len(idx), size=n, replace=False)]
    out = np.zeros(mask.shape, dtype=bool)
    out[tuple(idx.T)] = True
    return out


def train_sequence_classifier(sequence: VolumeSequence, *, mask: str,
                              train_steps: list[int], samples: int = 150,
                              radius: int = 0, epochs: int = 300,
                              seed: int = 11) -> tuple[DataSpaceClassifier, int]:
    """Train a data-space classifier from a sequence's ground-truth masks.

    This is the exact training recipe of ``repro classify`` — one RNG
    seeded once drives every subsample, the shell radius derives from the
    first training step's mask when ``radius <= 0`` — factored out so the
    serve daemon and the CLI produce bit-identical classifiers for equal
    parameters (the property the serve differential tests pin).

    Returns ``(classifier, radius)``; raises :class:`ValueError` when a
    training mask is empty.
    """
    rng = np.random.default_rng(seed)
    if radius <= 0:
        radius = derive_shell_radius(sequence.at_time(train_steps[0]).mask(mask))
    extractor = ShellFeatureExtractor(radius=radius)
    classifier = DataSpaceClassifier(extractor, seed=seed)
    for t in train_steps:
        vol = sequence.at_time(t)
        gt = vol.mask(mask)
        classifier.add_examples(
            vol,
            positive_mask=_sample_training_mask(gt, samples, rng),
            negative_mask=_sample_training_mask(~gt, samples, rng),
        )
    classifier.train(epochs=epochs)
    return classifier, radius


def _classify_one(payload) -> tuple:
    classifier, volume, opts = payload
    # A classifier pickled mid-session can carry stats from an earlier
    # call; clear them so only *this* task's work rides back.
    classifier.last_fast_stats = None
    result = classifier.classify(volume, **opts)
    return result, classifier.last_fast_stats


_CLASSIFY_STAT_KEYS = ("voxels", "blocks_total", "blocks_pruned",
                       "cache_hits", "cache_misses")


def _unwrap_classify(outcome) -> list:
    """Split (result, stats) task tuples; aggregate worker-side counters.

    :meth:`DataSpaceClassifier.classify` already feeds the ``classify.*``
    counters in-process, which is the parent itself on the serial
    backend — so ridden stats are folded in only when the map actually
    fanned out to workers (whose registries died with them).
    """
    results = []
    totals = dict.fromkeys(_CLASSIFY_STAT_KEYS, 0)
    for item in outcome.results:
        if item is None:
            results.append(None)
            continue
        result, stats = item
        results.append(result)
        if stats:
            for key in _CLASSIFY_STAT_KEYS:
                totals[key] += int(stats.get(key, 0))
    if outcome.backend in ("process", "pool"):
        metrics = get_metrics()
        for key, value in totals.items():
            if value:
                metrics.counter(f"classify.{key}").inc(value)
    return results


def classify_sequence(classifier: DataSpaceClassifier, sequence: VolumeSequence,
                      workers: int | None = None, backend: str = "auto",
                      retry=None, on_error: str = "raise", mode: str = "exact",
                      prune: bool = False, cache=None,
                      pool: WorkerPool | None = None) -> list[np.ndarray]:
    """Classify every step of a sequence, optionally in parallel.

    Each task carries its own step's volume (each worker sees only its
    own step, the cluster deployment pattern of Sec. 8) and the
    classifier, a few kilobytes of weights.

    ``mode``/``prune`` forward to :meth:`DataSpaceClassifier.classify`.
    ``cache`` enables temporal-coherence reuse across steps:

    - ``True`` or a :class:`~repro.core.fastclassify.TemporalCoherenceCache`
      instance (to keep warm state between calls) is in-process state —
      it forces the serial backend, and requesting ``backend="process"``
      with it is an error;
    - ``"shared"``, a cache directory path, or a
      :class:`~repro.cache.shared.SharedArrayCache` routes blocks through
      the on-disk cross-process store, which composes with any backend
      and ``workers`` — every worker reads and writes one
      content-addressed namespace, and hit/miss counts ride the task
      results back into the parent's ``classify.*`` counters.

    ``pool`` dispatches the map onto a resident
    :class:`~repro.parallel.pool.WorkerPool` instead of one opened for
    this call, and broadcasts the classifier so its weights cross each
    worker pipe once per run instead of once per task.  Composes with the
    shared cache.
    """
    cache, shared, backend = _resolve_cache(cache, backend, "hit state")
    fan_out = will_use_processes(backend, workers, len(sequence))
    caches = _task_caches(cache, shared, fan_out, len(sequence))
    opts = [{"mode": mode, "prune": prune, "cache": c} for c in caches]
    task_classifier = (pool.broadcast(classifier)
                       if pool is not None and fan_out else classifier)
    with get_metrics().span("pipeline.classify_sequence", steps=len(sequence),
                            mode=mode, prune=bool(prune),
                            cached=cache is not None, shared_cache=shared):
        payloads = [(task_classifier, vol, o) for vol, o in zip(sequence, opts)]
        outcome = map_timesteps(_classify_one, payloads, workers=workers,
                                backend=backend, retry=retry, on_error=on_error,
                                pool=pool)
    return _unwrap_classify(outcome)


def _generate_tf_one(payload) -> TransferFunction1D:
    iatf, volume = payload
    return iatf.generate(volume)


def generate_sequence_tfs(iatf: AdaptiveTransferFunction, sequence: VolumeSequence,
                          workers: int | None = None, backend: str = "auto",
                          retry=None, on_error: str = "raise",
                          pool: WorkerPool | None = None
                          ) -> list[TransferFunction1D]:
    """Generate the adaptive TF for every step of a sequence.

    This is the "create an IATF … and send [it] to parallel systems or
    remote machines for rendering" workflow of Sec. 4.2.3.  ``pool``
    reuses a resident worker pool and broadcasts the IATF once per
    worker.
    """
    fan_out = will_use_processes(backend, workers, len(sequence))
    task_iatf = pool.broadcast(iatf) if pool is not None and fan_out else iatf
    with get_metrics().span("pipeline.generate_sequence_tfs", steps=len(sequence)):
        payloads = [(task_iatf, vol) for vol in sequence]
        outcome = map_timesteps(_generate_tf_one, payloads, workers=workers,
                                backend=backend, retry=retry, on_error=on_error,
                                pool=pool)
    return outcome.results


def volume_digest(volume) -> str:
    """Content digest of one volume's voxels (and per-voxel masks).

    The resumable runner (:mod:`repro.run`) folds this into every
    artifact key so a regenerated-but-identical sequence resumes cleanly
    while any voxel change invalidates exactly the steps it touches.
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    blobs = [data]
    if isinstance(volume, Volume):
        for name in sorted(volume.masks):
            blobs.append(np.frombuffer(name.encode(), dtype=np.uint8))
            blobs.append(volume.mask(name))
    return content_digest(*blobs)


def _render_frame(volume, tf, camera, step, shading, mode, fast_opts):
    if mode == "fast":
        return render_volume_fast(volume, tf, camera=camera, step=step,
                                  shading=shading, **fast_opts)
    return render_volume(volume, tf, camera=camera, step=step, shading=shading)


def frame_digest(volume, tf: TransferFunction1D, camera: Camera, step: float,
                 shading: bool, renderer: str = "exact") -> str:
    """Content digest of everything one rendered frame depends on.

    Covers the voxels, the TF's effective opacity *and* color tables and
    domain, the full camera state, the sampling step, shading, and a
    renderer signature (so exact/fast frames and different fast-path
    parameters never alias).  Two frames with equal digests render
    identically, which is what lets :func:`render_sequence` reuse frames
    across steps whose volumes repeat (steady regions, periodic flows).
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    params = repr((camera.azimuth, camera.elevation, camera.width, camera.height,
                   camera.zoom, camera.projection, camera.eye_distance,
                   float(step), bool(shading), renderer)).encode()
    return content_digest(
        data,
        np.asarray(tf.opacity),
        np.asarray(tf.color_at(tf.entry_values()), dtype=np.float32),
        np.asarray((tf.lo, tf.hi), dtype=np.float64),
        np.frombuffer(params, dtype=np.uint8),
    )


def _render_cached(volume, tf, camera, step, shading, mode, fast_opts,
                   cache, sig) -> tuple:
    """Render one frame through the optional frame cache.

    Returns ``(image, stats)`` — the hit/miss tally rides the task result
    so the parent can aggregate ``render.frame_cache.*`` counters even
    when this ran in a worker process whose own registry dies with it.
    """
    if cache is not None:
        key = frame_digest(volume, tf, camera, step, shading, sig)
        pixels = cache.get(key)
        if pixels is not None:
            return Image.from_array(pixels), {"hits": 1, "misses": 0}
    image = _render_frame(volume, tf, camera, step, shading, mode, fast_opts)
    if cache is not None:
        cache.put(key, image.pixels.copy())
        return image, {"hits": 0, "misses": 1}
    return image, None


def _render_one(payload):
    volume, tf, camera, step, shading, mode, fast_opts, cache, sig = payload
    return _render_cached(volume, tf, camera, step, shading, mode, fast_opts,
                          cache, sig)


def _unwrap_render(outcome) -> list:
    """Split (image, stats) task tuples; total the frame-cache counters.

    Unlike classify, the workers never touch the counters themselves, so
    the parent aggregates unconditionally — one code path for serial and
    process backends.
    """
    results = []
    hits = misses = 0
    for item in outcome.results:
        if item is None:
            results.append(None)
            continue
        image, stats = item
        results.append(image)
        if stats:
            hits += stats["hits"]
            misses += stats["misses"]
    metrics = get_metrics()
    if hits:
        metrics.counter("render.frame_cache.hits").inc(hits)
    if misses:
        metrics.counter("render.frame_cache.misses").inc(misses)
    return results


def render_sequence(sequence: VolumeSequence, tfs, camera: Camera | None = None,
                    step: float = 1.0, shading: bool = True,
                    workers: int | None = None, backend: str = "auto",
                    retry=None, on_error: str = "raise", mode: str = "exact",
                    fast_options: dict | None = None, cache=None,
                    pool: WorkerPool | None = None) -> list:
    """Render every step with its own transfer function.

    ``tfs`` is either one shared :class:`TransferFunction1D` or a list with
    one TF per step (the IATF output).  Returns one
    :class:`~repro.render.image.Image` per step (``None`` for steps
    skipped under ``on_error="skip"``).

    ``mode="fast"`` routes frames through the tile/ESS/ERT renderer
    (:func:`repro.render.fastcast.render_volume_fast`) with
    ``fast_options`` forwarded (``tile``, ``ert_alpha``, ``cell``, …).
    When the *sequence* map fans out to processes, each step's tiles are
    forced in-process (one pool, no nesting); give the fast path its tile
    workers by keeping the sequence map serial.

    ``cache`` enables content-keyed frame reuse.  Keys cover volume + TF
    + camera + renderer (:func:`frame_digest`), so a hit returns
    bit-identical pixels.  ``True`` or a
    :class:`~repro.core.fastclassify.TemporalCoherenceCache` instance (to
    keep frames warm across calls) is in-process state — it forces the
    serial backend, and ``backend="process"`` with it is an error;
    ``"shared"``, a cache directory path, or a
    :class:`~repro.cache.shared.SharedArrayCache` routes frames through
    the on-disk cross-process store and composes with any backend and
    ``workers``, with hit/miss counts riding the task results back to the
    parent's ``render.frame_cache.*`` counters.

    ``pool`` dispatches onto a resident
    :class:`~repro.parallel.pool.WorkerPool` and broadcasts the camera
    (plus the TF, when all steps share one object) so the invariants ship
    to each worker once per run.
    """
    camera = camera or Camera()
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown render mode {mode!r}; expected 'exact' or 'fast'")
    if fast_options is not None and mode != "fast":
        raise ValueError("fast_options requires mode='fast'")
    if isinstance(tfs, TransferFunction1D):
        tfs = [tfs] * len(sequence)
    tfs = list(tfs)
    if len(tfs) != len(sequence):
        raise ValueError(f"need one TF per step: got {len(tfs)} TFs for {len(sequence)} steps")
    cache, shared, backend = _resolve_cache(cache, backend, "frame store")
    fast_opts = dict(fast_options or {})
    fan_out = will_use_processes(backend, workers, len(sequence))
    if mode == "fast" and fan_out:
        # The per-step fan-out owns the process pool; nesting a tile pool
        # inside each worker would oversubscribe, so tiles stay in-process.
        fast_opts["workers"] = 1
        fast_opts["backend"] = "serial"
    caches = _task_caches(cache, shared, fan_out, len(sequence))
    task_camera = camera
    task_tfs = tfs
    if pool is not None and fan_out:
        task_camera = pool.broadcast(camera)
        if len({id(tf) for tf in tfs}) == 1:
            task_tfs = [pool.broadcast(tfs[0])] * len(tfs)
    # The renderer signature covers only pixel-affecting options: how the
    # tiles were scheduled (workers/backend) cannot change the frame, and
    # folding it in would stop serial and fanned runs from sharing cache
    # entries.
    render_opts = {k: v for k, v in fast_opts.items()
                   if k not in ("workers", "backend")}
    sig = "exact" if mode == "exact" else f"fast:{sorted(render_opts.items())!r}"
    with get_metrics().span("pipeline.render_sequence", steps=len(sequence),
                            mode=mode, cached=cache is not None,
                            shared_cache=shared):
        payloads = [(vol, tf, task_camera, step, shading, mode, fast_opts, c, sig)
                    for vol, tf, c in zip(sequence, task_tfs, caches)]
        outcome = map_timesteps(_render_one, payloads, workers=workers,
                                backend=backend, retry=retry, on_error=on_error,
                                pool=pool)
    return _unwrap_render(outcome)


@dataclass
class PipelinedResult:
    """Outputs of one :func:`run_pipelined` call, aligned by step index.

    ``certainties`` is ``None`` when no classifier was given; ``tfs`` and
    ``images`` are ``None`` when no TF source was given (nothing to
    render).
    """

    certainties: list | None
    tfs: list | None
    images: list | None


def run_pipelined(sequence: VolumeSequence, classifier: DataSpaceClassifier | None = None,
                  iatf: AdaptiveTransferFunction | None = None, tfs=None,
                  camera: Camera | None = None, *, step: float = 1.0,
                  shading: bool = True, mode: str = "exact",
                  fast_options: dict | None = None,
                  classify_mode: str = "exact", prune: bool = False,
                  workers: int | None = None, pool: WorkerPool | None = None,
                  retry=None) -> PipelinedResult:
    """Run classify + TF + render per step as an overlapped dataflow.

    The barrier orchestration (:func:`classify_sequence`, then
    :func:`generate_sequence_tfs`, then :func:`render_sequence`) waits
    for the *slowest* step of each stage before any step enters the
    next.  But render of step *t* only depends on the TF of step *t* —
    so here each step's chain ``tf(t) → render(t)`` is submitted as a
    dataflow: the TF future's done-callback submits that step's render,
    and classification (an independent output) interleaves with both.
    Rendering of early steps overlaps classification of late ones, and
    the gaps a straggler leaves in one stage are filled with work from
    another.

    TF source: pass ``iatf`` to generate per-step TFs, or ``tfs`` (one
    shared :class:`TransferFunction1D` or one per step) to use fixed
    ones; with neither, nothing renders and only classification runs.
    ``classifier`` is optional and independent.  Results are assembled
    in step order, so outputs are identical to the barrier version.

    Scheduling: an explicit ``pool`` (resident workers, invariants
    broadcast once per worker) is the intended fast path; without one,
    ``workers > 1`` builds a private pool for the call, and otherwise the
    chains run serially interleaved (step-by-step) in-process — same
    outputs, bounded memory.  Failures follow
    ``on_error="raise"`` semantics: the first chain to exhaust its
    retries raises :class:`~repro.parallel.executor.TaskError`.
    """
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown render mode {mode!r}; expected 'exact' or 'fast'")
    if fast_options is not None and mode != "fast":
        raise ValueError("fast_options requires mode='fast'")
    if iatf is not None and tfs is not None:
        raise ValueError("pass either iatf or tfs, not both")
    n = len(sequence)
    tf_list = None
    if tfs is not None:
        tf_list = [tfs] * n if isinstance(tfs, TransferFunction1D) else list(tfs)
        if len(tf_list) != n:
            raise ValueError(f"need one TF per step: got {len(tf_list)} TFs for {n} steps")
    rendering = iatf is not None or tf_list is not None
    if classifier is None and not rendering:
        raise ValueError("nothing to do: pass a classifier, an iatf, or tfs")
    camera = camera or Camera()
    fast_opts = dict(fast_options or {})
    opts = {"mode": classify_mode, "prune": prune, "cache": None}

    own_pool = None
    if pool is None and workers is not None and workers > 1 and n > 1:
        own_pool = pool = WorkerPool(workers=workers)
    try:
        with get_metrics().span("pipeline.run_pipelined", steps=n,
                                pooled=pool is not None, mode=mode):
            if pool is None or n < 1:
                return _run_pipelined_serial(sequence, classifier, iatf, tf_list,
                                             camera, step, shading, mode,
                                             fast_opts, opts, rendering)
            return _run_pipelined_pool(sequence, classifier, iatf, tf_list,
                                       camera, step, shading, mode, fast_opts,
                                       opts, rendering, pool, retry)
    finally:
        if own_pool is not None:
            own_pool.close()


def _run_pipelined_serial(sequence, classifier, iatf, tf_list, camera, step,
                          shading, mode, fast_opts, opts, rendering) -> PipelinedResult:
    certainties = [] if classifier is not None else None
    out_tfs = [] if rendering else None
    images = [] if rendering else None
    for t, vol in enumerate(sequence):
        if classifier is not None:
            result, _ = _classify_one((classifier, vol, opts))
            certainties.append(result)
        if rendering:
            tf_t = iatf.generate(vol) if iatf is not None else tf_list[t]
            out_tfs.append(tf_t)
            images.append(_render_frame(vol, tf_t, camera, step, shading,
                                        mode, fast_opts))
    return PipelinedResult(certainties, out_tfs, images)


def _run_pipelined_pool(sequence, classifier, iatf, tf_list, camera, step,
                        shading, mode, fast_opts, opts, rendering, pool,
                        retry) -> PipelinedResult:
    n = len(sequence)
    if mode == "fast":
        # The step fan-out owns the workers; tiles stay in-process.
        fast_opts = dict(fast_opts, workers=1, backend="serial")
    sig = ("exact" if mode == "exact" else
           f"fast:{sorted((k, v) for k, v in fast_opts.items() if k not in ('workers', 'backend'))!r}")
    clf_ref = pool.broadcast(classifier) if classifier is not None else None
    iatf_ref = pool.broadcast(iatf) if iatf is not None else None
    cam_ref = pool.broadcast(camera) if rendering else None
    classify_futs: list = [None] * n
    tf_futs: list = [None] * n
    render_futs: list = [None] * n

    def submit_render(t, vol, tf_t):
        payload = (vol, tf_t, cam_ref, step, shading, mode, fast_opts, None, sig)
        render_futs[t] = pool.submit(_render_one, payload, index=t, retry=retry)

    for t, vol in enumerate(sequence):
        if clf_ref is not None:
            classify_futs[t] = pool.submit(_classify_one, (clf_ref, vol, opts),
                                           index=t, retry=retry)
        if iatf_ref is not None:
            fut = pool.submit(_generate_tf_one, (iatf_ref, vol), index=t, retry=retry)

            def chain(f, t=t, vol=vol):
                if f.ok:
                    submit_render(t, vol, f.value)

            fut.add_done_callback(chain)
            tf_futs[t] = fut
        elif tf_list is not None:
            submit_render(t, vol, tf_list[t])

    # Two waits: the first drains classify + TF chains (every TF callback
    # has fired by then, so all render futures exist); the second drains
    # the renders those callbacks submitted.
    pool.wait([f for f in classify_futs + tf_futs if f is not None])
    pool.wait([f for f in render_futs if f is not None])

    for stage_futs in (classify_futs, tf_futs, render_futs):
        for fut in stage_futs:
            if fut is not None and not fut.ok:
                raise TaskError(fut.failure)

    certainties = None
    if classifier is not None:
        certainties = []
        totals: dict = {}
        for fut in classify_futs:
            result, stats = fut.value
            certainties.append(result)
            for key, value in (stats or {}).items():
                totals[key] = totals.get(key, 0) + int(value or 0)
        metrics = get_metrics()
        for key in _CLASSIFY_STAT_KEYS:
            if totals.get(key):
                metrics.counter(f"classify.{key}").inc(totals[key])
    out_tfs = images = None
    if rendering:
        out_tfs = ([f.value for f in tf_futs] if iatf is not None else list(tf_list))
        images = [f.value[0] for f in render_futs]
    return PipelinedResult(certainties, out_tfs, images)


def extraction_masks(certainties, threshold: float = 0.5) -> np.ndarray:
    """Stack per-step certainty fields into 4D boolean criteria.

    Bridges :func:`classify_sequence` output into
    :meth:`repro.core.tracking.FeatureTracker.track_with_criteria`.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return np.stack([np.asarray(c) > threshold for c in certainties], axis=0)
