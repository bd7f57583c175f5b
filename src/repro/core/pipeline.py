"""End-to-end orchestration over sequences (Sec. 4.2.3 / Sec. 8).

The trained artifacts (an IATF or a data-space classifier) are small and
picklable, so a run over hundreds of steps fans out per time step:
*"the processing of each time step is completely independent of other time
steps"*.  These helpers wire the core engines to the
:mod:`repro.parallel.executor` task farm and the renderer, one stage map
at a time; the per-step dataflow across stages (and its resumable store)
is :class:`repro.run.runner.PipelineRunner`, whose tasks reuse
:func:`train_sequence_classifier`, :func:`frame_digest` and
:func:`volume_digest` from here.

Every map here places itself by the farm's one rule: a passed ``pool``
runs it, otherwise ``workers > 1`` opens a pool for the map, otherwise
it runs in-process.  Each task pickles its own step's ``Volume`` into
the worker pipe; the invariants every task shares (a classifier, an
IATF, the camera) are broadcast once per worker when the caller passes
a resident pool, and released when the map ends.  Retries and the
degraded mode forward to the task farm (``retry=``, a count, and
``on_error=``) — with ``on_error="skip"`` a failed step's slot holds
``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.cache.shared import SharedArrayCache
from repro.core.dataspace import (
    DataSpaceClassifier,
    ShellFeatureExtractor,
    derive_shell_radius,
)
from repro.core.fastclassify import TemporalCoherenceCache
from repro.core.iatf import AdaptiveTransferFunction
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.parallel.executor import fans_out, map_timesteps
from repro.parallel.pool import WorkerPool
from repro.render.camera import Camera
from repro.render.fastcast import render_volume_fast
from repro.render.image import Image
from repro.render.raycast import render_volume
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence


def _resolve_cache(cache) -> TemporalCoherenceCache | None:
    """Resolve a ``cache=`` spec to a store-backed cache (or ``None``).

    ``"shared"`` (the default root), a directory path, a
    :class:`~repro.cache.shared.SharedArrayCache`, or a
    :class:`~repro.core.fastclassify.TemporalCoherenceCache` over a store
    all name one on-disk, cross-process namespace, so a cached map
    composes with any placement.
    """
    if cache is None or isinstance(cache, TemporalCoherenceCache):
        return cache
    if isinstance(cache, SharedArrayCache):
        return TemporalCoherenceCache(store=cache)
    if isinstance(cache, (str, Path)):
        root = None if cache == "shared" else cache
        return TemporalCoherenceCache(store=SharedArrayCache(root))
    raise TypeError(
        f"cache must be None, 'shared', a cache directory path, a "
        f"SharedArrayCache or a TemporalCoherenceCache, got {cache!r}")


def _task_caches(cache, fan_out: bool, n_items: int) -> list:
    """Per-task cache objects: clones over the shared store when fanning
    out (nothing rides the pickle), the one live object otherwise."""
    if cache is not None and fan_out:
        return [cache.worker_clone() for _ in range(n_items)]
    return [cache] * n_items


@contextmanager
def _shared(pool: WorkerPool | None, *objs):
    """The objects as a map's tasks carry them: broadcast refs on a pool,
    released when the map ends; the objects themselves in-process."""
    if pool is None:
        yield objs
        return
    refs = [pool.broadcast(obj) for obj in objs]
    try:
        yield refs
    finally:
        pool.release(refs)


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


def train_sequence_classifier(volumes, *, mask: str, samples: int, radius: int,
                              epochs: int, seed: int,
                              directions: str = "faces+corners",
                              hidden: int = 16) -> tuple[DataSpaceClassifier, int]:
    """Train a data-space classifier from ground-truth masks.

    ``volumes`` are the training steps' volumes in ``train_steps`` order.
    This is the one training recipe — one RNG seeded once drives every
    subsample, the shell radius derives from the first training volume's
    mask when ``radius <= 0`` — shared by ``repro classify``, the serve
    daemon, and the run's train task, so equal parameters give
    bit-identical classifiers (the property the serve differential tests
    and the crash battery pin).

    Returns ``(classifier, radius)``; raises :class:`ValueError` when a
    training mask is empty and :class:`KeyError` when a volume lacks
    ``mask``.
    """
    rng = np.random.default_rng(seed)
    if radius <= 0:
        radius = derive_shell_radius(volumes[0].mask(mask))
    extractor = ShellFeatureExtractor(radius=radius, directions=directions)
    classifier = DataSpaceClassifier(extractor, hidden=hidden, seed=seed)
    for vol in volumes:
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


_CLASSIFY_STAT_KEYS = ("voxels", "blocks_total", "cache_hits", "cache_misses")


def _unwrap_classify(outcome) -> list:
    """Split (result, stats) task tuples; aggregate worker-side counters.

    :meth:`DataSpaceClassifier.classify` already feeds the ``classify.*``
    counters in-process, which is the parent itself for an in-process
    map — so ridden stats are folded in only when the map actually fanned
    out to workers (whose registries died with them).
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
                      workers: int = 1, retry: int | None = None, on_error: str = "raise",
                      mode: str = "exact", cache=None,
                      pool: WorkerPool | None = None) -> list[np.ndarray]:
    """Classify every step of a sequence, optionally in parallel.

    Each task carries its own step's volume (each worker sees only its
    own step, the cluster deployment pattern of Sec. 8) and the
    classifier, a few kilobytes of weights.

    ``mode`` forwards to :meth:`DataSpaceClassifier.classify`.
    ``cache`` enables temporal-coherence reuse across steps: ``"shared"``,
    a cache directory path, a :class:`~repro.cache.shared.SharedArrayCache`
    or a store-backed
    :class:`~repro.core.fastclassify.TemporalCoherenceCache` (to keep its
    in-memory L1 warm between in-process calls) routes blocks through the
    on-disk cross-process store — every worker reads and writes one
    content-addressed namespace, and hit/miss counts ride the task
    results back into the parent's ``classify.*`` counters.

    ``pool`` runs the map on a resident
    :class:`~repro.parallel.pool.WorkerPool` and broadcasts the classifier
    so its weights cross each worker pipe once per run instead of once
    per task; otherwise ``workers > 1`` opens a pool for this call.
    """
    cache = _resolve_cache(cache)
    caches = _task_caches(cache, fans_out(workers, len(sequence), pool),
                          len(sequence))
    opts = [{"mode": mode, "cache": c} for c in caches]
    with (_shared(pool, classifier) as (task_classifier,),
          get_metrics().span("pipeline.classify_sequence", steps=len(sequence),
                             mode=mode, cached=cache is not None)):
        payloads = [(task_classifier, vol, o) for vol, o in zip(sequence, opts)]
        outcome = map_timesteps(_classify_one, payloads, workers=workers,
                                retry=retry, on_error=on_error, pool=pool)
    return _unwrap_classify(outcome)


def _generate_tf_one(payload) -> TransferFunction1D:
    iatf, volume = payload
    return iatf.generate(volume)


def generate_sequence_tfs(iatf: AdaptiveTransferFunction, sequence: VolumeSequence,
                          workers: int = 1, retry: int | None = None,
                          on_error: str = "raise", pool: WorkerPool | None = None
                          ) -> list[TransferFunction1D]:
    """Generate the adaptive TF for every step of a sequence.

    This is the "create an IATF … and send [it] to parallel systems or
    remote machines for rendering" workflow of Sec. 4.2.3.  ``pool``
    runs the map on a resident worker pool and broadcasts the IATF once
    per worker.
    """
    with (_shared(pool, iatf) as (task_iatf,),
          get_metrics().span("pipeline.generate_sequence_tfs", steps=len(sequence))):
        payloads = [(task_iatf, vol) for vol in sequence]
        outcome = map_timesteps(_generate_tf_one, payloads, workers=workers,
                                retry=retry, on_error=on_error, pool=pool)
    return outcome.results


class VolumeDigest(NamedTuple):
    """The two content digests of one volume (see :func:`volume_digest`)."""

    voxels: str   # content_digest(volume.data): all a frame depends on
    volume: str   # ``voxels`` folded with every mask's name and bits


def _hex_blob(digest: str) -> np.ndarray:
    return np.frombuffer(digest.encode(), dtype=np.uint8)


def volume_digest(volume) -> VolumeDigest:
    """Content digests of one volume, from one pass over its voxels.

    ``voxels`` digests the voxels alone; :func:`frame_digest` takes it,
    since a rendered frame ignores masks.  ``volume`` folds that digest
    with every per-voxel mask; the resumable runner (:mod:`repro.run`)
    folds it into every other artifact key, so a regenerated-but-identical
    sequence resumes cleanly while any voxel or mask change invalidates
    exactly the steps it touches.
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    voxels = content_digest(data)
    blobs = [_hex_blob(voxels)]
    if isinstance(volume, Volume):
        for name in sorted(volume.masks):
            blobs.append(np.frombuffer(name.encode(), dtype=np.uint8))
            blobs.append(volume.mask(name))
    return VolumeDigest(voxels, content_digest(*blobs))


def _render_frame(volume, tf, camera, step, shading, mode, fast_opts):
    if mode == "fast":
        return render_volume_fast(volume, tf, camera=camera, step=step,
                                  shading=shading, **fast_opts)
    return render_volume(volume, tf, camera=camera, step=step, shading=shading)


def box_band(domain, lo: float | None = None,
             hi: float | None = None) -> tuple[float, float]:
    """A static box TF's ``(lo, hi)``: each bound where given, else the
    default band, the top 70% of ``domain``."""
    if lo is None:
        lo = domain[0] + 0.3 * (domain[1] - domain[0])
    return lo, domain[1] if hi is None else hi


def renderer_signature(mode: str, fast_options: dict | None = None) -> str:
    """The renderer part of a frame's key (:func:`frame_digest`): ``"exact"``,
    or the fast caster with its sorted options."""
    return "exact" if mode == "exact" else f"fast:{sorted((fast_options or {}).items())!r}"


def frame_digest(voxels: str, tf: TransferFunction1D, camera: Camera, step: float,
                 shading: bool, renderer: str = "exact") -> str:
    """Content digest of everything one rendered frame depends on.

    Covers the voxels (through ``voxels``, their digest
    ``content_digest(volume.data)``, so no voxel is hashed twice), the
    TF's effective opacity *and* color tables and domain, the full camera
    state, the sampling step, shading, and a renderer signature (so
    exact/fast frames and different fast-path parameters never alias).
    Two frames with equal digests render identically, which is what lets
    :func:`render_sequence` reuse frames across steps whose volumes
    repeat (steady regions, periodic flows).
    """
    params = repr((camera.azimuth, camera.elevation, camera.width, camera.height,
                   camera.zoom, camera.projection, camera.eye_distance,
                   float(step), bool(shading), renderer)).encode()
    return content_digest(
        _hex_blob(voxels),
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
        key = frame_digest(content_digest(volume.data), tf, camera, step,
                           shading, sig)
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
    the parent aggregates unconditionally — one code path wherever the
    map ran.
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
                    step: float = 1.0, shading: bool = True, workers: int = 1,
                    retry: int | None = None, on_error: str = "raise", mode: str = "exact",
                    fast_options: dict | None = None, cache=None,
                    pool: WorkerPool | None = None) -> list:
    """Render every step with its own transfer function.

    ``tfs`` is either one shared :class:`TransferFunction1D` or a list with
    one TF per step (the IATF output).  Returns one
    :class:`~repro.render.image.Image` per step (``None`` for steps
    skipped under ``on_error="skip"``).

    ``mode="fast"`` routes frames through the ESS/ERT renderer
    (:func:`repro.render.fastcast.render_volume_fast`) with
    ``fast_options`` forwarded (``ert_alpha``, ``cell``).

    ``cache`` enables content-keyed frame reuse.  Keys cover volume + TF
    + camera + renderer (:func:`frame_digest`), so a hit returns
    bit-identical pixels.  It takes the same specs as
    :func:`classify_sequence` — ``"shared"``, a cache directory path, a
    :class:`~repro.cache.shared.SharedArrayCache` or a store-backed
    :class:`~repro.core.fastclassify.TemporalCoherenceCache` — and routes
    frames through the on-disk cross-process store, with hit/miss counts
    riding the task results back to the parent's
    ``render.frame_cache.*`` counters.

    ``pool`` runs the map on a resident
    :class:`~repro.parallel.pool.WorkerPool` and broadcasts the camera
    (plus the TF, when all steps share one object) so the invariants ship
    to each worker once per run; otherwise ``workers > 1`` opens a pool
    for this call.
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
    cache = _resolve_cache(cache)
    fast_opts = dict(fast_options or {})
    caches = _task_caches(cache, fans_out(workers, len(sequence), pool),
                          len(sequence))
    one_tf = tfs[:1] if len({id(tf) for tf in tfs}) == 1 else []
    sig = renderer_signature(mode, fast_opts)
    with (_shared(pool, camera, *one_tf) as (task_camera, *task_tf),
          get_metrics().span("pipeline.render_sequence", steps=len(sequence),
                             mode=mode, cached=cache is not None)):
        task_tfs = task_tf * len(tfs) if task_tf else tfs
        payloads = [(vol, tf, task_camera, step, shading, mode, fast_opts, c, sig)
                    for vol, tf, c in zip(sequence, task_tfs, caches)]
        outcome = map_timesteps(_render_one, payloads, workers=workers,
                                retry=retry, on_error=on_error, pool=pool)
    return _unwrap_render(outcome)


def extraction_masks(certainties, threshold: float = 0.5) -> np.ndarray:
    """Stack per-step certainty fields into 4D boolean criteria.

    Bridges :func:`classify_sequence` output into
    :meth:`repro.core.tracking.FeatureTracker.track_with_criteria`.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return np.stack([np.asarray(c) > threshold for c in certainties], axis=0)
