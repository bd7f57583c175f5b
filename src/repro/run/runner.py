"""Crash-safe resumable execution of the classify → track → tfs → render DAG.

:class:`PipelineRunner` turns one :class:`~repro.run.config.RunConfig`
into a *run directory*::

    <run_dir>/
      config.json     the full config (identity of the run; written once)
      manifest.json   deterministic progress record (rewritten atomically)
      stats.json      volatile counters/timings — excluded from bit-identity
      store/          content-addressed artifacts (repro.cache.store)
      frames/         optional exported images (render.export)

Every stage decomposes into tasks; every task's artifact key is derived
**from its inputs** (stage parameters + upstream keys + volume digests),
so before executing anything the runner knows every key the run will
produce.  All work goes through one memoized dispatcher, :meth:`_wave`:
it records a batch of tasks in the manifest, checks every task's key
against the store before starting any of them (a key whose artifact
exists and passes integrity verification is skipped), and starts the
rest.  ``repro run --resume`` is nothing but running the same walk
again — completed work is skipped, interrupted work re-executes, and the
final bytes (manifest + store) are identical to an uninterrupted run's.

One walk hands the tasks to the dispatcher, in config stage order: the
train task as its own wave, then one wave per stage over every step.  It
drains the pool only where a stage needs every step — after training,
before track, and at the end, before frame export.  Each step's render is
chained off its TF: a task carries its own continuation (``_Task.then``),
which maps its artifact to the tasks it feeds, and a continuation runs
once every task of its wave has started.  Tasks settled in the parent
(run with one worker, or skipped) continue after the wave's loop, as one
wave: with one worker the walk is plain stage order.  A pool task
continues from its done-callback, so rendering of early steps overlaps
TF generation of late ones.

The wave is the whole skip rule.  A stage wave checks every step before
running any, so tasks sharing one key (the static box TF) each run once
per step.

On a pool, a run's inputs reach its workers through the pool's
broadcast registry.  Before the first submit the run registers the
built IATF and, on a pool it opened itself, each step's volume (keyed by
the volume digest it already computed, folded with the step's time and
name); every classify, TF and render payload carries their refs.  That
pool's workers fork after the registration, so they start with every
volume and nothing of it crosses a pipe.  A resident pool's workers
(the serve daemon's) forked earlier: there the volumes ride the
payloads and the IATF crosses each pipe once.  The run releases its
registrations when it ends.  With one worker, payloads hold the objects
themselves.

Crash semantics: with one worker each task runs in the parent through
:func:`repro.parallel.executor.map_timesteps` under a run-global task
number (``fault_index_offset``), so ``REPRO_FAULT_INJECT="N:crash"``
SIGKILLs the process the moment the run's N-th *executed* task starts,
and every artifact lands (atomic rename) before the next task starts —
the kill loses at most the in-flight task.  On a pool, a done-callback
persists each artifact in the parent, and a failed task raises only
once the pool has drained, so the rest of the run's work is kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cache.store import ArtifactStore, derive_key
from repro.core.dataspace import DataSpaceClassifier, ShellFeatureExtractor
from repro.core.iatf import AdaptiveTransferFunction
from repro.core.mlp import NeuralNetwork
from repro.core.pipeline import (
    box_band,
    frame_digest,
    renderer_signature,
    train_sequence_classifier,
    volume_digest,
)
from repro.core.tracking import FeatureTracker
from repro.obs import get_metrics
from repro.parallel.executor import TaskError, map_timesteps
from repro.parallel.faults import as_injector
from repro.parallel.pool import WorkerPool
from repro.render.camera import Camera
from repro.render.image import Image
from repro.render.shading import check_shading_shape
from repro.run.config import ConfigError, RunConfig
from repro.run.manifest import (
    STATUS_COMPLETE,
    STATUS_RUNNING,
    ManifestError,
    RunManifest,
)
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import VolumeFormatError, load_sequence
from repro.utils.atomic import atomic_write_text


class RunError(RuntimeError):
    """The run cannot proceed (bad run directory, config mismatch, …)."""


@dataclass(frozen=True)
class RunReport:
    """What one :meth:`PipelineRunner.run` invocation did."""

    run_dir: Path
    stages: dict          # stage name -> final status
    executed: int         # tasks computed this invocation
    skipped: int          # tasks satisfied from the store
    artifacts: int        # artifacts in the store after the run


# --------------------------------------------------------------------- #
# Module-level task functions (picklable for the worker pool)
# --------------------------------------------------------------------- #
def _task_train_classifier(payload):
    """Train the data-space classifier; artifact = network weight dict."""
    volumes, options = payload
    classifier, radius = train_sequence_classifier(volumes, **options)
    return {"radius": radius, "net": classifier.net.to_dict()}


def _classifier_from_artifact(artifact: dict, params: dict) -> DataSpaceClassifier:
    extractor = ShellFeatureExtractor(radius=artifact["radius"],
                                      directions=params["directions"])
    classifier = DataSpaceClassifier(extractor, hidden=params["hidden"],
                                     seed=params["seed"])
    classifier.engine.net = NeuralNetwork.from_dict(artifact["net"])
    return classifier


def _task_classify_step(payload):
    """Per-step certainty field from the trained network artifact."""
    artifact, params, volume = payload
    classifier = _classifier_from_artifact(artifact, params)
    return classifier.classify(volume, mode=params["mode"]).astype(np.float32)


def _task_track(payload):
    """Track the seed through the whole sequence; yields one uint8 mask
    per step, so persisting them never holds more than one unpacked step.

    ``criteria_fn`` maps a volume to its criterion mask and is called
    only here, so a track task that is skipped never loads a criterion.
    """
    sequence, seed_voxel, connectivity, criteria_fn = payload
    result = FeatureTracker(connectivity).track_streaming(
        sequence, [tuple(seed_voxel)], criteria_fn=criteria_fn)
    return (result.step_mask(i).astype(np.uint8) for i in range(len(result.times)))


def _task_tf_step(payload):
    """Per-step transfer function (static box or IATF-generated)."""
    kind, params, domain, iatf, volume = payload
    if kind == "iatf":
        return iatf.generate(volume).to_dict()
    lo, hi = box_band(domain, params["lo"], params["hi"])
    return TransferFunction1D(domain).add_box(lo, hi, params["opacity"]).to_dict()


def _task_render_step(payload):
    """Per-step frame; artifact = the raw float32 RGBA pixel array."""
    from repro.core.pipeline import _render_frame

    volume, tf_dict, camera, params = payload
    tf = TransferFunction1D.from_dict(tf_dict)
    image = _render_frame(volume, tf, camera, params["step"], params["shading"],
                          params["mode"], dict(params["fast_options"]))
    return image.pixels


def _label(time) -> str:
    return f"step:{int(time):06d}"


def _sequence_digest(times, digests) -> str:
    return derive_key("sequence", list(times),
                      *[np.frombuffer(d.encode(), dtype=np.uint8) for d in digests])


@dataclass(frozen=True)
class _Task:
    """One memoized unit of run work, as the dispatcher sees it.

    ``records`` holds a ``(label, key)`` pair per artifact the task
    persists: one for a per-step task, one per step for the track task,
    whose result is then the per-step sequence of masks.  ``then`` is the
    task's continuation: it maps the task's artifact (computed or stored)
    to the tasks it feeds, or to nothing.
    """

    stage: str
    records: tuple
    kind: str             # "array" | "json": how the artifacts are stored
    fn: Callable
    payload: Any
    then: Callable | None = None

    @property
    def key(self) -> str:
        return self.records[0][1]


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
class PipelineRunner:
    """Executes (or resumes) one run directory for one config.

    ``workers`` overrides the config's worker count for *this invocation
    only* — it is a pure throughput knob (excluded from the config
    fingerprint and never written to ``config.json``), so a run started
    with one fan-out can be resumed with another and still reach
    byte-identical outputs.
    """

    def __init__(self, config: RunConfig, run_dir, workers: int | None = None,
                 store: ArtifactStore | None = None,
                 pool: WorkerPool | None = None) -> None:
        self.config = config
        self.run_dir = Path(run_dir)
        # ``store`` plugs in an external (typically shared, longer-lived)
        # artifact store: the serve daemon passes one resident store so
        # artifacts memoize *across* run requests, not just within one.
        self.store = store if store is not None else ArtifactStore(self.run_dir / "store")
        self.exec_workers = workers if workers is not None else config.workers
        if self.exec_workers < 1:
            raise RunError(f"workers must be >= 1, got {self.exec_workers}")
        self._pool: WorkerPool | None = None
        # ``pool`` likewise reuses resident workers across runs; an
        # external pool is never closed by the runner.
        self._external_pool = pool
        self._metrics = get_metrics()
        self._task_no = 0      # global number of the next *executed* task
        self._executed = 0
        self._skipped = 0
        self._futures: list = []
        self._refs: dict = {}  # id(registered object) -> its BroadcastRef

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, config: RunConfig, run_dir, workers: int | None = None,
               store: ArtifactStore | None = None,
               pool: WorkerPool | None = None,
               pipelined: bool = False) -> "PipelineRunner":
        """Start a fresh run directory (refuses to clobber an existing run).

        ``pipelined`` is accepted and ignored: the combustion-pooled
        workload of the e2e benchmark still passes ``pipelined=True``
        (``benchmarks/e2e/workloads.py``, ``CombustionPooled._cold_run``).
        Delete it once that call no longer does.
        """
        run_dir = Path(run_dir)
        if (run_dir / "manifest.json").exists() or (run_dir / "config.json").exists():
            raise RunError(
                f"{run_dir} already holds a run; use --resume to continue it")
        run_dir.mkdir(parents=True, exist_ok=True)
        # The config copy is the run's identity: written once, never
        # rewritten, and sufficient on its own to resume.
        atomic_write_text(run_dir / "config.json",
                          json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
        return cls(config, run_dir, workers=workers, store=store, pool=pool)

    @classmethod
    def resume(cls, run_dir, workers: int | None = None,
               store: ArtifactStore | None = None,
               pool: WorkerPool | None = None) -> "PipelineRunner":
        """Reopen an interrupted run directory from its stored config."""
        run_dir = Path(run_dir)
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise RunError(f"{run_dir} is not a run directory (no config.json)")
        try:
            config = RunConfig.from_dict(json.loads(config_path.read_text()))
        except (json.JSONDecodeError, ConfigError) as exc:
            raise RunError(f"cannot resume {run_dir}: {exc}") from None
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = RunManifest.load(manifest_path)
            except ManifestError as exc:
                raise RunError(f"cannot resume {run_dir}: {exc}") from None
            if manifest.config_fingerprint != config.fingerprint():
                raise RunError(
                    f"{run_dir}: manifest was produced by a different config "
                    f"(fingerprint {manifest.config_fingerprint} != "
                    f"{config.fingerprint()})")
        return cls(config, run_dir, workers=workers, store=store, pool=pool)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> RunReport:
        """Execute every configured stage, skipping satisfied artifacts."""
        config = self.config
        self._metrics.reset("run.")
        self._injector = as_injector(None)
        if (self._injector is not None and self._injector.crashes
                and self.exec_workers > 1):
            raise RunError(
                "crash injection requires workers=1: on a pool the SIGKILL "
                "would hit a respawnable worker instead of the run")
        # Masks are loaded only when a stage actually reads them
        # (classify's training examples): volume digests — and therefore
        # every artifact key — then depend on voxels alone, which is the
        # same rule the follow-mode loader applies to a still-growing
        # directory.
        try:
            sequence = load_sequence(config.sequence,
                                     masks="classify" in config.stages)
        except VolumeFormatError as exc:
            raise RunError(f"cannot load sequence {config.sequence}: {exc}") from None
        # One hash pass per step: the voxel digest keys the frames, the
        # volume digest (voxels folded with masks) every other artifact.
        step_digests = [volume_digest(vol) for vol in sequence]
        voxels = [d.voxels for d in step_digests]
        digests = [d.volume for d in step_digests]
        self._resolve(self._tf_domain(sequence) if "tfs" in config.stages else None,
                      sequence)
        self._start_manifest(_sequence_digest(sequence.times, digests))
        try:
            if self.exec_workers > 1:
                # One resident pool for the entire run: every wave reuses
                # the same workers — one spawn cost per run.  An external
                # pool (the serve daemon's) is reused as-is.
                self._pool = self._external_pool or WorkerPool(workers=self.exec_workers)
                self._register(sequence, digests)
            with self._metrics.span("run.total", stages=len(config.stages),
                                    workers=self.exec_workers):
                self._walk(sequence, digests, voxels)
        finally:
            if self._pool is not None and self._pool is self._external_pool:
                # A failed walk may leave tasks queued on the resident pool.
                self._pool.cancel(self._futures)
                self._pool.release(self._refs.values())
            elif self._pool is not None:
                self._pool.close()
            self._pool, self._refs, self._futures = None, {}, []
        self._complete_manifest()
        self._write_stats()
        return RunReport(
            run_dir=self.run_dir,
            stages={name: self.manifest.stages[name].status
                    for name in config.stages},
            executed=self._executed,
            skipped=self._skipped,
            artifacts=len(self.store.keys()),
        )

    def _register(self, sequence, digests) -> None:
        """Register the built IATF with the pool before the first submit,
        and every step's volume when the run opened the pool: its workers
        fork on that submit, so they start with them."""
        if self._external_pool is None:
            for vol, digest in zip(sequence, digests):
                key = derive_key("volume", digest, vol.time, vol.name)
                self._refs[id(vol)] = self._pool.broadcast(vol, key=key)
        if self._iatf is not None:
            self._refs[id(self._iatf)] = self._pool.broadcast(self._iatf)

    def _shipped(self, obj):
        """``obj`` as a task payload carries it: its broadcast ref when the
        run registered it with the pool, else the object itself."""
        return self._refs.get(id(obj), obj)

    def _walk(self, sequence, digests, voxels) -> None:
        """Config stage order, draining only where a stage needs every
        step; each step's render is its TF's continuation."""
        stages = self.config.stages
        steps = list(zip(sequence, digests, voxels))
        if "classify" in stages:
            trained = self._train(sequence.times, digests, sequence.at_time)
            self._wave([self._classify_task(vol, d, trained) for vol, d, _ in steps])
        if "track" in stages:
            self._drain()
            self._wave([self._grow_task(sequence, digests)])
        if "tfs" in stages:
            self._wave([self._tf_task(vol, d, v) for vol, d, v in steps])
        self._drain()
        if "render" in stages:
            self._export_frames(sequence.times)

    # ------------------------------------------------------------------ #
    # The memoized dispatcher
    # ------------------------------------------------------------------ #
    def _wave(self, tasks: list[_Task]) -> None:
        """Record ``tasks``, skip the stored ones, start the rest.

        Every key is checked before any task starts.  With one worker a
        task runs in the parent and its artifact lands before the next
        task starts; on a pool it is submitted and a done-callback
        persists it (track always runs in the parent).  A task's
        continuation runs once every task of the wave has started: for a
        task skipped or run in the parent, after this loop, where the
        tasks all those continuations feed form one wave; for a pool
        task, from its done-callback, which fires only while the parent
        waits in :meth:`_drain`.  Pool failures surface from :meth:`_drain`.
        """
        for task in tasks:
            for label, key in task.records:
                self.manifest.record_task(task.stage, label, key, task.kind)
        self._save_manifest()
        stored = [all(self.store.has(key) for _, key in task.records)
                  for task in tasks]
        settled = []          # (task, artifact) to continue after the loop
        for task, skip in zip(tasks, stored):
            if skip:
                self._skipped += 1
                self._metrics.counter("run.tasks.skipped").inc()
                if task.then is not None:
                    get = (self.store.get_array if task.kind == "array"
                           else self.store.get_json)
                    settled.append((task, get(task.key)))
            elif self._pool is None or task.stage == "track":
                outcome = map_timesteps(task.fn, [task.payload],
                                        inject_faults=self._injector,
                                        fault_index_offset=self._task_no)
                self._task_no += 1
                self._finish(task, outcome.results[0])
                if task.then is not None:
                    settled.append((task, outcome.results[0]))
            else:
                future = self._pool.submit(task.fn, task.payload, index=self._task_no,
                                           injector=self._injector,
                                           fault_index=self._task_no)
                self._task_no += 1

                def persist(fut, task=task):
                    if fut.ok:
                        self._finish(task, fut.value)
                        if task.then is not None:
                            self._continue([(task, fut.value)])

                future.add_done_callback(persist)
                self._futures.append(future)
        self._continue(settled)

    def _continue(self, settled: list) -> None:
        """Run, as one wave, the tasks that the continuations of the
        settled ``(task, artifact)`` pairs feed."""
        fed = [nxt for task, artifact in settled for nxt in task.then(artifact) or ()]
        if fed:
            self._wave(fed)

    def _finish(self, task: _Task, result) -> None:
        """Persist a finished task's artifacts and count it."""
        artifacts = result if task.stage == "track" else [result]
        put = self.store.put_array if task.kind == "array" else self.store.put_json
        for (_, key), artifact in zip(task.records, artifacts):
            put(key, artifact)
        self._executed += 1
        self._metrics.counter("run.tasks.executed").inc()

    def _drain(self) -> None:
        """Wait for every submitted task — including tasks that callbacks
        submit while waiting — then raise the first failure."""
        while self._pool is not None and any(not fut.done() for fut in self._futures):
            self._pool.wait(self._futures)
        failures = [fut.failure for fut in self._futures if not fut.ok]
        self._futures = []
        if failures:
            raise TaskError(failures[0])

    def _start_manifest(self, sequence_digest: str) -> None:
        """A fresh manifest with every stage running, saved."""
        self.manifest = RunManifest(
            config_fingerprint=self.config.fingerprint(),
            sequence_digest=sequence_digest,
            stage_names=self.config.stages,
        )
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_RUNNING)
        self._save_manifest()

    def _complete_manifest(self) -> None:
        """Mark every stage complete and save: the run's final bytes."""
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_COMPLETE)
            self._metrics.counter("run.stages.completed").inc()
        self._save_manifest()

    def _save_manifest(self) -> None:
        self.manifest.save(self.run_dir / "manifest.json")

    #: counter/timer prefixes exported to stats.json (subclasses extend)
    _stat_prefixes: tuple[str, ...] = ("run.",)

    def _write_stats(self) -> None:
        """Volatile run statistics — deliberately not part of bit-identity."""
        snapshot = self._metrics.snapshot()
        stats = {
            "executed": self._executed,
            "skipped": self._skipped,
            "counters": {k: v for k, v in snapshot["counters"].items()
                         if k.startswith(self._stat_prefixes)},
            "timers": {k: v for k, v in snapshot["timers"].items()
                       if k.startswith(self._stat_prefixes)},
        }
        atomic_write_text(self.run_dir / "stats.json",
                          json.dumps(stats, sort_keys=True, indent=2) + "\n")

    # ------------------------------------------------------------------ #
    # Stage parameters, keys, and task builders (shared with follow mode)
    # ------------------------------------------------------------------ #
    def _resolve(self, domain, sequence=None) -> None:
        """Pre-resolve what the task builders read, and reject bad inputs
        before any task runs.  ``domain`` is the TF domain (``None``
        without a tfs stage); follow mode passes no ``sequence``, so the
        checks that need every step are skipped there."""
        config, stages = self.config, self.config.stages
        if "classify" in stages and sequence is not None:
            train_times = self._train_times(sequence.times)
            missing = [t for t in train_times if t not in sequence.times]
            if missing:
                raise RunError(f"classify train_steps {missing} not in sequence "
                               f"times {sequence.times}")
            mask = config.classify["mask"]
            if any(mask not in sequence.at_time(t).masks for t in train_times):
                raise RunError(f"classify mask {mask!r} is missing from the "
                               f"training steps {train_times}")
        if "track" in stages and sequence is not None:
            step, *voxel = config.track["seed_voxel"]
            if not step < len(sequence):
                raise RunError(f"track seed step index {step} outside sequence "
                               f"of {len(sequence)} steps")
            if not all(v < n for v, n in zip(voxel, sequence.shape)):
                raise RunError(f"track seed voxel {voxel} outside the grid "
                               f"{list(sequence.shape)}")
        self._domain = domain
        self._iatf_text = self._iatf = None
        if "tfs" in stages and config.tfs["kind"] == "iatf":
            try:
                self._iatf_text = Path(config.tfs["iatf"]).read_text()
                self._iatf = AdaptiveTransferFunction.from_dict(json.loads(self._iatf_text))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise RunError(f"cannot read IATF {config.tfs['iatf']}: {exc}") from None
        elif "tfs" in stages:
            lo, hi = box_band(domain, config.tfs["lo"], config.tfs["hi"])
            if not lo < hi:
                raise RunError(f"tfs box band [{lo}, {hi}] is empty over the TF "
                               f"domain {list(domain)}")
        if "render" in stages:
            params = config.render
            if sequence is not None:
                self._check_shading(sequence.shape)
            self._camera = Camera(azimuth=params["azimuth"],
                                  elevation=params["elevation"],
                                  width=params["size"], height=params["size"])
            self._renderer = renderer_signature(params["mode"], params["fast_options"])

    def _check_shading(self, shape) -> None:
        """A shaded render needs a gradient: every axis at least 2 voxels."""
        if "render" in self.config.stages and self.config.render["shading"]:
            try:
                check_shading_shape(shape)
            except ValueError as exc:
                raise RunError(f"render: {exc}") from None

    def _tf_domain(self, sequence) -> tuple[float, float]:
        """TF domain: the config's pinned ``tfs.domain`` when set, else the
        sequence's full value range.  Pinning makes TF keys (and bytes)
        independent of how much of the sequence exists yet — the contract
        follow mode relies on."""
        domain = self.config.tfs["domain"]
        if domain is not None:
            return (float(domain[0]), float(domain[1]))
        return sequence.value_range

    def _train_params(self) -> dict:
        """Classify params that influence *training* (key material)."""
        p = self.config.classify
        return {k: p[k] for k in ("mask", "train_steps", "samples", "radius",
                                  "directions", "hidden", "epochs", "seed")}

    def _train_times(self, times) -> list:
        return self.config.classify["train_steps"] or [times[0]]

    def _train_key(self, times, digests) -> str:
        """The train task's key, from the steps seen so far (which must
        include every training step)."""
        digest_of = dict(zip(times, digests))
        train_times = self._train_times(times)
        return derive_key("classify.train", self._train_params(), train_times,
                          [digest_of[t] for t in train_times])

    def _classify_key(self, train_key: str, digest: str) -> str:
        # Addressed by the step's own digest (not its sequence position),
        # so a follower that has seen only part of the sequence derives
        # the same key the offline walk does.
        return derive_key("classify.step", train_key,
                          self.config.classify["mode"], digest)

    def _track_keys(self, times, digests) -> list[str]:
        """One track key per step, from every step's time and digest."""
        params = self.config.track
        if params["criterion"] == "classify":
            train_key = self._train_key(times, digests)
            upstream = [self._classify_key(train_key, d) for d in digests]
            upstream.append(f"threshold={self.config.classify['threshold']!r}")
        else:
            upstream = list(digests)
        base = derive_key("track", params, upstream)
        return [derive_key("track.step", base, _label(t)) for t in times]

    def _tf_key(self, digest: str) -> str:
        params = self.config.tfs
        parts = ["tfs", params, list(self._domain)]
        if params["kind"] == "iatf":
            parts += [self._iatf_text, digest]
        return derive_key(*parts)

    def _train(self, times, digests, load) -> tuple[str, dict]:
        """Run the train task as its own wave; returns ``(key, artifact)``
        for the classify tasks.  ``load(t)`` returns the volume of step ``t``."""
        options = {k: v for k, v in self._train_params().items()
                   if k != "train_steps"}
        volumes = [self._shipped(load(t)) for t in self._train_times(times)]
        task = _Task("classify", (("train", self._train_key(times, digests)),),
                     "json", _task_train_classifier, (volumes, options))
        self._wave([task])
        self._drain()
        return task.key, self.store.get_json(task.key)

    def _classify_task(self, volume, digest: str, trained) -> _Task:
        train_key, artifact = trained
        key = self._classify_key(train_key, digest)
        return _Task("classify", ((_label(volume.time), key),), "array",
                     _task_classify_step,
                     (artifact, self.config.classify, self._shipped(volume)))

    def _tf_task(self, volume, digest: str, voxels: str) -> _Task:
        """The step's TF task; with render staged, its continuation is the
        step's render task (``voxels`` is the step's voxel digest)."""
        params = self.config.tfs
        then = ((lambda tf_dict: [self._render_task(volume, voxels, tf_dict)])
                if "render" in self.config.stages else None)
        return _Task("tfs", ((_label(volume.time), self._tf_key(digest)),), "json",
                     _task_tf_step, (params["kind"], params, self._domain,
                                     self._shipped(self._iatf), self._shipped(volume)),
                     then)

    def _render_task(self, volume, voxels: str, tf_dict: dict) -> _Task:
        """``voxels`` is the step's voxel digest (:func:`volume_digest`)."""
        params = self.config.render
        # The render key *is* the frame digest — the same content key
        # render_sequence's frame cache uses, reused verbatim here.
        key = frame_digest(voxels, TransferFunction1D.from_dict(tf_dict),
                           self._camera, params["step"], params["shading"],
                           self._renderer)
        return _Task("render", ((_label(volume.time), key),), "array",
                     _task_render_step,
                     (self._shipped(volume), tf_dict, self._camera, params))

    def _track_task(self, times, digests, fn, payload) -> _Task:
        """The one track task: a key per step; it skips only when every
        step's mask is stored, and always runs in the parent."""
        records = tuple(zip(map(_label, times), self._track_keys(times, digests)))
        return _Task("track", records, "array", fn, payload)

    def _grow_task(self, sequence, digests) -> _Task:
        """Offline track: the whole sequence through one track stream,
        reading the stored certainty (``classify``) or the value band
        (``fixed``) as each step's criterion."""
        params = self.config.track
        if params["criterion"] == "classify":
            threshold = self.config.classify["threshold"]
            train_key = self._train_key(sequence.times, digests)
            digest_of = dict(zip(sequence.times, digests))

            def criteria_fn(vol):
                key = self._classify_key(train_key, digest_of[vol.time])
                return self.store.get_array(key) > threshold
        else:
            def criteria_fn(vol):
                return (vol.data >= params["lo"]) & (vol.data <= params["hi"])
        return self._track_task(sequence.times, digests, _task_track,
                                (sequence, params["seed_voxel"],
                                 params["connectivity"], criteria_fn))

    def _export_frames(self, times) -> None:
        """Idempotently materialize stored frames as image files."""
        fmt = self.config.render["export"]
        if not fmt:
            return
        tasks = self.manifest.stages["render"].tasks
        for time in times:
            image = Image.from_array(self.store.get_array(tasks[_label(time)]["key"]))
            path = self.run_dir / "frames" / f"frame_{int(time):06d}.{fmt}"
            if fmt == "png":
                image.save_png(path)
            else:
                image.save_ppm(path)
