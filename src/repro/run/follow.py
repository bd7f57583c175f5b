"""In-situ follow mode: run the pipeline against a still-running simulation.

The offline :class:`~repro.run.runner.PipelineRunner` pulls a complete,
saved sequence.  :class:`FollowRunner` is its online counterpart for the
paper's deployment story (Sec. 8): the simulation is still writing, and
the tracking/rendering pipeline keeps up with it instead of waiting for
the run to end.  Steps are consumed from either

- a **watched directory** the simulation writes into (completeness +
  quiescence probing via :class:`repro.parallel.streaming.SequenceWatcher`,
  completion signalled by the writer's ``sequence.json``), or
- an **iterable of volumes** (a generator bridging a live solver).

Everything downstream is the offline runner's own machinery: each
arriving step's tasks come from the same per-stage task builders and go
through the same memoized dispatcher (``_wave``: record, skip what is
stored, run, persist), one task per wave.  Every artifact key derives
from stage parameters and volume digests alone — never from arrival
order — so a follower that processed steps as they trickled in, was
SIGKILLed, resumed, and finalized ends up with a run directory
(manifest + content-addressed store) byte-identical to an offline run
over the completed sequence.  Incremental tracking goes through
:class:`~repro.core.tracking.TrackStream`; the one track task finalizes
it, and its refinement reconciles to the offline
:func:`~repro.segmentation.regiongrow.grow_4d` fixpoint regardless of
arrival order.

Memory is bounded: each arriving step is loaded, pushed through its
per-step tasks, and dropped — only bit-packed criteria/masks (T/8 bytes
per voxel-step) and O(1) metadata persist per step, so peak residency
stays at ~2 timestep working sets however long the simulation runs.  The
exception is classify training: volumes listed in
``classify.train_steps`` must be co-resident once (directory sources
re-load them from disk at training time; iterable sources retain every
pre-training volume, which with the conventional "train on the first
step" setup is just the first volume).

Backpressure when the writer outpaces the follower is explicit
(``policy``): ``queue`` (default) processes every step in time order,
``skip`` jumps to the newest ready step and defers the rest to finalize
(counted in ``follow.dropped``), ``block`` is ``queue`` for directories
and natural pull-rate backpressure for iterables.  Per-step
arrival-to-artifact latency lands in the ``follow.lag`` timer and the
volatile ``follow_status.json`` the serve daemon's
``GET /v1/follow/status`` reports.
"""

from __future__ import annotations

import bisect
import json
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.pipeline import volume_digest
from repro.core.tracking import FeatureTracker
from repro.obs import get_metrics
from repro.parallel.faults import as_injector
from repro.parallel.streaming import SequenceWatcher
from repro.run.config import RunConfig
from repro.run.manifest import STATUS_COMPLETE, STATUS_RUNNING, RunManifest
from repro.run.runner import PipelineRunner, RunError, _sequence_digest
from repro.utils.atomic import atomic_write_text
from repro.volume.io import load_volume

#: Backpressure policies for a writer that outpaces the follower.
POLICIES = ("queue", "skip", "block")


@dataclass(frozen=True)
class FollowReport:
    """What one :meth:`FollowRunner.follow` invocation did."""

    run_dir: Path
    stages: dict          # stage name -> final status
    steps: int            # distinct time steps processed
    executed: int         # tasks computed this invocation
    skipped: int          # tasks satisfied from the store
    dropped: int          # steps deferred to finalize by the skip policy
    artifacts: int        # artifacts in the store after finalize
    lag_seconds: tuple    # per-step arrival -> artifacts latency samples


def _task_finalize_stream(stream):
    """Close the track stream: refinement sweeps to the offline fixpoint.

    Yields the per-step uint8 masks one at a time, so persisting them
    never holds more than one unpacked step.
    """
    result = stream.finalize(refine=True)
    get_metrics().counter("track.stream_sweeps").inc(result.sweeps)
    return (result.step_mask(i).astype(np.uint8) for i in range(len(result.times)))


class FollowRunner(PipelineRunner):
    """Online (in-situ) variant of :class:`PipelineRunner`.

    Parameters beyond the base runner's:

    policy:
        Backpressure policy (:data:`POLICIES`) when several steps are
        ready at once.
    poll:
        Seconds between directory scans while nothing is ready.
    quiescence:
        Seconds a step's files must sit unmodified before they count as
        arrived (default: ``poll``) — the torn-write guard for foreign
        writers that stream bytes into the final name.
    idle_timeout:
        Raise :class:`RunError` (leaving the run directory resumable) if
        no step arrives and no completion manifest appears for this many
        seconds.  ``None`` waits forever.
    max_steps:
        Stop following and finalize after this many distinct steps —
        for bounded smoke tests against endless writers.

    Follow-specific config requirements, checked up front: with ``tfs``
    or ``render`` staged, ``tfs.domain`` must be pinned (the sequence
    value range is unknowable mid-simulation); with ``classify`` staged,
    ``classify.train_steps`` must be explicit (the offline default —
    the first sequence step — is equally unknowable).
    """

    _stat_prefixes = ("run.", "follow.")

    def __init__(self, config: RunConfig, run_dir, workers: int | None = None,
                 pipelined: bool = False, store=None, pool=None,
                 policy: str = "queue", poll: float = 0.05,
                 quiescence: float | None = None,
                 idle_timeout: float | None = None,
                 max_steps: int | None = None) -> None:
        if pipelined:
            raise RunError(
                "follow mode schedules work per arrival; --pipelined does not apply")
        effective = workers if workers is not None else config.workers
        if effective > 1:
            raise RunError(
                "follow mode executes arriving steps serially (workers=1): "
                "arrival order, not fan-out, is the schedule")
        super().__init__(config, run_dir, workers=1, store=store, pool=pool)
        # A run-private store may be garbage-collected at finalize (orphans
        # from re-written steps); a shared store is never pruned.
        self._private_store = store is None
        self._apply_follow(policy=policy, poll=poll, quiescence=quiescence,
                           idle_timeout=idle_timeout, max_steps=max_steps)

    def _apply_follow(self, policy: str = "queue", poll: float = 0.05,
                      quiescence: float | None = None,
                      idle_timeout: float | None = None,
                      max_steps: int | None = None) -> None:
        if policy not in POLICIES:
            raise RunError(f"unknown follow policy {policy!r}; known: {POLICIES}")
        self.policy = policy
        self.poll = float(poll)
        self.quiescence = self.poll if quiescence is None else float(quiescence)
        self.idle_timeout = None if idle_timeout is None else float(idle_timeout)
        self.max_steps = None if max_steps is None else int(max_steps)

    @classmethod
    def create(cls, config: RunConfig, run_dir, workers: int | None = None,
               pipelined: bool = False, store=None, pool=None,
               **follow_options) -> "FollowRunner":
        runner = super().create(config, run_dir, workers=workers,
                                pipelined=pipelined, store=store, pool=pool)
        runner._apply_follow(**follow_options)
        return runner

    @classmethod
    def resume(cls, run_dir, workers: int | None = None,
               pipelined: bool = False, store=None, pool=None,
               **follow_options) -> "FollowRunner":
        runner = super().resume(run_dir, workers=workers,
                                pipelined=pipelined, store=store, pool=pool)
        runner._apply_follow(**follow_options)
        return runner

    # ------------------------------------------------------------------ #
    # The follow loop
    # ------------------------------------------------------------------ #
    def follow(self, source=None) -> FollowReport:
        """Consume ``source`` until complete; finalize; return a report.

        ``source`` is a sequence directory (default: the config's
        ``sequence``) or an iterable of volumes.  Resuming after a crash
        is the same call on :meth:`resume`'s runner: completed artifacts
        are skipped by key, the track stream is rebuilt by re-pushing
        criteria, and the finalized bytes are identical.
        """
        config = self.config
        self._metrics.reset("run.")
        self._metrics.reset("follow.")
        self._injector = as_injector(None)
        self._prepare()
        # Per-invocation state: parallel time-sorted views of everything
        # seen so far.  All O(steps) metadata — never voxel data.
        self._times: list[int] = []
        self._digest_of: dict[int, str] = {}
        self._step_keys: dict[int, dict] = {}
        self._stems: dict[int, Path] = {}
        self._retained: dict[int, object] = {}
        self._deferred: dict[int, Path] = {}
        self._classify_backlog: list[int] = []
        self._trained = None      # (train key, artifact) once trained
        self._stream = None
        self._track_pushed: set[int] = set()
        self._lags: list[float] = []
        self._dropped = 0
        # The manifest starts with an empty sequence digest (the sequence
        # is not known yet) and RUNNING stages; finalize fills the digest
        # and flips statuses, after which the sorted-keys serialization is
        # byte-identical to the offline runner's.
        self.manifest = RunManifest(
            config_fingerprint=config.fingerprint(),
            sequence_digest="",
            stage_names=config.stages,
        )
        for stage in config.stages:
            self.manifest.set_status(stage, STATUS_RUNNING)
        self._save_manifest()
        if source is None:
            source = config.sequence
        with self._metrics.span("follow.total", stages=len(config.stages),
                                policy=self.policy):
            if isinstance(source, (str, Path)):
                report = self._follow_directory(Path(source))
            else:
                report = self._follow_iterable(source)
        return report

    def _follow_directory(self, directory: Path) -> FollowReport:
        watcher = SequenceWatcher(directory, quiescence=self.quiescence)
        pending: list[tuple[int, Path, bool]] = []
        arrival: dict[int, float] = {}
        idle_since = _time.monotonic()
        self._write_status("following")
        while True:
            fresh = watcher.scan()
            now = _time.monotonic()
            for step_time, stem, rewritten in fresh:
                if rewritten or step_time not in arrival:
                    arrival[step_time] = now
                pending.append((step_time, stem, rewritten))
            if pending:
                idle_since = now
                for step_time, stem, _ in self._select(pending):
                    self._stems[step_time] = stem
                    volume = load_volume(stem, masks=self._need_masks)
                    self._ingest_volume(volume)
                    del volume
                    lag = _time.monotonic() - arrival.get(step_time, now)
                    self._lags.append(lag)
                    self._metrics.timer("follow.lag").record(lag)
                    self._metrics.counter("follow.steps").inc()
                self._write_status("following")
                if (self.max_steps is not None
                        and len(self._digest_of) >= self.max_steps):
                    break
                continue  # rescan immediately: more may have landed meanwhile
            final_times = watcher.manifest_times()
            if final_times is not None:
                known = set(self._digest_of) | set(self._deferred)
                # `settled` guards the publish-after-rewrite race: the
                # manifest may land while a just-rewritten step is still
                # inside the quiescence window, where scan reports nothing.
                if set(final_times) <= known and watcher.settled():
                    break
            if (self.idle_timeout is not None
                    and _time.monotonic() - idle_since > self.idle_timeout):
                self._write_status("idle-timeout")
                raise RunError(
                    f"follow: no step arrived in {self.idle_timeout}s and the "
                    "writer has not published sequence.json; the run directory "
                    "stays resumable")
            _time.sleep(self.poll)
        return self._finalize()

    def _follow_iterable(self, volumes) -> FollowReport:
        self._write_status("following")
        for volume in volumes:
            start = _time.monotonic()
            step_time = int(volume.time)
            if self._need_masks and self._trained is None:
                # Generator steps cannot be re-read from disk: retain
                # everything that lands before training completes (with
                # conventional first-step training, just the first volume).
                self._retained[step_time] = volume
            self._ingest_volume(volume)
            lag = _time.monotonic() - start
            self._lags.append(lag)
            self._metrics.timer("follow.lag").record(lag)
            self._metrics.counter("follow.steps").inc()
            self._write_status("following")
            if (self.max_steps is not None
                    and len(self._digest_of) >= self.max_steps):
                break
        return self._finalize()

    def _select(self, pending: list) -> list:
        """Apply the backpressure policy to the ready-but-unprocessed queue."""
        batch = sorted(pending, key=lambda item: item[0])
        pending.clear()
        if self.policy == "skip" and len(batch) > 1:
            for step_time, stem, _ in batch[:-1]:
                self._stems[step_time] = stem
                if step_time not in self._deferred:
                    self._dropped += 1
                    self._metrics.counter("follow.dropped").inc()
                self._deferred[step_time] = stem
            return batch[-1:]
        return batch

    # ------------------------------------------------------------------ #
    # Per-step ingestion (the incremental memoized walk)
    # ------------------------------------------------------------------ #
    def _ingest_volume(self, volume) -> None:
        step_time = int(volume.time)
        voxels, digest = volume_digest(volume)
        known = self._digest_of.get(step_time)
        if known == digest and self._step_complete(step_time):
            self._metrics.counter("follow.duplicates").inc()
            return
        rewritten = known is not None and known != digest
        if known is None:
            bisect.insort(self._times, step_time)
        self._digest_of[step_time] = digest
        self._deferred.pop(step_time, None)
        if rewritten:
            # New content under an old step id: every derived key changes,
            # so re-derive and re-execute; the superseded artifacts become
            # orphans the finalize GC prunes.
            self._metrics.counter("follow.rewrites").inc()
            self._step_keys.pop(step_time, None)
            self._invalidate_training(step_time)
        with self._metrics.span("follow.step", time=step_time):
            self._process_step(volume, digest, voxels, rewritten)

    def _process_step(self, volume, digest: str, voxels: str,
                      rewritten: bool) -> None:
        step_time = int(volume.time)
        if "classify" in self._stage_set:
            if self._trained is None:
                if step_time not in self._classify_backlog:
                    self._classify_backlog.append(step_time)
                self._maybe_train()
                if self._trained is None:
                    self._metrics.counter("follow.deferred").inc()
            elif "classify" not in self._step_keys.get(step_time, {}):
                self._classify_step(volume, digest, rewritten)
        if ("track" in self._stage_set
                and self.config.track["criterion"] == "fixed"):
            params = self.config.track
            criterion = ((volume.data >= params["lo"])
                         & (volume.data <= params["hi"]))
            self._push_track(step_time, criterion, rewritten)
        if "tfs" in self._stage_set:
            task = self._tf_task(volume, digest)
            render = ((lambda tf_dict: self._render_step(volume, voxels, tf_dict))
                      if "render" in self._stage_set else None)
            self._wave([task], then=render)
            self._step_keys.setdefault(step_time, {})["tfs"] = task.key

    def _maybe_train(self) -> None:
        """Train once every ``classify.train_steps`` volume has arrived,
        then drain the backlog of steps that landed earlier."""
        if any(int(t) not in self._digest_of
               for t in self.config.classify["train_steps"]):
            return
        self._trained = self._train(
            self._times, [self._digest_of[t] for t in self._times],
            lambda t: self._reload_step(int(t)))
        for queued in list(self._classify_backlog):
            volume = self._reload_step(queued)
            self._classify_step(volume, self._digest_of[queued])
            del volume
        self._classify_backlog.clear()
        self._retained.clear()

    def _invalidate_training(self, step_time: int) -> None:
        """A re-written *training* step invalidates the trained artifact
        and everything classified with it."""
        if self._trained is None or "classify" not in self._stage_set:
            return
        if step_time not in [int(t) for t in self.config.classify["train_steps"]]:
            return
        self._trained = None
        for keys in self._step_keys.values():
            keys.pop("classify", None)
        self._classify_backlog = sorted(self._digest_of)
        if self.config.track["criterion"] == "classify":
            self._stream = None
            self._track_pushed.clear()
        self._metrics.counter("follow.retrains").inc()

    def _classify_step(self, volume, digest: str,
                       rewritten: bool = False) -> None:
        step_time = int(volume.time)
        task = self._classify_task(volume, digest, self._trained)
        push = None
        if ("track" in self._stage_set
                and self.config.track["criterion"] == "classify"):
            threshold = self.config.classify["threshold"]
            push = lambda certainty: self._push_track(
                step_time, certainty > threshold, rewritten)
        self._wave([task], then=push)
        self._step_keys.setdefault(step_time, {})["classify"] = task.key

    def _push_track(self, step_time: int, criterion, rewritten: bool) -> None:
        if self._stream is None:
            seed = tuple(int(v) for v in self.config.track["seed_voxel"])
            self._stream = self._tracker.open_stream([seed], name="follow")
        if step_time in self._track_pushed:
            if rewritten:
                self._stream.replace(step_time, np.asarray(criterion, dtype=bool))
            return
        self._stream.push(step_time, np.asarray(criterion, dtype=bool))
        self._track_pushed.add(step_time)

    def _render_step(self, volume, voxels: str, tf_dict: dict) -> None:
        step_time = int(volume.time)
        task = self._render_task(volume, voxels, tf_dict)
        self._wave([task])
        self._step_keys.setdefault(step_time, {})["render"] = task.key
        self._export_frames([step_time])

    # ------------------------------------------------------------------ #
    # Finalize: reconcile to the offline run's exact bytes
    # ------------------------------------------------------------------ #
    def _finalize(self) -> FollowReport:
        self._write_status("finalizing")
        known = sorted(set(self._digest_of) | set(self._stems)
                       | set(self._retained))
        for step_time in known:
            if (step_time in self._deferred
                    or step_time not in self._digest_of
                    or not self._step_complete(step_time)):
                volume = self._reload_step(step_time)
                self._ingest_volume(volume)
                del volume
        self._deferred.clear()
        if "classify" in self._stage_set and self._trained is None:
            raise RunError(
                f"follow: classify train_steps "
                f"{self.config.classify['train_steps']} never arrived")
        if not self._times:
            raise RunError("follow: no steps arrived before completion")
        if "track" in self._stage_set:
            self._finalize_track()
        self.manifest.sequence_digest = _sequence_digest(
            self._times, [self._digest_of[t] for t in self._times])
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_COMPLETE)
        self._save_manifest()
        if self._private_store:
            referenced = {info["key"]
                          for record in self.manifest.stages.values()
                          for info in record.tasks.values()}
            for key in self.store.keys():
                if key not in referenced:
                    self.store.remove(key)
                    self._metrics.counter("follow.gc").inc()
        self._write_stats()
        self._write_status("complete")
        return FollowReport(
            run_dir=self.run_dir,
            stages={name: self.manifest.stages[name].status
                    for name in self.config.stages},
            steps=len(self._times),
            executed=self._executed,
            skipped=self._skipped,
            dropped=self._dropped,
            artifacts=len(self.store.keys()),
            lag_seconds=tuple(self._lags),
        )

    def _finalize_track(self) -> None:
        if self._stream is None or sorted(self._track_pushed) != self._times:
            missing = sorted(set(self._times) - self._track_pushed)
            raise RunError(f"follow: track criteria missing for steps {missing}")
        # The offline runner's one track task, finalizing the stream
        # instead of growing; the incremental pushes were its prepayment.
        self._wave([self._track_task(
            self._times, [self._digest_of[t] for t in self._times],
            _task_finalize_stream, self._stream)])

    # ------------------------------------------------------------------ #
    # Support
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        """Check what follow mode needs pinned, then resolve stage
        parameters through the offline runner's resolve step."""
        config = self.config
        self._stage_set = set(config.stages)
        self._need_masks = "classify" in self._stage_set
        if "classify" in self._stage_set and not config.classify["train_steps"]:
            raise RunError(
                "follow mode requires explicit classify.train_steps: the "
                "offline default (the first sequence step) is unknowable "
                "while the simulation is still writing")
        if "tfs" in self._stage_set and config.tfs["domain"] is None:
            raise RunError(
                "follow mode requires an explicit tfs.domain [lo, hi]: "
                "the sequence value range is unknowable mid-simulation")
        self._resolve(self._tf_domain(None) if "tfs" in self._stage_set else None)
        if "track" in self._stage_set:
            self._tracker = FeatureTracker(config.track["connectivity"])

    def _reload_step(self, step_time: int):
        stem = self._stems.get(step_time)
        if stem is not None:
            return load_volume(stem, masks=self._need_masks)
        volume = self._retained.get(step_time)
        if volume is None:
            raise RunError(
                f"follow: step {step_time} is needed again but its source is "
                "gone (iterable sources cannot be re-read)")
        return volume

    def _step_complete(self, step_time: int) -> bool:
        keys = self._step_keys.get(step_time, {})
        if "classify" in self._stage_set and "classify" not in keys:
            return False
        if "tfs" in self._stage_set and "tfs" not in keys:
            return False
        if "render" in self._stage_set and "render" not in keys:
            return False
        if "track" in self._stage_set and step_time not in self._track_pushed:
            return False
        return True

    def _write_status(self, state: str) -> None:
        """Volatile live-progress snapshot (never part of bit-identity)."""
        lags = self._lags
        payload = {
            "state": state,
            "policy": self.policy,
            "steps_seen": len(set(self._digest_of) | set(self._deferred)),
            "steps_processed": len(self._digest_of),
            "dropped": self._dropped,
            "executed": self._executed,
            "skipped": self._skipped,
            "last_step": self._times[-1] if self._times else None,
            "lag_last_s": round(lags[-1], 6) if lags else None,
            "lag_p50_s": (round(float(np.percentile(lags, 50)), 6)
                          if lags else None),
            "lag_p95_s": (round(float(np.percentile(lags, 95)), 6)
                          if lags else None),
            "updated_unix": _time.time(),
        }
        atomic_write_text(self.run_dir / "follow_status.json",
                          json.dumps(payload, sort_keys=True, indent=2) + "\n")


def follow_sequence(source, config, run_dir, *, resume: bool = False,
                    store=None, **follow_options) -> FollowReport:
    """One-call follow: create (or resume) a run directory and follow ``source``.

    ``source`` is a sequence directory being written, or an iterable of
    volumes; ``config`` is a :class:`~repro.run.config.RunConfig` or a
    plain config dict.  Keyword options forward to :class:`FollowRunner`
    (``policy``, ``poll``, ``quiescence``, ``idle_timeout``, ``max_steps``).
    """
    if isinstance(config, dict):
        config = RunConfig.from_dict(config)
    if resume:
        runner = FollowRunner.resume(run_dir, store=store, **follow_options)
    else:
        runner = FollowRunner.create(config, run_dir, store=store,
                                     **follow_options)
    return runner.follow(source)
