"""Follow-mode battery: in-situ runs must equal offline runs, byte for byte.

The contract under test (``repro.run.follow``): a follower that consumed
a still-being-written sequence — whatever the arrival pathology (live
cadence, torn writes, out-of-order arrival, duplicate re-writes, steps
skipped under backpressure, a SIGKILL mid-flight) — finalizes to a run
directory whose manifest, config, and every content-addressed store
artifact are **byte-identical** to an offline ``repro run`` over the
completed sequence.  Volatile files (``stats.json``,
``follow_status.json``) are deliberately outside that comparison.

Orchestrated writers gate on ``follow_status.json`` (the follower's own
progress snapshot) instead of sleeping, so the interesting interleavings
— "step re-written after the follower processed it", "training step
arrives last" — happen deterministically.
"""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_argon_sequence
from repro.parallel.faults import FAULT_ENV
from repro.parallel.streaming import SequenceWatcher, step_ready
from repro.run import (
    ArtifactStore,
    FollowRunner,
    PipelineRunner,
    RunConfig,
    RunError,
    SimulatedWriter,
    follow_sequence,
)
from repro.serve import ServeApp, ServeClient, ServerHandle
from repro.volume.io import VolumeFormatError, save_sequence, save_volume

SHAPE = (12, 14, 14)
TIMES = [195, 210, 225]

# Executed-task layout of a cold follow over this 3-step full-DAG config
# (the shared box-TF artifact dedups for the 2nd/3rd steps, so those tfs
# visits are skips, not numbered tasks):
#
#   0 train · 1 c195 · 2 tf195 · 3 r195 · 4 c210 · 5 r210
#   · 6 c225 · 7 r225 · 8 track-finalize
#
# crash point (executed-task index) -> tasks the resume must skip: the
# crashed run persisted tasks 0..N-1, plus the two box-TF dedups.
EXPECTED_FOLLOW_SKIPS = {0: 2, 2: 4, 3: 5, 5: 7, 8: 10}
TOTAL_VISITS = 11  # every resume walk visits 11 task sites (9 exec + 2 dedup)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A saved tiny sequence, a follow-ready config, and an offline reference."""
    root = tmp_path_factory.mktemp("follow")
    sequence = make_argon_sequence(shape=SHAPE, times=TIMES)
    save_sequence(sequence, root / "argon")
    z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
    lo, hi = sequence.value_range
    config = {
        "sequence": str(root / "argon"),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 25,
                     "epochs": 25, "hidden": 8, "mode": "fast"},
        "track": {"criterion": "classify", "seed_voxel": [0, z, y, x]},
        # Follow mode requires the TF domain pinned; pin it for the
        # offline reference too so both derive identical TF keys.
        "tfs": {"domain": [float(lo), float(hi)]},
        "render": {"size": 16},
    }
    (root / "config.json").write_text(json.dumps(config))
    reference = root / "reference"
    result = _run_cli(["run", str(root / "config.json"), "--out", str(reference)])
    assert result.returncode == 0, result.stderr
    return root, sequence, config, reference


def _run_cli(argv, fault_spec=None):
    env = dict(os.environ)
    env.pop(FAULT_ENV, None)
    if fault_spec is not None:
        env[FAULT_ENV] = fault_spec
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _store_files(run_dir):
    return sorted(p.name for p in (run_dir / "store").iterdir())


def _assert_bit_identical(run_dir, reference):
    for rel in ("manifest.json", "config.json"):
        assert ((run_dir / rel).read_bytes() == (reference / rel).read_bytes()), (
            f"{rel} of the follow run differs from the offline run")
    assert _store_files(run_dir) == _store_files(reference)
    for name in _store_files(reference):
        assert ((run_dir / "store" / name).read_bytes()
                == (reference / "store" / name).read_bytes()), (
            f"store artifact {name} differs from the offline run")


def _read_status(run_dir):
    try:
        return json.loads((run_dir / "follow_status.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _wait_processed(run_dir, count, timeout=60.0):
    """Block until the follower's status snapshot shows ``count`` steps."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = _read_status(run_dir)
        if status is not None and status["steps_processed"] >= count:
            return True
        time.sleep(0.01)
    return False


def _publish_manifest(sequence, out_dir):
    """The writer's completion signal, in canonical sequence order."""
    manifest = {
        "format_version": 1,
        "name": sequence.name,
        "steps": [f"step_{t:06d}" for t in sequence.times],
        "times": sequence.times,
        "shape": list(sequence.shape),
    }
    (Path(out_dir) / "sequence.json").write_text(json.dumps(manifest, indent=2))


class _WriterThread(threading.Thread):
    """Run a writer callable off-thread, capturing its failure."""

    def __init__(self, target):
        super().__init__(daemon=True)
        self._target_fn = target
        self.error = None

    def run(self):
        try:
            self._target_fn()
        except BaseException as exc:  # surfaces in join_and_check
            self.error = exc

    def join_and_check(self, timeout=120):
        self.join(timeout)
        assert not self.is_alive(), "writer thread never finished"
        if self.error is not None:
            raise self.error


# --------------------------------------------------------------------- #
# Byte-identity under arrival pathologies
# --------------------------------------------------------------------- #
def test_follow_completed_directory_is_byte_identical(workload, tmp_path):
    """The degenerate case: everything already on disk at the first scan."""
    root, _sequence, config, reference = workload
    run_dir = tmp_path / "run"
    report = follow_sequence(root / "argon", config, run_dir, poll=0.02)
    assert report.steps == len(TIMES)
    assert set(report.stages.values()) == {"complete"}
    assert report.executed == 9 and report.skipped == 2
    assert report.dropped == 0
    assert len(report.lag_seconds) == len(TIMES)
    _assert_bit_identical(run_dir, reference)
    assert _read_status(run_dir)["state"] == "complete"


def test_follow_live_writer_with_torn_step(workload, tmp_path):
    """A cadenced writer whose 2nd step first appears as a torn half-brick:
    the quiescence/size probe must hold the step back, never feed garbage."""
    _root, sequence, config, reference = workload
    live = tmp_path / "live"
    writer = SimulatedWriter(sequence, live, cadence=0.05,
                             torn_steps=[1], torn_hold=0.15)
    thread = _WriterThread(writer.run)
    thread.start()
    report = follow_sequence(live, config, tmp_path / "run",
                             poll=0.02, quiescence=0.05)
    thread.join_and_check()
    assert report.steps == len(TIMES)
    _assert_bit_identical(tmp_path / "run", reference)


def test_follow_out_of_order_arrival(workload, tmp_path):
    """Steps land newest-first; the classify training step arrives *last*,
    so every earlier step defers classification until it shows up."""
    _root, sequence, config, reference = workload
    live = tmp_path / "live"
    live.mkdir()
    run_dir = tmp_path / "run"
    by_time = {vol.time: vol for vol in sequence}

    def write_shuffled():
        for arrived, step_time in enumerate([225, 210, 195], start=1):
            save_volume(by_time[step_time], live / f"step_{step_time:06d}")
            assert _wait_processed(run_dir, arrived), (
                f"follower never processed step {step_time}")
        _publish_manifest(sequence, live)

    thread = _WriterThread(write_shuffled)
    thread.start()
    report = follow_sequence(live, config, run_dir, poll=0.02)
    thread.join_and_check()
    assert report.steps == len(TIMES)
    _assert_bit_identical(run_dir, reference)
    stats = json.loads((run_dir / "stats.json").read_text())
    # 225 and 210 could not classify before 195 arrived.
    assert stats["counters"]["follow.deferred"] == 2


def test_follow_rewrite_and_duplicate(workload, tmp_path):
    """After the follower has processed everything once, the writer
    re-writes one step with *new* content (a corrected brick: every
    derived artifact must be recomputed and the stale ones pruned) and
    another with *identical* bytes (pure dedup)."""
    _root, sequence, config, reference = workload
    stale = make_argon_sequence(shape=SHAPE, times=TIMES, seed=13)
    live = tmp_path / "live"
    live.mkdir()
    run_dir = tmp_path / "run"
    by_time = {vol.time: vol for vol in sequence}

    def write_then_rewrite():
        save_volume(by_time[195], live / "step_000195")
        save_volume(stale[1], live / "step_000210")  # wrong content, right step
        save_volume(by_time[225], live / "step_000225")
        assert _wait_processed(run_dir, 3), "follower never saw the first wave"
        save_volume(by_time[210], live / "step_000210")  # corrected content
        save_volume(by_time[225], live / "step_000225")  # identical re-write
        _publish_manifest(sequence, live)

    thread = _WriterThread(write_then_rewrite)
    thread.start()
    report = follow_sequence(live, config, run_dir, poll=0.02)
    thread.join_and_check()
    assert report.steps == len(TIMES)
    _assert_bit_identical(run_dir, reference)
    counters = json.loads((run_dir / "stats.json").read_text())["counters"]
    assert counters["follow.rewrites"] >= 1
    assert counters["follow.duplicates"] >= 1
    # The stale step's certainty/render artifacts became orphans; the
    # run-private store GC must have removed them (bit-identity above
    # already proves the listing is clean).
    assert counters["follow.gc"] >= 2


def test_follow_skip_policy_defers_to_finalize(workload, tmp_path):
    """Under ``skip`` backpressure only the newest ready step is processed
    live; the dropped ones are still backfilled at finalize, so the final
    bytes do not change — only the live latency profile does."""
    root, _sequence, config, reference = workload
    run_dir = tmp_path / "run"
    report = follow_sequence(root / "argon", config, run_dir,
                             policy="skip", poll=0.02)
    assert report.dropped == 2
    assert report.steps == len(TIMES)
    _assert_bit_identical(run_dir, reference)


def test_follow_iterable_source(workload, tmp_path):
    """A generator bridging a live solver instead of a watched directory.
    Pre-training volumes are retained in memory (nothing on disk to
    re-read), then released once the classifier exists."""
    _root, sequence, config, reference = workload
    run_dir = tmp_path / "run"
    report = follow_sequence(iter(list(sequence)), config, run_dir)
    assert report.steps == len(TIMES)
    assert len(report.lag_seconds) == len(TIMES)
    _assert_bit_identical(run_dir, reference)


def test_follow_masks_stay_unloaded_without_classify(workload, tmp_path):
    """A fixed-criterion follow never needs ground-truth masks; the
    follower's loader must say so (``masks=False``) instead of paying the
    I/O.  The same config's offline run pins the byte-identity."""
    root, _sequence, config, _reference = workload
    fixed = dict(config)
    fixed["stages"] = ["track", "tfs", "render"]
    fixed["track"] = {"criterion": "fixed", "lo": 0.5, "hi": 10.0,
                      "seed_voxel": config["track"]["seed_voxel"]}
    fixed.pop("classify")

    import repro.run.follow as follow_mod
    real_load = follow_mod.load_volume
    masks_args = []

    def spy(stem, masks=True):
        masks_args.append(masks)
        return real_load(stem, masks=masks)

    follow_mod.load_volume = spy
    try:
        follow_sequence(root / "argon", fixed, tmp_path / "run", poll=0.02)
    finally:
        follow_mod.load_volume = real_load
    assert masks_args and set(masks_args) == {False}

    offline = PipelineRunner.create(RunConfig.from_dict(fixed),
                                    tmp_path / "offline")
    offline.run()
    _assert_bit_identical(tmp_path / "run", tmp_path / "offline")


def test_follow_idle_timeout_leaves_run_resumable(workload, tmp_path):
    """An abandoned writer trips the idle timeout with a clean error; the
    run directory resumes to completion once the data does arrive."""
    _root, sequence, config, reference = workload
    live = tmp_path / "live"
    live.mkdir()
    run_dir = tmp_path / "run"
    with pytest.raises(RunError, match="no step arrived"):
        follow_sequence(live, config, run_dir, poll=0.02, idle_timeout=0.2)
    assert _read_status(run_dir)["state"] == "idle-timeout"

    save_sequence(sequence, live)
    report = follow_sequence(live, config, run_dir, resume=True, poll=0.02)
    assert report.steps == len(TIMES)
    _assert_bit_identical(run_dir, reference)


def test_follow_rejects_malformed_completion_manifest(workload, tmp_path):
    """A published ``sequence.json`` that is not a manifest is a typed
    error at once, not "not published yet" until the idle timeout."""
    _root, _sequence, config, _reference = workload
    live = tmp_path / "live"
    live.mkdir()
    (live / "sequence.json").write_text("[]")
    start = time.monotonic()
    with pytest.raises(VolumeFormatError, match="not a sequence manifest"):
        follow_sequence(live, config, tmp_path / "run", poll=0.02, idle_timeout=5.0)
    assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------- #
# SIGKILL crash/resume battery (subprocess, like the offline battery)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("crash_at", sorted(EXPECTED_FOLLOW_SKIPS))
def test_follow_sigkill_then_resume_is_bit_identical(workload, tmp_path, crash_at):
    root, _sequence, _config, reference = workload
    run_dir = tmp_path / f"crash{crash_at}"

    crashed = _run_cli(["run", str(root / "config.json"), "--out", str(run_dir),
                        "--follow"], fault_spec=f"{crash_at}:crash")
    assert crashed.returncode == -9, (
        f"expected SIGKILL death, got rc={crashed.returncode}: {crashed.stderr}")
    assert not (run_dir / "stats.json").exists()

    resumed = _run_cli(["run", "--resume", str(run_dir), "--follow"])
    assert resumed.returncode == 0, resumed.stderr

    _assert_bit_identical(run_dir, reference)
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["skipped"] == EXPECTED_FOLLOW_SKIPS[crash_at]
    assert stats["executed"] == TOTAL_VISITS - EXPECTED_FOLLOW_SKIPS[crash_at]


def test_follow_crash_while_writer_still_running(workload, tmp_path):
    """Node loss *mid-simulation*: the writer keeps going while the
    follower is dead; the resume catches up on everything it missed."""
    _root, sequence, config, reference = workload
    live = tmp_path / "live"
    run_dir = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    writer = SimulatedWriter(sequence, live, cadence=0.2)
    thread = _WriterThread(writer.run)
    thread.start()
    crashed = _run_cli(["run", str(config_path), "--out", str(run_dir),
                        "--follow", str(live)], fault_spec="3:crash")
    assert crashed.returncode == -9, crashed.stderr
    thread.join_and_check()  # the simulation outlives the follower

    resumed = _run_cli(["run", "--resume", str(run_dir), "--follow", str(live)])
    assert resumed.returncode == 0, resumed.stderr
    _assert_bit_identical(run_dir, reference)


# --------------------------------------------------------------------- #
# Config/option validation
# --------------------------------------------------------------------- #
def test_follow_requires_explicit_train_steps(workload, tmp_path):
    root, _sequence, config, _reference = workload
    loose = json.loads(json.dumps(config))
    del loose["classify"]["train_steps"]
    runner = FollowRunner.create(RunConfig.from_dict(loose), tmp_path / "run")
    with pytest.raises(RunError, match="train_steps"):
        runner.follow(root / "argon")


def test_follow_requires_pinned_tf_domain(workload, tmp_path):
    root, _sequence, config, _reference = workload
    loose = json.loads(json.dumps(config))
    del loose["tfs"]["domain"]
    runner = FollowRunner.create(RunConfig.from_dict(loose), tmp_path / "run")
    with pytest.raises(RunError, match="tfs.domain"):
        runner.follow(root / "argon")


def test_follow_rejects_thin_axis_shaded_render(tmp_path):
    """A shaded render needs every axis at least 2 voxels long: the first
    step to arrive fails the follow with a RunError, before its tasks."""
    sequence = make_argon_sequence(shape=(1, 12, 12), times=[195, 210])
    lo, hi = (float(v) for v in sequence.value_range)
    config = {"sequence": str(tmp_path / "live"), "stages": ["tfs", "render"],
              "tfs": {"domain": [lo, hi]}, "render": {"size": 8}}
    with pytest.raises(RunError, match="shading needs a gradient"):
        follow_sequence(iter(list(sequence)), config, tmp_path / "run")
    assert ArtifactStore(tmp_path / "run" / "store").keys() == []


def test_follow_rejects_parallel_scheduling(workload, tmp_path):
    root, _sequence, config, _reference = workload
    config_obj = RunConfig.from_dict(config)
    with pytest.raises(RunError, match="workers"):
        FollowRunner.create(config_obj, tmp_path / "w", workers=2).follow(root / "argon")
    with pytest.raises(RunError, match="policy"):
        FollowRunner.create(config_obj, tmp_path / "b").follow(root / "argon",
                                                               policy="bogus")


# --------------------------------------------------------------------- #
# Directory-watching primitives
# --------------------------------------------------------------------- #
@pytest.fixture()
def one_step(tmp_path):
    sequence = make_argon_sequence(shape=SHAPE, times=[195])
    stem = tmp_path / "step_000195"
    save_volume(sequence[0], stem)
    return sequence, stem


def test_step_ready_accepts_complete_step(one_step):
    _sequence, stem = one_step
    probe = step_ready(stem, quiescence=0.05, now=time.time() + 1.0)
    assert probe is not None
    step_time, signature = probe
    assert step_time == 195
    assert any(name.endswith(".mask.raw") for name, _, _ in signature)


def test_step_ready_rejects_recent_writes(one_step):
    """Files modified within the quiescence window are not yet arrived."""
    _sequence, stem = one_step
    assert step_ready(stem, quiescence=60.0) is None


def test_step_ready_rejects_torn_brick(one_step):
    _sequence, stem = one_step
    raw = stem.with_suffix(".raw")
    raw.write_bytes(raw.read_bytes()[: raw.stat().st_size // 2])
    assert step_ready(stem, quiescence=0.0, now=time.time() + 1.0) is None


def test_step_ready_rejects_missing_mask(one_step):
    _sequence, stem = one_step
    next(stem.parent.glob("*.mask.raw")).unlink()
    assert step_ready(stem, quiescence=0.0, now=time.time() + 1.0) is None


def test_watcher_reports_rewrites_once(tmp_path):
    sequence = make_argon_sequence(shape=SHAPE, times=[195, 210])
    for vol in sequence:
        save_volume(vol, tmp_path / f"step_{vol.time:06d}")
    watcher = SequenceWatcher(tmp_path, quiescence=0.0)
    first = watcher.scan()
    assert [(t, r) for t, _, r in first] == [(195, False), (210, False)]
    assert watcher.scan() == []  # unchanged signatures: nothing new
    save_volume(sequence[0], tmp_path / "step_000195")  # fresh mtime
    second = watcher.scan()
    assert [(t, r) for t, _, r in second] == [(195, True)]
    assert watcher.manifest_times() is None
    _publish_manifest(sequence, tmp_path)
    assert watcher.manifest_times() == [195, 210]


# --------------------------------------------------------------------- #
# Serve endpoint
# --------------------------------------------------------------------- #
def test_serve_reports_follow_statuses(tmp_path):
    root = tmp_path / "root"
    nested = root / "runs" / "abc123"
    solo = root / "solo"
    nested.mkdir(parents=True)
    solo.mkdir()
    (nested / "follow_status.json").write_text(
        json.dumps({"state": "following", "steps_processed": 2}))
    (solo / "follow_status.json").write_text(
        json.dumps({"state": "complete", "steps_processed": 3}))
    handle = ServerHandle.start_in_thread(
        ServeApp(root, workers=1, max_queue=4, request_timeout=30))
    try:
        payload = ServeClient(port=handle.port, timeout=30).follow_status()
    finally:
        handle.shutdown()
    assert payload["count"] == 2
    by_dir = {item["run_dir"]: item for item in payload["follows"]}
    assert by_dir[str(nested)]["state"] == "following"
    assert by_dir[str(solo)]["steps_processed"] == 3


# --------------------------------------------------------------------- #
# Bounded memory
# --------------------------------------------------------------------- #
def _follow_peak_bytes(tmp_path, n_steps):
    """Traced-allocation peak of a track-only follow over ``n_steps``."""
    shape = (32, 40, 40)
    times = list(range(100, 100 + 5 * n_steps, 5))
    sequence = make_argon_sequence(shape=shape, times=times)
    source = tmp_path / f"seq{n_steps}"
    save_sequence(sequence, source)
    z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
    config = {
        "sequence": str(source),
        "stages": ["track"],
        "track": {"criterion": "fixed", "lo": 0.5, "hi": 10.0,
                  "seed_voxel": [0, z, y, x]},
    }
    del sequence
    tracemalloc.start()
    try:
        report = follow_sequence(source, config, tmp_path / f"run{n_steps}",
                                 poll=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps == n_steps
    return peak, int(np.prod(shape)) * 4


def test_follow_memory_stays_step_bounded(tmp_path):
    """Peak residency must not grow with sequence length: each step is
    loaded, processed, and dropped, with only bit-packed criteria/masks
    accumulating (~T/4 bytes per voxel-step).

    The yardstick is the *measured* working set of a 1-step follow (load
    buffers + criterion + growth temporaries, several times the raw
    volume bytes); a multi-step follow holds the previous step's mask
    alongside the current step's pipeline, so its ceiling is ~2 working
    sets — versus the full sequence a buffering follower would pin."""
    peak_one, _step_bytes = _follow_peak_bytes(tmp_path, 1)
    peak_short, _ = _follow_peak_bytes(tmp_path, 4)
    peak_long, _ = _follow_peak_bytes(tmp_path, 12)
    assert peak_long < 1.3 * peak_short, (
        f"peak grew with sequence length: {peak_short} -> {peak_long}")
    assert peak_long < 2.5 * peak_one, (
        f"peak {peak_long} exceeds ~2 single-step working sets ({peak_one})")
