"""Tests for repro.run.runner: the memoized resumable stage walk."""

import hashlib
import json

import numpy as np
import pytest

from repro.cache import SharedArrayCache
from repro.core.pipeline import render_sequence
from repro.data import make_argon_sequence
from repro.obs import get_metrics
from repro.parallel import bricking
from repro.render.camera import Camera
from repro.run import ArtifactStore, PipelineRunner, RunConfig, RunError
from repro.serve.handlers import ServeState, compute_render, normalize
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import load_sequence, save_sequence


@pytest.fixture(scope="module")
def seqdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("runner") / "argon"
    sequence = make_argon_sequence(shape=(14, 18, 18), times=[195, 210, 225])
    save_sequence(sequence, directory)
    return directory


@pytest.fixture(scope="module")
def seed_voxel(seqdir):
    from repro.volume.io import load_sequence

    sequence = load_sequence(seqdir)
    z, y, x = np.argwhere(sequence[0].mask("ring"))[0]
    return [0, int(z), int(y), int(x)]


def fast_config(seqdir, **overrides):
    payload = {
        "sequence": str(seqdir),
        "stages": ["tfs", "render"],
        "render": {"size": 24},
    }
    payload.update(overrides)
    return RunConfig.from_dict(payload)


def full_config(seqdir, seed_voxel):
    return RunConfig.from_dict({
        "sequence": str(seqdir),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 30,
                     "epochs": 30, "hidden": 8, "mode": "fast"},
        "track": {"criterion": "classify", "seed_voxel": seed_voxel},
        "render": {"size": 24},
    })


class TestRunLifecycle:
    def test_fresh_run_completes(self, seqdir, tmp_path):
        runner = PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        report = runner.run()
        assert report.stages == {"tfs": "complete", "render": "complete"}
        assert report.executed == 6 and report.skipped == 0
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "stats.json").exists()

    def test_rerun_skips_everything(self, seqdir, tmp_path):
        PipelineRunner.create(fast_config(seqdir), tmp_path / "run").run()
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert report.executed == 0
        assert report.skipped == 6
        counters = get_metrics().counter_values("run.tasks.")
        assert counters["run.tasks.skipped"] == 6
        assert counters.get("run.tasks.executed", 0) == 0

    def test_create_refuses_existing_run(self, seqdir, tmp_path):
        PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        with pytest.raises(RunError, match="resume"):
            PipelineRunner.create(fast_config(seqdir), tmp_path / "run")

    def test_resume_requires_run_dir(self, tmp_path):
        with pytest.raises(RunError, match="config.json"):
            PipelineRunner.resume(tmp_path)

    def test_resume_rejects_changed_config(self, seqdir, tmp_path):
        runner = PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        runner.run()
        config_path = tmp_path / "run" / "config.json"
        payload = json.loads(config_path.read_text())
        payload["render"]["size"] = 48
        config_path.write_text(json.dumps(payload))
        with pytest.raises(RunError, match="different config"):
            PipelineRunner.resume(tmp_path / "run")

    def test_resume_rejects_retired_track_engine(self, seqdir, seed_voxel, tmp_path):
        """A run directory whose config still names ``track.engine`` fails
        to resume with one error naming the field."""
        config = RunConfig.from_dict({
            "sequence": str(seqdir), "stages": ["track"],
            "track": {"criterion": "fixed", "lo": 0.0, "hi": 1.0,
                      "seed_voxel": seed_voxel}})
        PipelineRunner.create(config, tmp_path / "run")
        config_path = tmp_path / "run" / "config.json"
        payload = json.loads(config_path.read_text())
        payload["track"]["engine"] = "scipy"
        config_path.write_text(json.dumps(payload))
        with pytest.raises(RunError, match="engine"):
            PipelineRunner.resume(tmp_path / "run")

    def test_resume_survives_missing_manifest(self, seqdir, tmp_path):
        """Crash before the first manifest write: config.json alone resumes."""
        runner = PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert report.stages["render"] == "complete"

    def test_version_one_run_dir_names_its_format_version(self, seqdir, tmp_path):
        """A run directory from before the SHA-256 keys is refused by its
        manifest version, not as a fingerprint (config) mismatch."""
        PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        (tmp_path / "run" / "manifest.json").write_text(json.dumps({
            "format_version": 1, "config_fingerprint": "0" * 32,
            "sequence_digest": "0" * 32, "stages": {}}))
        with pytest.raises(RunError, match="format version 1; this build reads "
                                           "version 2"):
            PipelineRunner.resume(tmp_path / "run")

    def test_stats_are_volatile_not_manifest(self, seqdir, tmp_path):
        PipelineRunner.create(fast_config(seqdir), tmp_path / "run").run()
        stats = json.loads((tmp_path / "run" / "stats.json").read_text())
        assert stats["executed"] == 6
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert "executed" not in json.dumps(manifest)
        assert "timers" not in manifest


class TestDeterminism:
    def test_two_fresh_runs_bit_identical(self, seqdir, tmp_path):
        """Same config, separate run dirs: manifests and stores match bytes."""
        PipelineRunner.create(fast_config(seqdir), tmp_path / "a").run()
        PipelineRunner.create(fast_config(seqdir), tmp_path / "b").run()
        for rel in ("manifest.json", "config.json"):
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes())
        names_a = sorted(p.name for p in (tmp_path / "a" / "store").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b" / "store").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert ((tmp_path / "a" / "store" / name).read_bytes()
                    == (tmp_path / "b" / "store" / name).read_bytes())

    def test_workers_do_not_change_fingerprint_or_keys(self, seqdir, tmp_path):
        PipelineRunner.create(fast_config(seqdir), tmp_path / "a").run()
        PipelineRunner.create(fast_config(seqdir, workers=2), tmp_path / "b").run()
        manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest_a == manifest_b

    def test_corrupt_artifact_recomputed(self, seqdir, tmp_path):
        """A torn artifact is re-executed, not served."""
        runner = PipelineRunner.create(fast_config(seqdir), tmp_path / "run")
        runner.run()
        victim = sorted((tmp_path / "run" / "store").glob("*.bin"))[0]
        victim.write_bytes(b"torn")
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert report.executed >= 1
        final = PipelineRunner.resume(tmp_path / "run").run()
        assert final.executed == 0


    def test_inconsistent_sidecar_recomputes_exactly_that_task(self, seqdir,
                                                               tmp_path):
        """A frame sidecar whose dtype no longer parses is not trusted:
        the resume re-renders that one frame and converges to the bytes
        of an uninterrupted run."""
        PipelineRunner.create(fast_config(seqdir), tmp_path / "ref").run()
        PipelineRunner.create(fast_config(seqdir), tmp_path / "run").run()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        key = manifest["stages"]["render"]["tasks"]["step:000210"]["key"]
        meta_path = tmp_path / "run" / "store" / f"{key}.meta.json"
        meta_path.write_text(meta_path.read_text().replace('"float32"', '"nonsense"'))
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert (report.executed, report.skipped) == (1, 5)
        assert _run_bytes(tmp_path / "run") == _run_bytes(tmp_path / "ref")


class TestFullDag:
    def test_all_four_stages(self, seqdir, seed_voxel, tmp_path):
        report = PipelineRunner.create(full_config(seqdir, seed_voxel),
                                       tmp_path / "run").run()
        assert set(report.stages.values()) == {"complete"}
        # 1 train + 3 classify + 1 track + 3 tfs + 3 render
        assert report.executed == 11
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"classify", "track", "tfs", "render"}
        assert set(manifest["stages"]["classify"]["tasks"]) == {
            "train", "step:000195", "step:000210", "step:000225"}

    def test_tracked_masks_contain_the_seed(self, seqdir, seed_voxel, tmp_path):
        runner = PipelineRunner.create(full_config(seqdir, seed_voxel),
                                       tmp_path / "run")
        runner.run()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        step = f"step:{195:06d}"
        key = manifest["stages"]["track"]["tasks"][step]["key"]
        mask = runner.store.get_array(key)
        assert mask.dtype == np.uint8
        assert mask[tuple(seed_voxel[1:])] == 1

    def test_bad_seed_step_rejected(self, seqdir, tmp_path):
        config = RunConfig.from_dict({
            "sequence": str(seqdir),
            "stages": ["track"],
            "track": {"criterion": "fixed", "lo": 0.0, "hi": 1.0,
                      "seed_voxel": [9, 1, 1, 1]},
        })
        runner = PipelineRunner.create(config, tmp_path / "run")
        with pytest.raises(RunError, match="seed step"):
            runner.run()

    @pytest.mark.parametrize("stage,options,match", [
        ("track", {"seed_voxel": [0, 99, 0, 0]}, "seed voxel"),
        ("classify", {"mask": "nosuch"}, "mask 'nosuch'"),
        ("tfs", {"lo": 1e9}, "box band"),
    ])
    def test_bad_input_rejected_before_any_task(self, seqdir, seed_voxel, tmp_path,
                                                 stage, options, match):
        """Inputs that would fail inside a task (in a full DAG, only after
        classify had run) are rejected up front: nothing is stored."""
        payload = full_config(seqdir, seed_voxel).to_dict()
        payload[stage].update(options)
        runner = PipelineRunner.create(RunConfig.from_dict(payload), tmp_path / "run")
        with pytest.raises(RunError, match=match):
            runner.run()
        assert runner.store.keys() == []


class TestTrackOracle:
    """The run's stored track masks equal the ``grow_4d`` oracle over the
    stacked criteria the run reads: stored certainty above the classify
    threshold, or the fixed value band."""

    @pytest.mark.parametrize("connectivity", [1, 2])
    @pytest.mark.parametrize("criterion", ["fixed", "classify"])
    def test_stored_masks_equal_grow_4d(self, seqdir, seed_voxel, tmp_path,
                                        criterion, connectivity):
        from repro.data.argon import ring_value_band
        from repro.segmentation.regiongrow import grow_4d
        from repro.volume.io import load_sequence

        sequence = load_sequence(seqdir)
        payload = full_config(seqdir, seed_voxel).to_dict()
        payload["track"]["connectivity"] = connectivity
        if criterion == "fixed":
            # The ring's values drift up; a band spanning every step's
            # ring values tracks it to the last step.
            bands = [ring_value_band(sequence, t) for t in sequence.times]
            lo, hi = min(b[0] for b in bands), max(b[1] for b in bands)
            payload["stages"] = ["track"]
            payload["track"].update(criterion="fixed", lo=float(lo), hi=float(hi))
        else:
            payload["stages"] = ["classify", "track"]
        runner = PipelineRunner.create(RunConfig.from_dict(payload), tmp_path / "run")
        runner.run()
        stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]

        def stored(stage, time):
            return runner.store.get_array(stages[stage]["tasks"][f"step:{time:06d}"]["key"])

        if criterion == "fixed":
            criteria = np.stack([(v.data >= lo) & (v.data <= hi) for v in sequence])
        else:
            threshold = payload["classify"]["threshold"]
            criteria = np.stack([stored("classify", t) > threshold
                                 for t in sequence.times])
        expected = grow_4d(criteria, [tuple(seed_voxel)], connectivity=connectivity)
        masks = np.stack([stored("track", t) for t in sequence.times])
        assert masks.dtype == np.uint8
        assert expected[-1].any(), "the tracked feature must reach the last step"
        assert np.array_equal(masks.astype(bool), expected)


class TestPoolFailure:
    def test_failed_task_keeps_its_wave_work(self, seqdir, tmp_path, monkeypatch):
        """A task that fails on the pool fails the run only once its wave
        has drained, so the stage's finished artifacts are kept and the
        resume executes just the failed task."""
        from repro.parallel.executor import TaskError
        from repro.parallel.faults import FAULT_ENV

        # Tasks 0-2 are the tfs wave and 3-5 the render wave: the second
        # render fails its only attempt.
        monkeypatch.setenv(FAULT_ENV, "4:1")
        runner = PipelineRunner.create(fast_config(seqdir), tmp_path / "run", workers=2)
        with pytest.raises(TaskError):
            runner.run()
        monkeypatch.delenv(FAULT_ENV)
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert (report.executed, report.skipped) == (1, 5)


# --------------------------------------------------------------------- #
# One count rule: the wave, in both orders, on one worker and on a pool
# --------------------------------------------------------------------- #
# (order, workers) -> (executed, skipped) of a cold run of the crash
# battery's 3-step full DAG.  A stage wave checks every step's key before
# running any, so the shared box-TF key runs once per step; a one-task
# wave skips the key the previous step just stored, except on a pool,
# where every step's TF is submitted before the first one lands.
COUNT_TABLE = {("stage", 1): (11, 0), ("stage", 2): (11, 0),
               ("step", 1): (9, 2), ("step", 2): (11, 0)}


@pytest.fixture(scope="module")
def crash_battery_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("count_table")
    sequence = make_argon_sequence(shape=(12, 14, 14), times=[195, 210, 225])
    save_sequence(sequence, root / "argon")
    z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
    return RunConfig.from_dict({
        "sequence": str(root / "argon"),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 25,
                     "epochs": 25, "hidden": 8, "mode": "fast"},
        "track": {"criterion": "classify", "seed_voxel": [0, z, y, x]},
        "render": {"size": 16},
    })


def _run_bytes(run_dir):
    """The manifest's bytes and every store file's bytes, by name."""
    files = {"manifest.json": (run_dir / "manifest.json").read_bytes()}
    for path in sorted((run_dir / "store").iterdir()):
        files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def count_table_reference(crash_battery_config, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("count_table_ref") / "run"
    PipelineRunner.create(crash_battery_config, run_dir).run()
    return _run_bytes(run_dir)


@pytest.mark.parametrize("order,workers", sorted(COUNT_TABLE))
def test_count_table(crash_battery_config, count_table_reference, tmp_path,
                     order, workers):
    runner = PipelineRunner.create(crash_battery_config, tmp_path / "run",
                                   workers=workers, pipelined=order == "step")
    report = runner.run()
    assert (report.executed, report.skipped) == COUNT_TABLE[order, workers]
    assert _run_bytes(tmp_path / "run") == count_table_reference


class TestCrashGuards:
    def test_crash_injection_with_workers_rejected(self, seqdir, tmp_path,
                                                   monkeypatch):
        from repro.parallel.faults import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "2:crash")
        runner = PipelineRunner.create(fast_config(seqdir, workers=2),
                                       tmp_path / "run")
        with pytest.raises(RunError, match="workers=1"):
            runner.run()


class _CountingHash:
    def __init__(self, counter, inner):
        self._counter, self._inner = counter, inner

    def update(self, data):
        self._counter.bytes += memoryview(data).nbytes
        self._inner.update(data)

    def hexdigest(self):
        return self._inner.hexdigest()


class _CountingHashlib:
    """Stands in for ``hashlib`` inside the hash kernel and counts every
    byte fed to the hashes it hands out."""

    def __init__(self):
        self.bytes = 0

    def __getattr__(self, name):
        make = getattr(hashlib, name)

        def counted(data=b"", **kwargs):
            digest = _CountingHash(self, make(**kwargs))
            digest.update(data)
            return digest
        return counted


@pytest.fixture(scope="module")
def hash_seqdir(tmp_path_factory):
    # Large enough that one extra pass over the voxels dwarfs the slack
    # the hash-once bound allows for keys and small JSON artifacts.
    directory = tmp_path_factory.mktemp("hash_once") / "argon"
    save_sequence(make_argon_sequence(shape=(24, 32, 32), times=[195, 210, 225]),
                  directory)
    return directory


class TestHashOnce:
    def test_resume_hashes_each_byte_once(self, hash_seqdir, tmp_path, monkeypatch):
        """Resuming an unchanged 4-stage run hashes each step's voxels and
        masks once and each stored payload once, plus under 64 KiB of
        keys and re-read JSON artifacts."""
        sequence = load_sequence(hash_seqdir)
        z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
        config = RunConfig.from_dict({
            "sequence": str(hash_seqdir),
            "stages": ["classify", "track", "tfs", "render"],
            "classify": {"mask": "ring", "train_steps": [195], "samples": 20,
                         "epochs": 10, "hidden": 4, "mode": "fast"},
            "track": {"criterion": "classify", "seed_voxel": [0, z, y, x]},
            "render": {"size": 16},
        })
        PipelineRunner.create(config, tmp_path / "run").run()
        counter = _CountingHashlib()
        monkeypatch.setattr(bricking, "hashlib", counter)
        report = PipelineRunner.resume(tmp_path / "run").run()
        assert report.executed == 0
        inputs = sum(vol.data.nbytes + sum(m.nbytes for m in vol.masks.values())
                     for vol in sequence)
        stored = sum(path.stat().st_size
                     for path in (tmp_path / "run" / "store").glob("*.bin"))
        assert counter.bytes <= inputs + stored + 64 * 1024

    def test_frame_keys_agree(self, hash_seqdir, tmp_path):
        """One step, TF, camera and renderer give one frame key: the
        runner's render key, the frame-cache key of render_sequence and
        serve's response digest."""
        config = fast_config(hash_seqdir, render={"size": 16})
        PipelineRunner.create(config, tmp_path / "run").run()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        keys = [info["key"] for info in manifest["stages"]["render"]["tasks"].values()]
        assert len(set(keys)) == 3

        sequence = load_sequence(hash_seqdir)
        lo, hi = sequence.value_range
        tf = TransferFunction1D((lo, hi)).add_box(lo + 0.3 * (hi - lo), hi, 0.8)
        cache = SharedArrayCache(tmp_path / "cache")
        render_sequence(sequence, tf, camera=Camera(width=16, height=16), cache=cache)
        store = ArtifactStore(tmp_path / "run" / "store")
        for key in keys:
            assert np.array_equal(cache.load(key), store.get_array(key))

        state = ServeState(hash_seqdir.parent)
        served = compute_render(state, normalize("render", {
            "sequence": hash_seqdir.name, "size": 16}))
        assert [frame["digest"] for frame in served["frames"]] == keys
