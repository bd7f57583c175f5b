"""Tests for repro.cli: the batch workflow end to end."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def seqdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "argon"
    rc = main([
        "generate", "argon", str(path),
        "--shape", "20", "28", "28",
        "--times", "195", "210", "225", "240", "255",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def iatf_path(seqdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_iatf") / "iatf.json"
    rc = main([
        "train-iatf", str(seqdir),
        "--key-frames", "195", "255",
        "--mask", "ring",
        "--out", str(out),
        "--epochs", "150",
    ])
    assert rc == 0
    return out


@pytest.fixture
def truncated_seqdir(seqdir, tmp_path):
    """A copy of the CLI sequence whose first voxel brick is cut to 100 bytes."""
    copy = tmp_path / "truncated"
    shutil.copytree(seqdir, copy)
    raw = copy / "step_000195.raw"
    raw.write_bytes(raw.read_bytes()[:100])
    return copy


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, timeout=120)


# One argv per subcommand that reads a sequence directory ``SEQ``.
SEQUENCE_READERS = {
    "info": ["info", "SEQ"],
    "render": ["render", "SEQ", "--out", "OUT", "--size", "8"],
    "classify": ["classify", "SEQ", "--mask", "ring", "--train-steps", "195"],
    "apply-iatf": ["apply-iatf", "SEQ", "IATF"],
    "train-iatf": ["train-iatf", "SEQ", "--key-frames", "195", "255",
                   "--mask", "ring", "--out", "OUT"],
    "match": ["match", "SEQ", "--range", "0", "1"],
    "track": ["track", "SEQ", "--seed-voxel", "0", "1", "1", "1",
              "--range", "0", "1", "--streaming"],
    "run": ["run", "CFG", "--out", "OUT"],
}


class TestUnreadableSequence:
    """Every subcommand that reads a sequence exits 1 with one line, never
    a traceback, when its bricks or its ``sequence.json`` are unreadable."""

    @pytest.mark.parametrize("command", sorted(SEQUENCE_READERS))
    @pytest.mark.parametrize("defect", ["truncated-raw", "manifest-list"])
    def test_exits_one_without_traceback(self, seqdir, iatf_path, tmp_path,
                                         command, defect):
        bad = tmp_path / "seq"
        shutil.copytree(seqdir, bad)
        if defect == "truncated-raw":
            raw = bad / "step_000195.raw"
            raw.write_bytes(raw.read_bytes()[:100])
        else:
            (bad / "sequence.json").write_text("[]")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sequence": str(bad), "stages": ["tfs"]}))
        names = {"SEQ": str(bad), "OUT": str(tmp_path / "out"),
                 "IATF": str(iatf_path), "CFG": str(config)}
        result = _cli(*[names.get(arg, arg) for arg in SEQUENCE_READERS[command]])
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr


class TestGenerateInfo:
    def test_generate_writes_sequence(self, seqdir):
        assert (seqdir / "sequence.json").exists()
        manifest = json.loads((seqdir / "sequence.json").read_text())
        assert manifest["times"] == [195, 210, 225, 240, 255]

    def test_info_reports_steps(self, seqdir, capsys):
        assert main(["info", str(seqdir)]) == 0
        out = capsys.readouterr().out
        assert "steps: 5" in out
        assert "ring" in out

    def test_info_truncated_brick_exits_one_without_traceback(self, truncated_seqdir):
        result = _cli("info", str(truncated_seqdir))
        assert result.returncode == 1
        assert "step_000195.raw holds 100 bytes" in result.stderr
        assert "Traceback" not in result.stderr

    def test_generate_all_datasets(self, tmp_path):
        for name in ("vortex", "swirl"):
            rc = main([
                "generate", name, str(tmp_path / name),
                "--shape", "12", "12", "12", "--times", "1", "2",
            ])
            assert rc == 0


class TestTrainApplyIATF:
    def test_iatf_saved(self, iatf_path):
        payload = json.loads(iatf_path.read_text())
        assert len(payload["value_nets"]) == 5
        assert len(payload["cumhist_nets"]) == 5
        assert len(payload["key_frames"]) == 2

    def test_apply_reports_retention(self, seqdir, iatf_path, capsys):
        rc = main(["apply-iatf", str(seqdir), str(iatf_path), "--mask", "ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retention" in out
        # every step listed, and the key frames near-perfectly retained
        lines = [ln.split() for ln in out.splitlines() if ln.strip().startswith(("195", "255"))]
        for parts in lines:
            assert float(parts[-1]) > 0.9

    def test_apply_saves_tfs(self, seqdir, iatf_path, tmp_path, capsys):
        out = tmp_path / "tfs.json"
        rc = main(["apply-iatf", str(seqdir), str(iatf_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"195", "210", "225", "240", "255"}


class TestRender:
    def test_render_static_box(self, seqdir, tmp_path, capsys):
        rc = main([
            "render", str(seqdir), "--out", str(tmp_path / "frames"),
            "--size", "32", "--no-shading",
        ])
        assert rc == 0
        frames = sorted((tmp_path / "frames").glob("*.ppm"))
        assert len(frames) == 5

    def test_render_with_iatf(self, seqdir, iatf_path, tmp_path, capsys):
        rc = main([
            "render", str(seqdir), "--out", str(tmp_path / "frames"),
            "--iatf", str(iatf_path), "--size", "32", "--no-shading",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage" in out


class TestTrack:
    def seed_args(self, seqdir):
        from repro.volume.io import load_sequence

        seq = load_sequence(seqdir)
        coords = np.argwhere(seq[0].mask("ring"))
        z, y, x = map(int, coords[len(coords) // 2])
        return ["--seed-voxel", "0", str(z), str(y), str(x)]

    def test_track_fixed(self, seqdir, capsys):
        from repro.data.argon import ring_value_band
        from repro.volume.io import load_sequence

        seq = load_sequence(seqdir)
        lo, hi = ring_value_band(seq, 195)
        rc = main(["track", str(seqdir), *self.seed_args(seqdir),
                   "--range", str(lo), str(hi)])
        assert rc == 0
        assert "criterion: fixed" in capsys.readouterr().out

    def test_track_adaptive_saves_masks(self, seqdir, iatf_path, tmp_path, capsys):
        out = tmp_path / "masks.npy"
        rc = main(["track", str(seqdir), *self.seed_args(seqdir),
                   "--iatf", str(iatf_path), "--out", str(out)])
        assert rc == 0
        masks = np.load(out)
        assert masks.shape[0] == 5
        assert masks.any()

    def test_track_requires_criterion(self, seqdir):
        with pytest.raises(SystemExit):
            main(["track", str(seqdir), "--seed-voxel", "0", "0", "0", "0"])

    @pytest.mark.parametrize("argv", [
        ["--seed-voxel", "0", "99", "0", "0", "--range", "0", "1"],
        ["--seed-voxel", "0", "99", "0", "0", "--range", "0", "1", "--streaming"],
        ["--seed-voxel", "7", "5", "5", "5", "--range", "0", "1"],
        ["--seed-voxel", "0", "5", "5", "5", "--range", "1.0", "0.5"],
        ["--seed-voxel", "0", "5", "5", "5", "--range", "0", "1",
         "--opacity-threshold", "2"],
        ["--seed-voxel", "0", "5", "5", "5", "--iatf", "missing.json"],
        ["--seed-voxel", "0", "5", "5", "5", "--iatf", "nodomain.json"],
    ], ids=["seed-off-grid", "seed-off-grid-streaming", "seed-step-past-end",
            "empty-range", "opacity-threshold", "iatf-missing", "iatf-no-domain"])
    def test_bad_input_exits_one_without_traceback(self, seqdir, tmp_path, argv):
        (tmp_path / "nodomain.json").write_text(json.dumps({"x": 1}))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "track", str(seqdir), *argv],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1


class TestClassify:
    @pytest.mark.parametrize("argv,match", [
        (["--mask", "ring", "--train-steps", "999"], "999"),
        (["--mask", "nosuch", "--train-steps", "195"], "nosuch"),
    ])
    def test_bad_training_input_is_clean_error(self, seqdir, argv, match):
        with pytest.raises(SystemExit, match=match):
            main(["classify", str(seqdir), *argv])

    @pytest.mark.parametrize("flags", [["--prune"], ["--cache", "DIR"]],
                             ids=["prune", "cache"])
    def test_exact_with_fast_only_option_exits_one(self, seqdir, tmp_path, flags):
        flags = [str(tmp_path / "cache") if f == "DIR" else f for f in flags]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "classify", str(seqdir),
             "--mask", "ring", "--train-steps", "195", "--exact", *flags],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1


class TestCLIVariants:
    def test_render_with_box_range(self, seqdir, tmp_path):
        from repro.volume.io import load_sequence

        seq = load_sequence(seqdir)
        lo, hi = seq.value_range
        rc = main([
            "render", str(seqdir), "--out", str(tmp_path / "frames"),
            "--box", str(lo + 0.5 * (hi - lo)), str(hi),
            "--size", "24", "--no-shading",
        ])
        assert rc == 0
        assert len(list((tmp_path / "frames").glob("*.ppm"))) == 5

    def test_apply_iatf_parallel_workers(self, seqdir, iatf_path, capsys):
        rc = main(["apply-iatf", str(seqdir), str(iatf_path),
                   "--mask", "ring", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retention" in out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "tornado", str(tmp_path / "x")])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_info_empty_mask_dataset(self, tmp_path, capsys):
        rc = main(["generate", "combustion", str(tmp_path / "c"),
                   "--shape", "8", "24", "16", "--times", "8", "128"])
        assert rc == 0
        assert main(["info", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "mixing_layer" in out


class TestRunCommand:
    """Smoke tests for the crash-safe resumable runner's CLI surface."""

    @pytest.fixture(scope="class")
    def config_path(self, seqdir, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli_run") / "cfg.json"
        path.write_text(json.dumps({
            "sequence": str(seqdir),
            "stages": ["tfs", "render"],
            "render": {"size": 20, "export": "ppm"},
        }))
        return path

    def test_run_then_resume(self, config_path, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = main(["run", str(config_path), "--out", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage tfs: complete" in out
        assert "stage render: complete" in out
        assert "10 executed, 0 skipped" in out
        assert (run_dir / "manifest.json").exists()
        assert len(list((run_dir / "frames").glob("frame_*.ppm"))) == 5

        rc = main(["run", "--resume", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 executed, 10 skipped" in out

    def test_new_run_requires_config_and_out(self, config_path, tmp_path):
        with pytest.raises(SystemExit, match="--out"):
            main(["run", str(config_path)])
        with pytest.raises(SystemExit, match="config"):
            main(["run", "--out", str(tmp_path / "r")])

    def test_resume_rejects_extra_args(self, config_path, tmp_path):
        with pytest.raises(SystemExit, match="run directory only"):
            main(["run", str(config_path), "--resume", str(tmp_path)])

    def test_bad_config_is_clean_error(self, seqdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sequence": str(seqdir),
                                   "stages": ["render"]}))
        with pytest.raises(SystemExit, match="tfs"):
            main(["run", str(bad), "--out", str(tmp_path / "r")])

    def test_bad_fast_options_exit_one_without_traceback(self, seqdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "sequence": str(seqdir), "stages": ["tfs", "render"],
            "render": {"mode": "fast", "fast_options": {"transport": "bogus"}},
        }))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(bad),
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "fast_options" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("stage,options", [
        ("track", {"seed_voxel": [0, 99, 0, 0]}),
        ("track", {"seed_voxel": [0, 1.5, 0, 0]}),
        ("tfs", {"kind": "box", "lo": 0.9, "hi": 0.1}),
        ("classify", {"mask": "nosuch"}),
        ("track", {"connectivity": 0}),
    ])
    def test_bad_run_input_exits_one_without_traceback(self, seqdir, tmp_path,
                                                       stage, options):
        payload = {
            "sequence": str(seqdir),
            "stages": ["classify", "track", "tfs", "render"],
            "classify": {"mask": "ring", "train_steps": [195], "samples": 10,
                         "epochs": 5, "hidden": 4},
            "track": {"criterion": "classify", "seed_voxel": [0, 1, 1, 1]},
            "render": {"size": 16},
        }
        payload[stage] = {**payload.get(stage, {}), **options}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(bad),
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert not list((tmp_path / "r").glob("store/*"))

    def test_truncated_brick_exits_one_without_traceback(self, truncated_seqdir,
                                                         tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sequence": str(truncated_seqdir),
                                      "stages": ["tfs", "render"]}))
        result = _cli("run", str(config), "--out", str(tmp_path / "r"))
        assert result.returncode == 1
        assert "step_000195.raw holds 100 bytes" in result.stderr
        assert "Traceback" not in result.stderr
        assert not list((tmp_path / "r").glob("store/*"))

    def test_resume_missing_dir_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="config.json"):
            main(["run", "--resume", str(tmp_path / "nothing")])
