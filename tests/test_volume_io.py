"""Tests for repro.volume.io: raw-brick format roundtrips."""

import json

import numpy as np
import pytest

from repro.parallel.streaming import SequenceWatcher, sequence_step_stems
from repro.run.simwriter import SimulatedWriter
from repro.volume import Volume, VolumeSequence, load_sequence, load_volume, save_sequence, save_volume
from repro.volume.io import VolumeFormatError


def sample_volume(time=3):
    rng = np.random.default_rng(time)
    data = rng.random((4, 5, 6)).astype(np.float32)
    mask = data > 0.5
    return Volume(data, time=time, name="sample", masks={"hot": mask})


class TestVolumeRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        vol = sample_volume()
        save_volume(vol, tmp_path / "step")
        back = load_volume(tmp_path / "step")
        assert np.array_equal(back.data, vol.data)
        assert back.time == vol.time
        assert back.name == vol.name
        assert np.array_equal(back.mask("hot"), vol.mask("hot"))

    def test_mmap_load_matches(self, tmp_path):
        vol = sample_volume()
        save_volume(vol, tmp_path / "step")
        back = load_volume(tmp_path / "step", mmap=True)
        assert np.array_equal(back.data, vol.data)

    def test_metadata_is_json(self, tmp_path):
        save_volume(sample_volume(), tmp_path / "step")
        meta = json.loads((tmp_path / "step.json").read_text())
        assert meta["shape"] == [4, 5, 6]
        assert meta["masks"] == ["hot"]

    def test_masks_false_skips_mask_bricks(self, tmp_path):
        """``masks=False`` loads voxels only — and never even opens the
        mask brick files (streaming consumers skip that I/O per step)."""
        vol = sample_volume()
        save_volume(vol, tmp_path / "step")
        mask_brick = tmp_path / "step.hot.mask.raw"
        mask_brick.write_bytes(b"garbage")  # would crash a reshape if read
        back = load_volume(tmp_path / "step", masks=False)
        assert np.array_equal(back.data, vol.data)
        assert back.masks == {}

    def test_bad_format_version_rejected(self, tmp_path):
        save_volume(sample_volume(), tmp_path / "step")
        meta = json.loads((tmp_path / "step.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "step.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_volume(tmp_path / "step")

    @pytest.mark.parametrize("brick", ["step.raw", "step.hot.mask.raw"])
    def test_truncated_brick_is_typed_error(self, tmp_path, brick):
        """A brick shorter than its sidecar's shape is named before any
        reshape, as a ``ValueError`` subclass."""
        save_volume(sample_volume(), tmp_path / "step")
        path = tmp_path / brick
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(VolumeFormatError, match="holds 100 bytes"):
            load_volume(tmp_path / "step")
        with pytest.raises(VolumeFormatError):
            load_volume(tmp_path / "step", mmap=True)

    def test_non_integer_shape_is_typed_error(self, tmp_path):
        save_volume(sample_volume(), tmp_path / "step")
        meta = json.loads((tmp_path / "step.json").read_text())
        meta["shape"] = "x"
        (tmp_path / "step.json").write_text(json.dumps(meta))
        with pytest.raises(VolumeFormatError, match="shape"):
            load_volume(tmp_path / "step")

    def test_creates_parent_dirs(self, tmp_path):
        path = save_volume(sample_volume(), tmp_path / "a" / "b" / "step")
        assert path.exists()


class TestSequenceRoundtrip:
    def test_roundtrip(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (1, 2, 3)], name="seq")
        save_sequence(seq, tmp_path / "run")
        back = load_sequence(tmp_path / "run")
        assert back.times == [1, 2, 3]
        assert back.name == "seq"
        for a, b in zip(seq, back):
            assert np.array_equal(a.data, b.data)

    def test_partial_load_by_times(self, tmp_path):
        """The out-of-core key-frame pattern: read only requested bricks."""
        seq = VolumeSequence([sample_volume(t) for t in (1, 2, 3, 4)])
        save_sequence(seq, tmp_path / "run")
        back = load_sequence(tmp_path / "run", times=[2, 4])
        assert back.times == [2, 4]

    def test_missing_time_raises(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (1, 2)])
        save_sequence(seq, tmp_path / "run")
        with pytest.raises(KeyError, match="9"):
            load_sequence(tmp_path / "run", times=[1, 9])

    def test_manifest_contents(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (5, 7)])
        save_sequence(seq, tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "sequence.json").read_text())
        assert manifest["times"] == [5, 7]
        assert len(manifest["steps"]) == 2


STEPS = ["step_000001", "step_000002", "step_000003"]

# sequence.json documents that are not manifests, by the defect each has.
BAD_MANIFESTS = {
    "list": [],
    "no-times": {"format_version": 1, "steps": STEPS},
    "steps-not-list": {"format_version": 1, "steps": 7, "times": [1, 2, 3]},
    "steps-shorter": {"format_version": 1, "steps": STEPS[:1], "times": [1, 2, 3]},
    "time-not-int": {"format_version": 1, "steps": STEPS, "times": [1, 2.5, 3]},
    "version-2": {"format_version": 2, "steps": STEPS, "times": [1, 2, 3]},
    "empty": {"format_version": 1, "steps": [], "times": []},
}


def _read_with(reader, directory):
    if reader == "load_sequence":
        return load_sequence(directory)
    if reader == "sequence_step_stems":
        return sequence_step_stems(directory)
    return SequenceWatcher(directory).manifest_times()


class TestSequenceManifest:
    """Every reader of ``sequence.json`` goes through one parser."""

    READERS = ("load_sequence", "sequence_step_stems", "manifest_times")

    @pytest.fixture
    def seqdir(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (1, 2, 3)], name="seq")
        save_sequence(seq, tmp_path / "run")
        return tmp_path / "run"

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("defect", sorted(BAD_MANIFESTS))
    def test_bad_manifest_is_typed_error(self, seqdir, reader, defect):
        (seqdir / "sequence.json").write_text(json.dumps(BAD_MANIFESTS[defect]))
        with pytest.raises(VolumeFormatError):
            _read_with(reader, seqdir)

    def test_watcher_reads_partly_written_manifest_as_none(self, seqdir):
        """A non-atomic writer's half-written manifest is not published yet."""
        (seqdir / "sequence.json").write_text('{"format_version": 1, "ste')
        assert _read_with("manifest_times", seqdir) is None

    def test_writers_share_one_manifest_form(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (1, 2)], name="seq")
        save_sequence(seq, tmp_path / "saved")
        SimulatedWriter(seq, tmp_path / "live", cadence=0).run()
        assert ((tmp_path / "saved" / "sequence.json").read_bytes()
                == (tmp_path / "live" / "sequence.json").read_bytes())


class TestAtomicWrites:
    """Regression: saves must never leave a torn file at the final path.

    Every artifact (raw voxels, masks, metadata, the sequence manifest)
    is written to a same-directory temp file and renamed into place, so
    a reader — or a crashed writer — can only ever observe the old
    complete bytes or the new complete bytes.
    """

    def test_overwrite_preserves_readers_view(self, tmp_path):
        vol_a = sample_volume(1)
        save_volume(vol_a, tmp_path / "step")
        before = (tmp_path / "step.raw").read_bytes()
        vol_b = sample_volume(2)
        vol_b = Volume(vol_b.data, time=1, name="sample",
                       masks={"hot": vol_b.data > 0.5})
        save_volume(vol_b, tmp_path / "step")
        after = (tmp_path / "step.raw").read_bytes()
        assert after != before
        back = load_volume(tmp_path / "step")
        assert np.array_equal(back.data, vol_b.data)

    def test_no_temp_files_left_behind(self, tmp_path):
        seq = VolumeSequence([sample_volume(t) for t in (1, 2)])
        save_sequence(seq, tmp_path / "run")
        leftovers = [p for p in (tmp_path / "run").rglob("*") if ".tmp." in p.name]
        assert leftovers == []

    def test_interrupted_write_leaves_old_bytes(self, tmp_path, monkeypatch):
        """Kill the write mid-flight (before the rename): the destination
        still holds the previous complete volume."""
        import repro.utils.atomic as atomic

        save_volume(sample_volume(1), tmp_path / "step")
        original = (tmp_path / "step.raw").read_bytes()

        def exploding_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(atomic.os, "replace", exploding_replace)
        with pytest.raises(RuntimeError, match="simulated crash"):
            save_volume(sample_volume(2), tmp_path / "step")
        monkeypatch.undo()
        assert (tmp_path / "step.raw").read_bytes() == original
        back = load_volume(tmp_path / "step")
        assert np.array_equal(back.data, sample_volume(1).data)
