"""Tests for repro.run.{store,config,manifest}: the persistence substrate."""

import json

import numpy as np
import pytest

from repro.run import (
    ArtifactStore,
    ConfigError,
    IntegrityError,
    ManifestError,
    RunConfig,
    RunManifest,
    derive_key,
)


class TestDeriveKey:
    def test_deterministic(self):
        a = derive_key("stage", {"b": 2, "a": 1}, "upstream")
        b = derive_key("stage", {"a": 1, "b": 2}, "upstream")
        assert a == b

    def test_sensitive_to_every_part(self):
        base = derive_key("stage", {"a": 1}, "up")
        assert derive_key("stage2", {"a": 1}, "up") != base
        assert derive_key("stage", {"a": 2}, "up") != base
        assert derive_key("stage", {"a": 1}, "up2") != base

    def test_accepts_arrays(self):
        arr = np.arange(6, dtype=np.float32)
        assert derive_key("s", arr) == derive_key("s", arr.copy())
        assert derive_key("s", arr) != derive_key("s", arr + 1)


class TestArtifactStore:
    def test_array_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        store.put_array("k1", arr)
        assert store.has("k1")
        back = store.get_array("k1")
        assert back.dtype == arr.dtype and np.array_equal(back, arr)

    def test_json_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        obj = {"weights": [1.5, 2.0], "radius": 3}
        store.put_json("k2", obj)
        assert store.get_json("k2") == obj

    def test_missing_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has("nope")
        with pytest.raises(KeyError):
            store.get_array("nope")

    def test_corrupt_payload_reads_as_absent(self, tmp_path):
        """A flipped byte must be caught by the digest re-verification."""
        store = ArtifactStore(tmp_path)
        store.put_array("k", np.ones(8))
        payload = store.payload_path("k")
        data = bytearray(payload.read_bytes())
        data[0] ^= 0xFF
        payload.write_bytes(bytes(data))
        assert not store.has("k")
        with pytest.raises(IntegrityError, match="digest mismatch"):
            store.get_array("k")

    def test_truncated_payload_reads_as_absent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_array("k", np.ones(100))
        payload = store.payload_path("k")
        payload.write_bytes(payload.read_bytes()[:10])
        assert not store.has("k")

    def test_payload_without_sidecar_is_absent(self, tmp_path):
        """The sidecar is written last, so an orphan payload (crash between
        the two writes) must read as not-stored."""
        store = ArtifactStore(tmp_path)
        store.payload_path("k").write_bytes(b"orphan")
        assert not store.has("k")

    def test_kind_mismatch_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("k", {"a": 1})
        with pytest.raises(IntegrityError, match="not an array"):
            store.get_array("k")

    def test_overwrite_is_atomic_and_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_array("k", np.zeros(4))
        store.put_array("k", np.zeros(4))
        assert store.keys() == ["k"]

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_array("a", np.ones(3))
        store.put_json("b", [1, 2])
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]


def _minimal_config(**overrides):
    payload = {
        "sequence": "/data/argon",
        "stages": ["tfs", "render"],
    }
    payload.update(overrides)
    return payload


class TestRunConfig:
    def test_defaults_filled(self):
        cfg = RunConfig.from_dict(_minimal_config())
        assert cfg.render["size"] == 96
        assert cfg.tfs["kind"] == "box"
        assert cfg.workers == 1

    def test_stage_order_normalized(self):
        cfg = RunConfig.from_dict(_minimal_config(stages=["render", "tfs"]))
        assert cfg.stages == ("tfs", "render")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict(_minimal_config(bogus=1))
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict(_minimal_config(render={"sizee": 64}))

    @pytest.mark.parametrize("options,match", [
        ({"bogus": 1}, "unknown render fast_options"),
        ({"transport": "shm"}, "unknown render fast_options"),
        ({"workers": 2}, "unknown render fast_options"),
        ({"tile": 0}, "tile must be an integer >= 1"),
        ({"ert_alpha": 2}, r"ert_alpha must be a number in \(0, 1\]"),
    ])
    def test_fast_options_validated(self, options, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(_minimal_config(
                render={"mode": "fast", "fast_options": options}))

    def test_fast_options_accepts_exposed_knobs(self):
        options = {"tile": 8, "cell": 4, "ert_alpha": 0.9}
        cfg = RunConfig.from_dict(_minimal_config(
            render={"mode": "fast", "fast_options": options}))
        assert cfg.render["fast_options"] == options

    def test_render_requires_tfs(self):
        with pytest.raises(ConfigError, match="tfs"):
            RunConfig.from_dict(_minimal_config(stages=["render"]))

    def test_track_requirements(self):
        with pytest.raises(ConfigError, match="seed_voxel"):
            RunConfig.from_dict(_minimal_config(
                stages=["track"], track={"criterion": "fixed", "lo": 0, "hi": 1}))
        with pytest.raises(ConfigError, match="classify stage"):
            RunConfig.from_dict(_minimal_config(
                stages=["track"], track={"seed_voxel": [0, 1, 1, 1]}))

    @pytest.mark.parametrize("connectivity", [0, 5, "1", True, 1.0])
    def test_track_connectivity_is_int_1_to_4(self, connectivity):
        with pytest.raises(ConfigError, match="connectivity"):
            RunConfig.from_dict(_minimal_config(
                stages=["track"],
                track={"criterion": "fixed", "lo": 0, "hi": 1,
                       "seed_voxel": [0, 1, 1, 1], "connectivity": connectivity}))

    def test_classify_requires_mask(self):
        with pytest.raises(ConfigError, match="mask"):
            RunConfig.from_dict(_minimal_config(stages=["classify"]))

    def test_fingerprint_ignores_execution_knobs(self):
        a = RunConfig.from_dict(_minimal_config())
        b = RunConfig.from_dict(_minimal_config(workers=8, name="other"))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_identity(self):
        a = RunConfig.from_dict(_minimal_config())
        b = RunConfig.from_dict(_minimal_config(render={"size": 48}))
        assert a.fingerprint() != b.fingerprint()

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_minimal_config()))
        assert RunConfig.from_json(path).sequence == "/data/argon"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json(path)


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest("fp", "seq", ("tfs", "render"))
        manifest.record_task("tfs", "step:000001", "key1", "json")
        manifest.set_status("tfs", "complete")
        manifest.save(tmp_path / "manifest.json")
        back = RunManifest.load(tmp_path / "manifest.json")
        assert back.config_fingerprint == "fp"
        assert back.task_key("tfs", "step:000001") == "key1"
        assert back.stages["tfs"].status == "complete"
        assert back.stages["render"].status == "pending"

    def test_save_is_deterministic(self, tmp_path):
        def build():
            m = RunManifest("fp", "seq", ("tfs",))
            m.record_task("tfs", "step:000002", "k2", "json")
            m.record_task("tfs", "step:000001", "k1", "json")
            return m

        build().save(tmp_path / "a.json")
        build().save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": 99, "stages": {}}))
        with pytest.raises(ManifestError, match="version"):
            RunManifest.load(path)

    def test_unreadable_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            RunManifest.load(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(ManifestError, match="JSON"):
            RunManifest.load(tmp_path / "bad.json")
