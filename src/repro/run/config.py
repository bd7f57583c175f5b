"""Run configuration: one JSON document describes one pipeline run.

A run executes a subset of the classify → track → TF-generation → render
DAG over a saved :class:`~repro.volume.grid.VolumeSequence` directory.
The config is the *identity* of the run: its canonical fingerprint is
recorded in the run manifest, and ``repro run --resume`` refuses to
continue a run directory whose stored config hashes differently — the
resume guarantee ("same bytes as an uninterrupted run") only holds when
the work being resumed is the same work.

Execution knobs that cannot change any produced byte (``workers``,
``name``) are excluded from the fingerprint, so a run may be resumed
with a different fan-out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.parallel.bricking import content_digest

#: The full DAG in execution order; ``stages`` must be a subset of this.
STAGE_ORDER = ("classify", "track", "tfs", "render")

_STAGE_DEFAULTS: dict[str, dict] = {
    "classify": {
        "mask": None,          # ground-truth mask supplying training examples (required)
        "train_steps": None,   # step ids painted for training (default: first step)
        "samples": 100,        # positive/negative examples per training step
        "radius": 0,           # shell radius; 0 derives it from the first training mask
        "directions": "faces+corners",
        "hidden": 16,
        "epochs": 150,
        "seed": 11,
        "mode": "auto",        # exact | fast | auto (forwarded to classify())
        "threshold": 0.5,      # certainty cut handed to the track stage
    },
    "track": {
        "criterion": "classify",  # "classify" (certainty masks) or "fixed" (value range)
        "seed_voxel": None,       # (step_index, z, y, x) — required
        "lo": None,               # fixed-criterion value band
        "hi": None,
        "connectivity": 1,        # 1 (faces) .. 4 (full 4D neighbourhood)
    },
    "tfs": {
        "kind": "box",    # "box" (static band) or "iatf" (saved IATF json)
        "lo": None,       # box band; defaults derived from the sequence range
        "hi": None,
        "opacity": 0.8,
        "iatf": None,     # path to a train-iatf output (kind="iatf")
        "domain": None,   # explicit TF [lo, hi] domain (default: the full
                          # sequence's value range; follow mode requires it
                          # pinned — the range is unknowable mid-simulation)
    },
    "render": {
        "size": 96,
        "azimuth": 30.0,
        "elevation": 20.0,
        "step": 1.0,
        "shading": True,
        "mode": "exact",  # "exact" or "fast" (ESS/ERT renderer)
        "fast_options": {},  # fast-path tuning: cell, ert_alpha
        "export": None,   # optionally also write frames: "ppm" | "png"
    },
}


class ConfigError(ValueError):
    """The run config is malformed or internally inconsistent."""


def canonical_json(obj) -> str:
    """Deterministic JSON form (sorted keys, no whitespace) for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _merged(stage: str, overrides: dict) -> dict:
    defaults = _STAGE_DEFAULTS[stage]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown {stage!r} option(s) {sorted(unknown)}; "
            f"known: {sorted(defaults)}"
        )
    return {**defaults, **overrides}


def _validate_fast_options(options) -> None:
    """Accept only the fast-path knobs the CLI and serve expose.

    Anything else would reach ``render_volume_fast`` as an unknown
    keyword inside a render task, after the config entered the
    fingerprint.
    """
    if not isinstance(options, dict):
        raise ConfigError(f"render fast_options must be an object, got {options!r}")
    unknown = set(options) - {"cell", "ert_alpha"}
    if unknown:
        raise ConfigError(f"unknown render fast_options {sorted(unknown)}; "
                          "known: ['cell', 'ert_alpha']")
    for key, value in options.items():
        if isinstance(value, bool):
            ok = False
        elif key == "ert_alpha":
            ok = isinstance(value, (int, float)) and 0.0 < value <= 1.0
        else:
            ok = isinstance(value, int) and value >= 1
        if not ok:
            want = "a number in (0, 1]" if key == "ert_alpha" else "an integer >= 1"
            raise ConfigError(f"render fast_options {key} must be {want}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-filled description of one pipeline run."""

    sequence: str
    stages: tuple[str, ...]
    classify: dict = field(default_factory=dict)
    track: dict = field(default_factory=dict)
    tfs: dict = field(default_factory=dict)
    render: dict = field(default_factory=dict)
    workers: int = 1
    name: str = ""

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Build and validate a config from a parsed JSON document."""
        known = {"sequence", "stages", "classify", "track", "tfs", "render",
                 "workers", "name"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config key(s) {sorted(unknown)}; known: {sorted(known)}")
        if "sequence" not in payload:
            raise ConfigError("config requires 'sequence': a saved sequence directory")
        stages = payload.get("stages")
        if not stages:
            raise ConfigError(f"config requires 'stages': a non-empty subset of {STAGE_ORDER}")
        bad = [s for s in stages if s not in STAGE_ORDER]
        if bad:
            raise ConfigError(f"unknown stage(s) {bad}; known: {list(STAGE_ORDER)}")
        if len(set(stages)) != len(stages):
            raise ConfigError(f"duplicate stages in {stages}")
        # Stages always execute in DAG order regardless of listing order.
        stages = tuple(s for s in STAGE_ORDER if s in stages)
        workers = int(payload.get("workers", 1))
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        config = cls(
            sequence=str(payload["sequence"]),
            stages=stages,
            classify=_merged("classify", dict(payload.get("classify", {}))),
            track=_merged("track", dict(payload.get("track", {}))),
            tfs=_merged("tfs", dict(payload.get("tfs", {}))),
            render=_merged("render", dict(payload.get("render", {}))),
            workers=workers,
            name=str(payload.get("name", "")),
        )
        config.validate()
        return config

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """Load and validate a config file."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(payload)

    def validate(self) -> None:
        """Cross-stage dependency and per-stage requirement checks."""
        if "classify" in self.stages and self.classify["mask"] is None:
            raise ConfigError("classify stage requires 'mask' (ground-truth mask name)")
        if "track" in self.stages:
            criterion = self.track["criterion"]
            if criterion not in ("classify", "fixed"):
                raise ConfigError(
                    f"track criterion must be 'classify' or 'fixed', got {criterion!r}")
            if criterion == "classify" and "classify" not in self.stages:
                raise ConfigError(
                    "track criterion 'classify' needs the classify stage in 'stages'")
            if criterion == "fixed" and (self.track["lo"] is None or self.track["hi"] is None):
                raise ConfigError("track criterion 'fixed' requires 'lo' and 'hi'")
            seed = self.track["seed_voxel"]
            if not (isinstance(seed, (list, tuple)) and len(seed) == 4
                    and all(type(v) is int and v >= 0 for v in seed)):
                raise ConfigError("track requires 'seed_voxel': [step_index, z, y, x] "
                                  f"integers >= 0, got {seed!r}")
            connectivity = self.track["connectivity"]
            if not (type(connectivity) is int and 1 <= connectivity <= 4):
                raise ConfigError("track connectivity must be an integer from 1 "
                                  f"to 4, got {connectivity!r}")
        if "tfs" in self.stages:
            kind = self.tfs["kind"]
            if kind not in ("box", "iatf"):
                raise ConfigError(f"tfs kind must be 'box' or 'iatf', got {kind!r}")
            if kind == "iatf" and not self.tfs["iatf"]:
                raise ConfigError("tfs kind 'iatf' requires 'iatf': path to a saved IATF")
            lo, hi = self.tfs["lo"], self.tfs["hi"]
            if kind == "box" and lo is not None and hi is not None and not lo < hi:
                raise ConfigError(f"tfs box requires lo < hi, got lo={lo!r}, hi={hi!r}")
            domain = self.tfs["domain"]
            if domain is not None:
                if len(domain) != 2 or not all(
                        isinstance(v, (int, float)) for v in domain):
                    raise ConfigError(
                        f"tfs domain must be [lo, hi] numbers, got {domain!r}")
                if not float(domain[1]) > float(domain[0]):
                    raise ConfigError(
                        f"tfs domain requires hi > lo, got {list(domain)}")
        if "render" in self.stages:
            if "tfs" not in self.stages:
                raise ConfigError("render stage needs the tfs stage in 'stages'")
            if self.render["mode"] not in ("exact", "fast"):
                raise ConfigError(
                    f"render mode must be 'exact' or 'fast', got {self.render['mode']!r}")
            if self.render["export"] not in (None, "ppm", "png"):
                raise ConfigError(
                    f"render export must be null, 'ppm' or 'png', got {self.render['export']!r}")
            _validate_fast_options(self.render["fast_options"])

    def to_dict(self) -> dict:
        """Full JSON-serializable form (defaults filled in)."""
        return {
            "sequence": self.sequence,
            "stages": list(self.stages),
            "classify": dict(self.classify),
            "track": dict(self.track),
            "tfs": dict(self.tfs),
            "render": dict(self.render),
            "workers": self.workers,
            "name": self.name,
        }

    def identity_dict(self) -> dict:
        """The fingerprinted subset: everything that can change output bytes."""
        payload = self.to_dict()
        payload.pop("workers")  # pure throughput knob (schedule-independent farm)
        payload.pop("name")     # a label, not an input
        return payload

    def fingerprint(self) -> str:
        """SHA-256/128 :func:`content_digest` of the canonical identity form."""
        encoded = canonical_json(self.identity_dict()).encode()
        return content_digest(np.frombuffer(encoded, dtype=np.uint8))
