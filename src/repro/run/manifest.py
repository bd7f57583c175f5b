"""The run manifest: one deterministic JSON record of a run's progress.

``manifest.json`` in the run directory records, per stage, each task's
label and the store key of its artifact, plus a stage status.  The
runner rewrites it atomically whenever it records tasks (before they
run) and whenever a stage status changes; persisting an artifact
changes the store, not the manifest, so it needs no save.  At any kill
point the manifest on disk therefore names every task that may have
run, and the store holds exactly the artifacts that landed.

Determinism is the load-bearing property: the manifest contains **no
timestamps, durations, hostnames, or counters** — only data derived
from the config and the input sequence.  A crashed-and-resumed run
therefore converges to the byte-identical ``manifest.json`` an
uninterrupted run writes, which is what the crash-recovery test battery
asserts.  Everything volatile (executed/skipped task counts, wall-clock
stats) goes to the separate ``stats.json``, which is explicitly excluded
from the bit-identity guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.atomic import atomic_write_text

#: Version 2: keys and fingerprints are SHA-256/128 digests.  A version-1
#: run directory (blake2b) fails to load with its version named, instead
#: of failing the fingerprint check as if its config had changed.
FORMAT_VERSION = 2

#: Stage status values, in lifecycle order.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"


class ManifestError(RuntimeError):
    """The manifest is missing, unreadable, or inconsistent with the run."""


@dataclass
class StageRecord:
    """Progress record for one named stage."""

    name: str
    status: str = STATUS_PENDING
    # label -> {"key": store key, "kind": "array"|"json"}; insertion order
    # is deterministic (task order is derived from the config).
    tasks: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"status": self.status,
                "tasks": {label: dict(info) for label, info in self.tasks.items()}}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "StageRecord":
        return cls(name=name, status=payload.get("status", STATUS_PENDING),
                   tasks={label: dict(info)
                          for label, info in payload.get("tasks", {}).items()})


@dataclass
class RunManifest:
    """Deterministic progress state of one run directory."""

    config_fingerprint: str
    sequence_digest: str
    stage_names: tuple[str, ...]
    stages: dict[str, StageRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.stage_names:
            self.stages.setdefault(name, StageRecord(name))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def record_task(self, stage: str, label: str, key: str, kind: str) -> None:
        """Record (idempotently) that ``stage``'s task ``label`` produced ``key``."""
        self.stages[stage].tasks[label] = {"key": key, "kind": kind}

    def set_status(self, stage: str, status: str) -> None:
        if status not in (STATUS_PENDING, STATUS_RUNNING, STATUS_COMPLETE):
            raise ValueError(f"unknown stage status {status!r}")
        self.stages[stage].status = status

    def task_key(self, stage: str, label: str) -> str | None:
        """The recorded store key for a task, or None if not recorded."""
        info = self.stages[stage].tasks.get(label)
        return info["key"] if info else None

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config_fingerprint": self.config_fingerprint,
            "sequence_digest": self.sequence_digest,
            "stages": {name: self.stages[name].to_dict() for name in self.stage_names},
        }

    def save(self, path) -> Path:
        """Atomically write the canonical (sorted-keys) manifest."""
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        return atomic_write_text(path, text)

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ManifestError(f"manifest {path} is not a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ManifestError(
                f"manifest {path} has format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}")
        stages = payload.get("stages", {})
        if not (_objects(stages)
                and all(_objects(record.get("tasks", {})) for record in stages.values())):
            raise ManifestError(f"manifest {path}: 'stages' must map each stage "
                                "to an object whose 'tasks' are objects")
        return cls(
            config_fingerprint=payload.get("config_fingerprint", ""),
            sequence_digest=payload.get("sequence_digest", ""),
            stage_names=tuple(stages),
            stages={name: StageRecord.from_dict(name, record)
                    for name, record in stages.items()},
        )


def _objects(value) -> bool:
    """Whether ``value`` is a JSON object whose values are all objects."""
    return isinstance(value, dict) and all(isinstance(v, dict) for v in value.values())
