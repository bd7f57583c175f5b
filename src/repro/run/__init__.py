"""Crash-safe resumable pipeline runs (content-addressed artifact store).

Public surface:

- :class:`~repro.run.config.RunConfig` — validated run description;
- :class:`~repro.cache.store.ArtifactStore` / :func:`~repro.cache.store.derive_key`
  — input-addressed, integrity-verified artifact persistence;
- :class:`~repro.run.manifest.RunManifest` — deterministic progress record;
- :class:`~repro.run.runner.PipelineRunner` — the memoized walk (one
  dispatcher, config stage order, each render chained off its TF)
  behind ``repro run`` / ``repro run --resume``;
- :class:`~repro.run.follow.FollowRunner` / :func:`~repro.run.follow.follow_sequence`
  — the same tasks and dispatcher fed per arrival, behind
  ``repro run --follow`` (follow options are keywords of ``follow()``);
- :class:`~repro.run.simwriter.SimulatedWriter` — cadence-paced sequence
  replay (with torn-write fault injection) for exercising follow mode.
"""

from repro.cache.store import ArtifactStore, IntegrityError, derive_key
from repro.run.config import STAGE_ORDER, ConfigError, RunConfig
from repro.run.follow import FollowReport, FollowRunner, follow_sequence
from repro.run.manifest import ManifestError, RunManifest, StageRecord
from repro.run.runner import PipelineRunner, RunError, RunReport
from repro.run.simwriter import SimulatedWriter

__all__ = [
    "STAGE_ORDER",
    "ArtifactStore",
    "ConfigError",
    "FollowReport",
    "FollowRunner",
    "IntegrityError",
    "ManifestError",
    "PipelineRunner",
    "RunConfig",
    "RunError",
    "RunManifest",
    "RunReport",
    "SimulatedWriter",
    "StageRecord",
    "derive_key",
    "follow_sequence",
]
