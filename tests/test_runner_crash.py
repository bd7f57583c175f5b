"""SIGKILL crash-recovery battery for the resumable runner.

Each case launches ``repro run`` as a subprocess with
``REPRO_FAULT_INJECT="N:crash"`` so the process is hard-killed (no
``finally``, no ``atexit`` — simulated node loss) the moment the run's
N-th task starts, then resumes with ``repro run --resume`` and asserts:

- the crashed process died from SIGKILL (returncode -9);
- the resumed run completes and its manifest, config, and every store
  artifact are **byte-identical** to an uninterrupted reference run;
- the resume skipped exactly the work whose artifacts the crashed run
  had already persisted (verified through the stats.json obs counters).

Crash points cover every stage boundary (0 = first classify task,
4 = track, 5 = first tfs task, 8 = first render task) and mid-stage
kills (2 = second classify step, 6 = second tfs step, 9 = second
render step) for the 3-step full-DAG task layout:

    0 train · 1-3 classify · 4 track · 5-7 tfs · 8-10 render

A run crashed on one worker must also resume bit-identically on a
worker pool, where each render is chained off its TF's done-callback.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data import make_argon_sequence
from repro.parallel.faults import FAULT_ENV
from repro.volume.io import save_sequence

TOTAL_TASKS = 11

# crash point -> tasks the resume must skip.  Mostly the crash index
# itself (tasks 0..N-1 persisted); mid-tfs (N=6) skips all three tf
# tasks because the static box TF is one shared content-addressed
# artifact, already stored by the first tf task.
EXPECTED_SKIPS = {0: 0, 2: 2, 4: 4, 5: 5, 6: 8, 8: 8, 9: 9}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A saved tiny sequence, its run config, and a completed reference run."""
    root = tmp_path_factory.mktemp("crash")
    sequence = make_argon_sequence(shape=(12, 14, 14), times=[195, 210, 225])
    save_sequence(sequence, root / "argon")
    z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
    config = {
        "sequence": str(root / "argon"),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 25,
                     "epochs": 25, "hidden": 8, "mode": "fast"},
        "track": {"criterion": "classify", "seed_voxel": [0, z, y, x]},
        "render": {"size": 16},
    }
    (root / "config.json").write_text(json.dumps(config))
    reference = root / "reference"
    result = _run_cli(["run", str(root / "config.json"), "--out", str(reference)])
    assert result.returncode == 0, result.stderr
    stats = json.loads((reference / "stats.json").read_text())
    assert stats["executed"] == TOTAL_TASKS and stats["skipped"] == 0
    return root, reference


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
            f"{rel} of the resumed run differs from the uninterrupted run")
    assert _store_files(run_dir) == _store_files(reference)
    for name in _store_files(reference):
        assert ((run_dir / "store" / name).read_bytes()
                == (reference / "store" / name).read_bytes()), (
            f"store artifact {name} differs from the uninterrupted run")


@pytest.mark.parametrize("crash_at", sorted(EXPECTED_SKIPS))
def test_sigkill_then_resume_is_bit_identical(workload, tmp_path, crash_at):
    root, reference = workload
    run_dir = tmp_path / f"crash{crash_at}"

    crashed = _run_cli(["run", str(root / "config.json"), "--out", str(run_dir)],
                       fault_spec=f"{crash_at}:crash")
    assert crashed.returncode == -9, (
        f"expected SIGKILL death, got rc={crashed.returncode}: {crashed.stderr}")
    # The kill happened before the run finished: no complete marker.
    assert not (run_dir / "stats.json").exists()

    resumed = _run_cli(["run", "--resume", str(run_dir)])
    assert resumed.returncode == 0, resumed.stderr

    _assert_bit_identical(run_dir, reference)
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["skipped"] == EXPECTED_SKIPS[crash_at]
    assert stats["executed"] == TOTAL_TASKS - EXPECTED_SKIPS[crash_at]
    assert stats["counters"].get("run.tasks.skipped", 0) == stats["skipped"]


def test_double_crash_then_resume(workload, tmp_path):
    """Two successive node losses at different points still converge."""
    root, reference = workload
    run_dir = tmp_path / "double"
    first = _run_cli(["run", str(root / "config.json"), "--out", str(run_dir)],
                     fault_spec="2:crash")
    assert first.returncode == -9
    # After the first crash 2 tasks persisted; resume numbering restarts
    # at 0 for the remaining 9 tasks, so task 3 here is the 6th overall.
    second = _run_cli(["run", "--resume", str(run_dir)], fault_spec="3:crash")
    assert second.returncode == -9
    final = _run_cli(["run", "--resume", str(run_dir)])
    assert final.returncode == 0, final.stderr
    _assert_bit_identical(run_dir, reference)


def test_crash_resumes_with_worker_pool(workload, tmp_path):
    """A one-worker run crashed at its first tf task resumes onto a
    persistent 2-worker pool, whose renders chain off their TFs."""
    root, reference = workload
    run_dir = tmp_path / "pool_resume"
    crashed = _run_cli(["run", str(root / "config.json"), "--out", str(run_dir)],
                       fault_spec="5:crash")
    assert crashed.returncode == -9
    resumed = _run_cli(["run", "--resume", str(run_dir), "--workers", "2"])
    assert resumed.returncode == 0, resumed.stderr
    _assert_bit_identical(run_dir, reference)
    # Skip decisions happen at submission time in the parent, so the
    # counts stay deterministic even with two workers racing.
    stats = json.loads((run_dir / "stats.json").read_text())
    assert stats["skipped"] == EXPECTED_SKIPS[5]
    assert stats["executed"] == TOTAL_TASKS - EXPECTED_SKIPS[5]


def test_crash_spec_is_inert_for_completed_run(workload, tmp_path):
    """Resuming a complete run executes nothing, so no task ever reaches
    the crash schedule — the run survives an armed injector."""
    root, reference = workload
    result = _run_cli(["run", "--resume", str(reference)], fault_spec="0:crash")
    assert result.returncode == 0, result.stderr
    stats = json.loads((reference / "stats.json").read_text())
    assert stats["executed"] == 0 and stats["skipped"] == TOTAL_TASKS
