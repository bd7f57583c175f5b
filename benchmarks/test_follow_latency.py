"""Follow-mode overhead + latency, measured (paper Sec. 8's online story).

Two kinds of numbers land in ``BENCH_follow_latency.json``:

- ``speedup_follow_vs_offline`` — cold wall-clock of an offline
  ``PipelineRunner`` run over a completed sequence vs a ``FollowRunner``
  consuming the same (already complete) directory.  Both execute the
  identical memoized task walk, so the ratio isolates the follow loop's
  own overhead (directory scans, quiescence probes, status snapshots,
  incremental track pushes).  Machine-relative, hence gated by the
  committed baseline: a follower that ever re-executes work or scans
  pathologically drops well below the floor.
- ``latency_p50_ms`` / ``latency_p95_ms`` — per-step arrival→artifact
  latency against a live cadenced writer.  Absolute milliseconds are
  host-dependent, so they are *recorded* (and tracked by the nightly
  perf trajectory) but deliberately absent from the committed baseline.
"""

import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.data import make_argon_sequence
from repro.run import FollowRunner, PipelineRunner, RunConfig, SimulatedWriter
from repro.utils.timing import Timer
from repro.volume.io import save_sequence

SHAPE = (20, 24, 24)
TIMES = [195, 205, 215, 225, 235]
ROUNDS = 2  # cold runs per side; best-of guards against one-off stalls


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def _workload(root: Path):
    sequence = make_argon_sequence(shape=SHAPE, times=TIMES)
    save_sequence(sequence, root / "argon")
    z, y, x = (int(v) for v in np.argwhere(sequence[0].mask("ring"))[0])
    lo, hi = sequence.value_range
    config = RunConfig.from_dict({
        "sequence": str(root / "argon"),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 25,
                     "epochs": 10, "hidden": 8, "mode": "fast"},
        "track": {"criterion": "classify", "seed_voxel": [0, z, y, x]},
        "tfs": {"domain": [float(lo), float(hi)]},
        "render": {"size": 24},
    })
    return sequence, config


def _offline_run(config, run_dir) -> float:
    with Timer() as t:
        PipelineRunner.create(config, run_dir).run()
    return t.elapsed


def _follow_run(config, run_dir, source) -> tuple[float, tuple]:
    with Timer() as t:
        report = FollowRunner.create(config, run_dir).follow(source, poll=0.01)
    return t.elapsed, report.lag_seconds


def test_follow_overhead_and_latency(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sequence, config = _workload(root)

        # -- cold offline vs cold follow over the completed directory --- #
        offline_s = min(_offline_run(config, root / f"offline{i}")
                        for i in range(ROUNDS))
        follow_s = min(_follow_run(config, root / f"follow{i}",
                                   root / "argon")[0]
                       for i in range(ROUNDS))
        speedup = offline_s / follow_s

        # Same bytes both ways, or the ratio compares different work.
        for rel in ("manifest.json", "config.json"):
            assert ((root / "offline0" / rel).read_bytes()
                    == (root / "follow0" / rel).read_bytes())

        # -- per-step latency against a live cadenced writer ------------ #
        live = root / "live"
        writer = SimulatedWriter(sequence, live, cadence=0.05)
        thread = threading.Thread(target=writer.run, daemon=True)
        thread.start()
        _live_s, lags = _follow_run(config, root / "live-run", live)
        thread.join(120)
        assert len(lags) == len(TIMES)
        p50_ms = float(np.percentile(lags, 50)) * 1e3
        p95_ms = float(np.percentile(lags, 95)) * 1e3

        benchmark.pedantic(
            lambda: FollowRunner.create(config, root / "bench-run").follow(
                root / "argon", poll=0.01),
            rounds=1, iterations=1)

    print(f"\ncold runs over {len(TIMES)} steps: offline {offline_s:.3f}s, "
          f"follow {follow_s:.3f}s, ratio {speedup:.2f}x")
    print(f"live follow latency: p50 {p50_ms:.1f} ms, p95 {p95_ms:.1f} ms")
    benchmark.extra_info["speedup_follow_vs_offline"] = round(speedup, 3)
    benchmark.extra_info["latency_p50_ms"] = round(p50_ms, 2)
    benchmark.extra_info["latency_p95_ms"] = round(p95_ms, 2)
    _write_bench("follow_latency", {
        "steps": len(TIMES),
        "offline_s": round(offline_s, 4),
        "follow_s": round(follow_s, 4),
        "speedup_follow_vs_offline": round(speedup, 3),
        "latency_p50_ms": round(p50_ms, 2),
        "latency_p95_ms": round(p95_ms, 2),
    })

    # The follow loop adds scans and status snapshots, never re-executed
    # work: it must stay within ~2x of the offline walk even on a noisy
    # host (the committed baseline floor is tighter).
    assert speedup >= 0.5, (
        f"follow overhead blew up: {offline_s:.3f}s offline vs "
        f"{follow_s:.3f}s follow")
