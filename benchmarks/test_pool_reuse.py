"""Persistent pool reuse + pipelined dataflow — the overhead the resident
pool exists to delete, measured.

Two machine-relative ratios, both gated by a committed baseline:

- ``speedup_pool_reuse``: a pipeline that issues many short maps (one
  per stage per chunk) without a caller's pool pays a full pool spawn
  per map, since each map opens its own :class:`WorkerPool`; a resident
  pool passed to every map pays it once.  The
  ratio is spawn overhead amortisation, so it holds on any host —
  including single-core runners.
- ``speedup_pipelined``: an end-to-end ``classify -> tfs -> render`` run
  under the stage-barrier scheduler vs ``--pipelined`` dataflow at the
  same worker count.  Barriers leave fan-out remainders idle at every
  stage edge (5 steps on 2 workers = a half-idle wave per stage);
  dataflow fills those bubbles with the next stage's work.  Both
  schedules must produce byte-identical run directories.
"""

import json
import os
import tempfile
from pathlib import Path

from repro.data import make_argon_sequence
from repro.parallel import WorkerPool, map_timesteps
from repro.run.runner import PipelineRunner, RunConfig
from repro.utils.timing import Timer
from repro.volume.io import save_sequence

MAPS = 8
ITEMS_PER_MAP = 8


def _write_bench(name: str, payload: dict) -> Path:
    """Drop a ``BENCH_<name>.json`` next to the pytest cwd (CI artifact)."""
    out = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2))
    return out


def busy(n):
    return sum(i * i for i in range(n))


def _repeated_maps(pool=None):
    items = [2000] * ITEMS_PER_MAP
    for _ in range(MAPS):
        map_timesteps(busy, items, workers=2, pool=pool)


def _run_config(root: Path) -> RunConfig:
    sequence = make_argon_sequence(shape=(20, 24, 24),
                                   times=[195, 205, 215, 225, 235])
    save_sequence(sequence, root / "argon")
    return RunConfig.from_dict({
        "sequence": str(root / "argon"),
        "stages": ["classify", "tfs", "render"],
        "classify": {"mask": "ring", "train_steps": [195], "samples": 25,
                     "epochs": 10, "hidden": 8, "mode": "fast"},
        "render": {"size": 32},
    })


def _timed_run(config, run_dir, pipelined: bool) -> float:
    with Timer() as t:
        runner = PipelineRunner.create(config, run_dir, workers=2,
                                       pipelined=pipelined)
        runner.run()
    return t.elapsed


def _store_bytes(run_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((run_dir / "store").iterdir())}


def test_pool_reuse_and_pipelined_dataflow(benchmark):
    cores = os.cpu_count() or 1

    # -- resident pool vs per-map spawn over repeated short maps -------- #
    with Timer() as t_fresh:
        _repeated_maps(pool=None)
    with WorkerPool(workers=2) as pool:
        with Timer() as t_pool:
            _repeated_maps(pool=pool)
        spawned = pool.spawned
    assert spawned == 2, "resident pool must not respawn between maps"
    speedup_reuse = t_fresh.elapsed / t_pool.elapsed

    benchmark.pedantic(lambda: _repeated_maps(pool=None), rounds=1, iterations=1)

    # -- barrier vs pipelined end-to-end run, byte-identical outputs ---- #
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = _run_config(root)
        barrier_times, pipelined_times = [], []
        for round_no in range(3):  # fresh run dirs: the store memoizes
            barrier_times.append(
                _timed_run(config, root / f"barrier{round_no}", False))
            pipelined_times.append(
                _timed_run(config, root / f"pipelined{round_no}", True))
        barrier_t, pipelined_t = min(barrier_times), min(pipelined_times)
        for rel in ("manifest.json", "config.json"):
            assert ((root / "barrier0" / rel).read_bytes()
                    == (root / "pipelined0" / rel).read_bytes())
        assert _store_bytes(root / "barrier0") == _store_bytes(root / "pipelined0")
    speedup_pipelined = barrier_t / pipelined_t

    print(f"\nresident pool: {MAPS} maps x {ITEMS_PER_MAP} short tasks: "
          f"fresh {t_fresh.elapsed:.3f}s, pooled {t_pool.elapsed:.3f}s, "
          f"{speedup_reuse:.2f}x")
    print(f"end-to-end run (5 steps, 2 workers): barrier {barrier_t:.3f}s, "
          f"pipelined {pipelined_t:.3f}s, {speedup_pipelined:.2f}x")
    benchmark.extra_info["speedup_pool_reuse"] = round(speedup_reuse, 3)
    benchmark.extra_info["speedup_pipelined"] = round(speedup_pipelined, 3)
    _write_bench("pool_reuse", {
        "maps": MAPS,
        "items_per_map": ITEMS_PER_MAP,
        "fresh_s": round(t_fresh.elapsed, 4),
        "pooled_s": round(t_pool.elapsed, 4),
        "barrier_s": round(barrier_t, 4),
        "pipelined_s": round(pipelined_t, 4),
        "speedup_pool_reuse": round(speedup_reuse, 3),
        "speedup_pipelined": round(speedup_pipelined, 3),
    })

    # Spawn amortisation holds on any host; the dataflow win needs real
    # parallel slack, so its floor steps down on cramped runners.
    assert speedup_reuse >= 2.0
    if cores >= 4:
        assert speedup_pipelined >= 1.1, (
            f"pipelined run should cut barrier wall-clock to <=0.9x, got "
            f"{1 / speedup_pipelined:.2f}x")
    elif cores >= 2:
        assert speedup_pipelined >= 0.95
