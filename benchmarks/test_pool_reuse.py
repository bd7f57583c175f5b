"""Persistent pool reuse — the overhead the resident pool exists to
delete, measured.

One machine-relative ratio, gated by a committed baseline:

- ``speedup_pool_reuse``: a pipeline that issues many short maps (one
  per stage per chunk) without a caller's pool pays a full pool spawn
  per map, since each map opens its own :class:`WorkerPool`; a resident
  pool passed to every map pays it once.  The
  ratio is spawn overhead amortisation, so it holds on any host —
  including single-core runners.
"""

import json
import os
from pathlib import Path

from repro.parallel import WorkerPool, map_timesteps
from repro.utils.timing import Timer

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


def test_pool_reuse(benchmark):
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

    print(f"\nresident pool: {MAPS} maps x {ITEMS_PER_MAP} short tasks: "
          f"fresh {t_fresh.elapsed:.3f}s, pooled {t_pool.elapsed:.3f}s, "
          f"{speedup_reuse:.2f}x")
    benchmark.extra_info["speedup_pool_reuse"] = round(speedup_reuse, 3)
    _write_bench("pool_reuse", {
        "maps": MAPS,
        "items_per_map": ITEMS_PER_MAP,
        "fresh_s": round(t_fresh.elapsed, 4),
        "pooled_s": round(t_pool.elapsed, 4),
        "speedup_pool_reuse": round(speedup_reuse, 3),
    })

    # Spawn amortisation holds on any host.
    assert speedup_reuse >= 2.0
