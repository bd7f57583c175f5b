"""Smoke test of the end-to-end benchmark harness (catches harness rot).

Every workload runs at toy size — sizes are constructor arguments, not a
command-line knob — through set-up, one untraced and one traced
operation, its correctness checks and the per-layer summary.  Run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.

The wrappers of ``tracing.py`` stay installed for the rest of the pytest
process (switched off), exactly as they would in a traced benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import compare
import tracing
from workloads import ArgonCold, ArgonResume, CombustionPooled, ServeInteractive

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

TINY = {
    ArgonCold: dict(shape=20, steps=3, size=24),
    ArgonResume: dict(shape=20, steps=3, size=24),
    CombustionPooled: dict(shape=(12, 36, 24), steps=3, size=24, iatf_epochs=20),
    ServeInteractive: dict(shape=20, steps=3, size=24),
}


@pytest.fixture(scope="module")
def tracer(tmp_path_factory):
    tracer = tracing.install(tmp_path_factory.mktemp("trace"))
    yield tracer
    tracer.enable(False)


@pytest.fixture
def clean_tracer(tracer):
    tracer.enable(False)
    tracer.spans.clear()
    for path in tracer.out_dir.glob("trace-*.jsonl"):
        path.unlink()
    return tracer


@pytest.mark.parametrize("cls", list(TINY), ids=lambda c: c.name)
def test_workload_runs_checks_and_traces(cls, tmp_path, clean_tracer, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    wl = cls(tmp_path, 5, **TINY[cls])
    wl.tracer = clean_tracer
    wl.setup(0)
    try:
        untraced = wl.measure(0.0)
        wl.set_tracing(True)
        traced = wl.measure(0.0)
    finally:
        clean_tracer.enable(False)
        close_errors = wl.close()
    ops = untraced + traced
    assert not close_errors
    assert all(not op.errors for op in ops), [op.errors for op in ops]
    assert all(op.steps == wl.steps for op in ops)

    values, summary = tracing.layer_metrics(clean_tracer.read_all(), traced, untraced, {})
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert bench._sec7_table(summary, wl.describe(), len(traced))
    if cls is ArgonCold:
        assert values["runner.tasks_executed"] == wl.tasks
        assert values["classify.s"] > 0 and values["render.s"] > 0
        assert values["runner.attributed_frac"] > 0.5
    elif cls is ArgonResume:
        assert values["runner.tasks_skipped"] == wl.tasks
        assert values["digest.s"] > 0 and values["classify.s"] == 0
    elif cls is CombustionPooled:
        nested, total = summary.nested_under_pool_task("render")
        assert total == wl.steps * len(traced) and nested == total
        assert values["pool.ipc_s"] > 0 and values["tf.s"] > 0
    else:
        assert values["serve.compute_s"] > 0 and values["pool.tasks"] > 0


def test_end_to_end_metrics_match_the_spec():
    from workloads import Op
    ops = [Op(0.0, 1.0, 4), Op(1.0, 2.5, 4)]
    values = bench._e2e(ops, [0.2, 0.3, 0.25], {"": 1})
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(values)
    assert values["steps_per_s"] == pytest.approx(8 / 2.5)
    assert values["latency_p50_s"] == pytest.approx(1.25)
    assert all(v > 0 for v in values.values())


def test_metrics_weight_a_partial_deck_to_the_stated_mix():
    from workloads import Op
    # Mix 1:1, but the run dealt three fast (1 s) requests and one slow
    # (3 s): throughput reads as if it had dealt two of each, and the slow
    # kind's half of the weight lifts the median off the fast requests.
    ops = [Op(0.0, 1.0, 2, kind="fast")] * 3 + [Op(0.0, 3.0, 2, kind="slow")]
    values = bench._e2e(ops, [1.0], {"fast": 1, "slow": 1})
    assert values["steps_per_s"] == pytest.approx(4 / 4.0)
    assert 1.0 < values["latency_p50_s"] < 3.0
    even = bench._e2e(ops[2:], [1.0], {"fast": 1, "slow": 1})
    assert even["latency_p50_s"] == pytest.approx(2.0)


def test_timings_scale_to_the_reference_host_speed():
    from workloads import REFERENCE_S, Op, reference_time
    # Twice as long on a host that runs the reference kernel half as fast.
    assert Op(0.0, 2.0, 4, reference=2 * REFERENCE_S).seconds == pytest.approx(1.0)
    cpus = os.sched_getaffinity(0)
    assert reference_time() > 0
    assert os.sched_getaffinity(0) == cpus


def test_compare_verdicts():
    metric = {"name": "latency_p50_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict_agree(metric, base, [v * 1.02 for v in base]) == "agree"
    assert compare.verdict_agree(metric, base, [v * 1.2 for v in base]).startswith("DISAGREE")
    # Drift either way is a disagreement, not only B being worse.
    assert compare.verdict_agree(metric, base, [v * 0.8 for v in base]).startswith("DISAGREE")
    pairs = lambda b: list(zip(base, b))  # noqa: E731
    faster = [v * 0.8 for v in base]
    assert compare.verdict_change(metric, pairs(faster), base, faster) == "improved"
    # Five wins and five ties is not an improvement: a tie counts as
    # neither, and wins must make up 9/10 of all pairs.
    flat, half = [1.0] * 10, [0.5] * 5 + [1.0] * 5
    assert compare.verdict_change(metric, list(zip(flat, half)), flat, half) != "improved"
    slower = [v * 1.3 for v in base]
    assert compare.verdict_change(metric, pairs(slower), base, slower) == "REGRESSED"
    noisy = [0.5, 1.5] * 5
    assert compare.verdict_change(metric, pairs(noisy), base, noisy).startswith("unresolved")


def test_bench_refuses_a_directory_without_sources(tmp_path):
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "argon-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
