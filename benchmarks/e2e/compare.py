#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per metric and workload.

Each set is a JSON-lines file written by ``bench.py --out`` (one record
per run).  Bounds and directions come from ``BENCHMARK.json``::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl              # two sets agree?
    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl --mode change

``agree``: both sets' spreads (quartile distance over median) are within
the metric's bound, and the medians differ, either way, by at most the
bound.

``change``: A is the parent, B the change, runs paired by seed and
workload.  ``improved`` needs B to win at least 9 of every 10 pairs (a tie
is neither a win nor a loss) and the medians to differ by more than A's
quartile distance; otherwise a spread wider than the bound is
``unresolved`` unless every B run beats every A run, and B worse by more
than the bound is ``REGRESSED``.

Exit status 1 when a set disagrees, a metric regressed, or a run failed
its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def beats(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict_agree(metric: dict, a: list, b: list) -> str:
    bound = metric["bound"]
    if spread(a) > bound or spread(b) > bound:
        return "DISAGREE (spread > bound)"
    med_a, med_b = statistics.median(a), statistics.median(b)
    if abs(med_b - med_a) > bound * abs(med_a):
        return "DISAGREE (medians differ)"
    return "agree"


def verdict_change(metric: dict, pairs: list[tuple], a: list, b: list) -> str:
    bound, better = metric["bound"], metric["better"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    wins = sum(1 for pa, pb in pairs if beats(pb, pa, better))
    q1, _, q3 = quartiles(a)
    if (pairs and wins >= 0.9 * len(pairs)
            and beats(med_b, med_a, better) and abs(med_b - med_a) > q3 - q1):
        return "improved"
    if spread(a) > bound or spread(b) > bound:
        if all(beats(vb, va, better) for vb in b for va in a):
            return "better (every run)"
        return "unresolved (spread > bound)"
    if worse_by(med_a, med_b, better) > bound:
        return "REGRESSED"
    return "no regression"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("agree", "change"), default="agree")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a = [r for r in load(args.a) if r["trace"] == 0]
    runs_b = [r for r in load(args.b) if r["trace"] == 0]
    bad = 0
    for label, runs in (("A", runs_a), ("B", runs_b)):
        for r in runs:
            if not r["correct"]:
                bad += 1
                print(f"{label}: {r['workload']} seed {r['seed']} failed "
                      f"{r['failed']}/{r['attempted']} operations or checks")
    print(f"{'workload':<18} {'metric':<14} {'n':>3} {'A median':>11} {'A spread':>9} "
          f"{'B median':>11} {'B spread':>9} {'B vs A':>8} {'bound':>6}  verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        wa = {r["seed"]: r for r in runs_a if r["workload"] == workload}
        wb = {r["seed"]: r for r in runs_b if r["workload"] == workload}
        if not wa or not wb:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in wa.values()]
            b = [r["metrics"][name] for r in wb.values()]
            if args.mode == "agree":
                verdict = verdict_agree(metric, a, b)
            else:
                pairs = [(wa[s]["metrics"][name], wb[s]["metrics"][name])
                         for s in sorted(wa.keys() & wb.keys())]
                verdict = verdict_change(metric, pairs, a, b)
            if verdict.startswith(("DISAGREE", "REGRESSED")):
                bad += 1
            med_a, med_b = statistics.median(a), statistics.median(b)
            delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
            print(f"{workload:<18} {name:<14} {min(len(a), len(b)):>3} {med_a:>11.5g} "
                  f"{spread(a):>9.1%} {med_b:>11.5g} {spread(b):>9.1%} {delta:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
