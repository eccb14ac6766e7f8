#!/usr/bin/env python3
"""Compare two checkouts on the benchmark's end-to-end metrics, in pairs.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N

Pair i runs `bench/run.py --workload W --seed S+i --trace 0`, for the
`run_seconds` of BENCHMARK.json as the benchmark does, once from each
checkout, the parent first in even pairs and the change first in odd
ones, so that a drift of the machine over the session falls on both
sides alike.  Each run's last stdout line (one JSON object) gives
its metrics, its run count and its failed count; a run that exits
nonzero, reads `correct: false` or has a failed operation stops the
comparison.

For each end-to-end metric of BENCHMARK.json it then prints both sides'
median and quartiles, the change's relative move, the number of pairs
the change wins, and whether the claim rule holds: the change wins at
least 9 in 10 pairs (rounded up) and the medians differ, in the better
direction, by more than the parent's interquartile range.  A metric that
is worse than at the parent by more than its bound is marked.

The two checkouts must have absolute paths of equal length: a CLI
child's peak RSS moves by about 0.1 MB with the length of its checkout's
path, which would read as a change.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """The paired comparison of one metric; parent[i] and change[i] come
    from pair i, and better is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    move = (cm - pm) / pm if pm else 0.0
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "move": move,
        "wins": wins, "pairs": len(parent),
        "claim": (wins >= math.ceil(0.9 * len(parent))
                  and sign * (pm - cm) > p3 - p1),
        "over_bound": sign * move > bound,
    }


def format_row(name: str, unit: str, s: dict) -> str:
    (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
    return (f"{name:12s} {pm:9.4g} [{p1:.4g}, {p3:.4g}] -> "
            f"{cm:9.4g} [{c1:.4g}, {c3:.4g}] {unit:2s} {s['move']:+7.2%}  "
            f"wins {s['wins']}/{s['pairs']}  "
            f"claim {'holds' if s['claim'] else 'fails'}"
            + ("  OVER BOUND" if s["over_bound"] else ""))


def bench_once(checkout: str, workload: str, seed: int,
               seconds: int) -> dict:
    """The last-line JSON object of one `bench/run.py --trace 0` run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: seed {seed}: {result['failed']} of "
                         f"{result['attempted']} runs failed, correct "
                         f"{result['correct']}\n{proc.stdout}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if len(sides["parent"]) != len(sides["change"]):
        print(f"error: {sides['parent']} and {sides['change']} differ in "
              "length; a child's peak RSS depends on it", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_once(sides[side], args.workload, seed, seconds)
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs}, seed {seed}, {order[0]} first: "
              + ", ".join(f"{name} {values['parent'][name][-1]:.4g} -> "
                          f"{values['change'][name][-1]:.4g}"
                          for name in values["parent"]), flush=True)

    print(f"\n{args.workload}, seeds {args.seed}-{args.seed + args.pairs - 1}: "
          "parent median [q1, q3] -> change median [q1, q3]")
    for m in metrics:
        print(format_row(m["name"], m["unit"], summarize(
            values["parent"][m["name"]], values["change"][m["name"]],
            m["better"], m["bound"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
