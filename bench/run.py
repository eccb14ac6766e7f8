#!/usr/bin/env python3
"""nilseqlab benchmark: CLI time-to-result, end to end and per layer.

    python3 bench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With --trace 0 it sets up, then runs
whole passes of the workload as `python -m nilseqlab.cli` children, one
after another, as many as fit in --seconds (at least one), checks
every output and reports the end-to-end metrics.  With --trace 1 it
replays one pass in-process, untraced and then traced, runs the layer
probes and reports the per-layer metrics.  Metrics, the checks and a
results file path are printed; the last line is one JSON object.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "suite_wall_s": "s", "run_wall_s": "s",
              "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s", "cli.validate_s": "s", "cli.compute_s": "s",
    "cli.emit_s": "s",
    **{f"exactnum.phase_eval_us.deg{k}": "us" for k in range(1, 5)},
    **{f"nilseq.phase_block_exact_us.deg{k}": "us" for k in range(1, 5)},
    **{f"nilseq.phase_block_fast_ns.deg{k}": "ns" for k in range(1, 5)},
    "nilseq.poly_exp_fast_ns.deg1": "ns", "nilseq.expi_share": "ratio",
    "mobius.sieve_s": "s", "mobius.tree_fold_s": "s",
    "mobius.correlate_s.threads1": "s", "mobius.correlate_s.threads2": "s",
    "mobius.thread_speedup": "ratio", "mobius.cache_write_s": "s",
    "mobius.cache_read_s": "s", "mobius.cache_bytes": "bytes",
    "mobius.sieve_limit": "count", "mobius.segments": "count",
    "mobius.cache_hits": "count", "mobius.cache_misses": "count",
    "torus.weyl_test_s.exact": "s", "torus.weyl_test_s.fast": "s",
    "torus.character_block_s": "s",
    "nctorus.state_seq_s": "s", "nctorus.state_block_s": "s",
    "spectral.decompose_s": "s", "spectral.nil_block_s": "s",
    "bench.points": "count", "bench.trace_overhead": "ratio",
}


def program_present(root: str) -> bool:
    return (os.path.isfile(os.path.join(root, "src", "nilseqlab", "cli.py"))
            and os.path.isdir(os.path.join(root, "configs", "golden")))


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so that no handler for
    program errors swallows it."""


def _timeout(signum, frame):
    raise DeadlineExceeded(f"benchmark exceeded {DEADLINE_S} s")


def untraced(workload: str, seed: int, seconds: float, paths, checker) -> dict:
    import harness
    import workloads

    setup = harness.set_up(workload, seed, paths, harness.SETUP_REPEATS)
    try:
        passes = harness.measure(setup, paths, checker, seconds)
    finally:
        shutil.rmtree(setup.dir, ignore_errors=True)
    metrics = {"setup_s": statistics.median(setup.seconds)}
    for name in ("suite_wall_s", "run_wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(p[name] for p in passes)
    runs = [r for p in passes for r in p["runs"]]
    return {"metrics": metrics, "runs": runs, "setup_s": setup.seconds,
            "passes": [{k: v for k, v in p.items() if k != "runs"}
                       for p in passes],
            "plan": workloads.plan_json(setup.ops)}


def traced(workload: str, seed: int, paths, checker) -> dict:
    import harness
    import tracing
    import workloads

    setup = harness.set_up(workload, seed, paths, 1)
    try:
        metrics, record = tracing.traced(setup, paths, checker)
    finally:
        shutil.rmtree(setup.dir, ignore_errors=True)
    runs = [r for side in record["replay"].values() for r in side["runs"]]
    return {"metrics": metrics, "runs": runs, "trace": record,
            "plan": workloads.plan_json(setup.ops)}


def main(argv: list[str] | None = None) -> int:
    if not program_present(ROOT):
        print(f"error: no nilseqlab sources and goldens under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.pycache_prefix = os.path.join(WORK, "pycache")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import checks
    import harness

    paths = harness.Paths(ROOT)
    os.makedirs(paths.work, exist_ok=True)
    sys.path.insert(0, paths.src)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        checker = checks.Checker(args.workload, ROOT)
        if args.trace:
            result = traced(args.workload, args.seed, paths, checker)
            units = PER_LAYER
        else:
            result = untraced(args.workload, args.seed, args.seconds, paths,
                              checker)
            units = END_TO_END
        fingerprint = harness.fingerprint(ROOT)
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    runs = result["runs"]
    attempted = len(runs)
    failed = sum(r["verdict"] != checks.OK for r in runs)
    correct = not any(r["verdict"] == checks.WRONG for r in runs)
    metrics = result["metrics"]

    results_dir = os.path.join(paths.work, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}.json")
    with open(results_path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": fingerprint, "attempted": attempted,
                   "failed": failed, "failed_frac": failed / attempted,
                   "correct": correct, **result}, f, indent=1, default=str)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} runs, {failed} failed (failed_frac "
          f"{failed / attempted:.4f} ratio), correct {correct}")
    for r in runs:
        if r["verdict"] != checks.OK:
            print(f"  check {r['verdict']}: {r['key']} {r['precision']} "
                  f"threads {r['threads']}: {r['reason']}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print(f"  results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
