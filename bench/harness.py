"""Closed-loop CLI runs: set-up, timed passes and per-child accounting.

One client runs the operations of a pass one after another; the next run
starts when the previous child has exited.  Each child is reaped with
os.wait4, which returns that child's own rusage.  RUSAGE_CHILDREN is not
used: it keeps the largest RSS of every child ever reaped, so one run's
memory would show in the next.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks
import workloads

WARMUP_CONFIG = {"kind": "classify", "matrix": [[1, 1], [0, 1]]}
SETUP_REPEATS = 5


@dataclass
class Paths:
    """Where the benchmark reads and writes inside the checkout."""

    root: str

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    @property
    def work(self) -> str:
        return os.path.join(self.root, ".bench_work")

    @property
    def pycache(self) -> str:
        return os.path.join(self.work, "pycache")

    def child_env(self, cache_dir: str) -> dict[str, str]:
        """Environment of a CLI child: this checkout's sources and a
        benchmark-owned Mobius cache.  Bytecode of every module goes to
        one benchmark-owned cache, written on the first run and read
        after, as for an installed package; none is written under src/."""
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = self.src + (os.pathsep + old if old else "")
        env["NILSEQ_CACHE_DIR"] = cache_dir
        env["PYTHONPYCACHEPREFIX"] = self.pycache
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str], run_dir: str, env: dict[str, str]) -> Child:
    """Run one child to completion in run_dir and account for it alone."""
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(run_dir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(exit_code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 maxrss_mb=usage.ru_maxrss / 1024.0)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "nilseqlab.cli", *args]


def cache_file(cache_dir: str, limit: int) -> str:
    """The CLI's cache file name for a sieve limit."""
    return os.path.join(cache_dir, f"mobius_{limit}.bin")


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    ops: list
    dir: str
    cache_seed: str         # sieve tables every pass starts with
    seconds: list[float] = field(default_factory=list)


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def set_up_once(workload: str, seed: int, paths: Paths) -> Setup:
    """Generate configs, warm the interpreter and bytecode caches with one
    CLI run, and pre-fill the warm sieve tables of mobius-mix."""
    sdir = tempfile.mkdtemp(prefix="setup-", dir=paths.work)
    config_dir = os.path.join(sdir, "configs")
    cache_seed = os.path.join(sdir, "cache")
    os.makedirs(config_dir)
    os.makedirs(cache_seed)
    ops = workloads.make_plan(workload, seed, paths.root, config_dir)
    env = paths.child_env(cache_seed)
    warm = _write_json(os.path.join(sdir, "warmup.json"), WARMUP_CONFIG)
    runs = [cli_argv("classify", "--config", warm, "--out",
                     os.path.join(sdir, "warmup"))]
    if workload == "mobius-mix":
        limit = workloads.mobius_limits(seed)["warm"]
        fill = _write_json(os.path.join(sdir, "prefill.json"), {
            "kind": "correlate", "sequence": {"type": "mobius"},
            "checkpoints": [limit]})
        runs.append(cli_argv("correlate", "--config", fill, "--out",
                             os.path.join(sdir, "prefill")))
    for i, argv in enumerate(runs):
        child = spawn(argv, os.path.join(sdir, f"setup{i}"), env)
        if child.exit_code != 0:
            raise RuntimeError(f"set-up run {argv} exited {child.exit_code}")
    if workload == "mobius-mix" and not os.path.exists(cache_file(cache_seed, limit)):
        raise RuntimeError("set-up did not write the warm sieve table")
    return Setup(ops=ops, dir=sdir, cache_seed=cache_seed)


def set_up(workload: str, seed: int, paths: Paths, repeats: int) -> Setup:
    """Set up `repeats` times from scratch; keep the last, time them all."""
    seconds = []
    setup = None
    for _ in range(repeats):
        if setup is not None:
            shutil.rmtree(setup.dir)
        t0 = time.perf_counter()
        setup = set_up_once(workload, seed, paths)
        seconds.append(time.perf_counter() - t0)
    setup.seconds = seconds
    return setup


def fresh_cache(setup: Setup, parent: str) -> str:
    """A pass's cache directory: a copy of the set-up tables only."""
    cache = os.path.join(parent, "cache")
    shutil.copytree(setup.cache_seed, cache)
    return cache


# ---------------------------------------------------------------------------
# timed passes


def run_pass(setup: Setup, paths: Paths, checker: checks.Checker) -> dict:
    """One timed pass over the plan, then the output checks (untimed)."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=paths.work)
    try:
        cache = fresh_cache(setup, pass_dir)
        env = paths.child_env(cache)
        records, outs = [], []
        t0 = time.perf_counter()
        for i, op in enumerate(setup.ops):
            run_dir = os.path.join(pass_dir, f"run{i:02d}")
            out = os.path.join(run_dir, "out")
            hit = os.path.exists(cache_file(cache, op.limit)) if op.limit else None
            child = spawn(cli_argv(*op.argv(paths.root, out)), run_dir, env)
            records.append({"key": op.key, "precision": op.precision,
                            "threads": op.threads, "cache_hit": hit,
                            "exit_code": child.exit_code,
                            "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                            "maxrss_mb": child.maxrss_mb})
            outs.append(out)
        wall = time.perf_counter() - t0
        runs = [(op, rec["exit_code"], checks.read_outputs(out))
                for op, rec, out in zip(setup.ops, records, outs)]
        for rec, out, (verdict, why) in zip(records, outs,
                                            checker.check_pass(runs)):
            rec["verdict"], rec["reason"] = verdict, why
            rec["timings"] = read_timings(out)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return {"suite_wall_s": wall,
            "run_wall_s": statistics.median(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["maxrss_mb"] for r in records),
            "failed": sum(r["verdict"] != checks.OK for r in records),
            "runs": records}


def read_timings(out_dir: str) -> dict:
    try:
        with open(os.path.join(out_dir, "timings.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}


def measure(setup: Setup, paths: Paths, checker: checks.Checker,
            seconds: float) -> list[dict]:
    """As many whole passes as fit in `seconds`, at least one.  A pass
    starts only if another pass as long as the longest so far would end
    in time, so a run overruns only when a single pass is longer."""
    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - t0 + longest <= seconds:
        t = time.perf_counter()
        passes.append(run_pass(setup, paths, checker))
        longest = max(longest, time.perf_counter() - t)
    return passes


# ---------------------------------------------------------------------------
# fingerprint


def _simd_lists() -> dict:
    """The SIMD lists np.show_runtime() prints, parsed back."""
    import contextlib
    import io
    import re

    import numpy as np

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_runtime()
    text = buf.getvalue()
    lists = {}
    for name in ("baseline", "found", "not_found"):
        m = re.search(rf"'{name}': \[([^\]]*)\]", text)
        lists[name] = re.findall(r"'([^']+)'", m.group(1)) if m else None
    return lists


def _git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _tree_sha256(root: str, subdirs: tuple[str, ...]) -> str:
    """Digest of the program's sources and configs, for checkouts that
    are not git repositories."""
    import hashlib

    h = hashlib.sha256()
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(root: str) -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    return {
        "python": sys.version,
        "numpy": np.__version__,
        "mpmath": metadata.version("mpmath"),
        "simd": _simd_lists(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "git_sha": _git_sha(root),
        "source_sha256": _tree_sha256(root, ("src", "configs")),
    }
