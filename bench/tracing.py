"""The traced run: in-process replay of a pass plus fixed layer probes.

Spans are recorded from here, by wrapping public functions of the
nilseqlab modules while a traced operation runs; nothing in src/ is
instrumented.  A wrapped name is replaced in every module namespace that
holds it, since modules import each other's functions by name.

Layer probes time single public calls on fixed inputs, so that every
per-layer metric exists on every workload and means the same thing on
each.  The branch of nctorus.state_seq that evaluates phases point by
point (precision exact, or fast with at most 256 points per residue) is
not measured: no small 2x2 or 3x3 input reaching it has been found.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict

import checks
import harness
import workloads

# public functions that get a span: the entry points of each layer and
# the calls that carry its work
SPAN_POINTS = {
    "cli": ("main", "run", "build_sequence", "emit_plotdata"),
    "exactnum": ("classify_entropy", "unipotent_power_polys",
                 "declare_generator"),
    "nilseq": ("poly_exp", "interleave", "phase_block_exact",
               "phase_block_fast"),
    "mobius": ("sieve_mobius", "read_cache", "write_cache", "correlate",
               "tree_fold"),
    "torus": ("character_seq", "weyl_test"),
    "nctorus": ("state_seq", "iterate_phase_polys"),
    "spectral": ("decompose",),
}

PROBE_LIMIT = 10 ** 7         # sieve, tree_fold and cache probes
SEGMENT = workloads.DEFAULT_SEGMENT


def _modules() -> dict:
    return {m: importlib.import_module(f"nilseqlab.{m}") for m in SPAN_POINTS}


class Tracer:
    """Spans kept in memory: (id, parent id, request, name, start, end).

    The parent is the innermost open span of the same thread; a span
    opened on a worker thread with nothing open there takes the innermost
    open span of the main thread, the call that handed out the work.
    The request is the index of the replayed operation.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self.request, name, t0, t1))
        return spanned

    def install(self) -> None:
        mods = _modules()
        for owner, names in SPAN_POINTS.items():
            for name in names:
                original = getattr(mods[owner], name)
                wrapped = self.wrap(f"{owner}.{name}", original)
                for mod in mods.values():
                    if getattr(mod, name, None) is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: count, total time and self time (total minus
        the union of the child spans' intervals); and per replayed
        operation, the self time of each module."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        by_name: dict[str, dict] = {}
        by_op: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        for sid, _, request, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            entry = by_name.setdefault(name, {"count": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - covered
            by_op[request][name.split(".")[0]] += (t1 - t0) - covered
        return {"by_name": dict(sorted(by_name.items())),
                "self_s_by_op": {op: dict(mods) for op, mods in sorted(by_op.items())}}

    def total(self, name: str) -> float:
        return sum(t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name)


# ---------------------------------------------------------------------------
# replay


def _call_main(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:               # a child would exit 1 with a traceback
        traceback.print_exc()
        return 1


def replay(setup: harness.Setup, paths: harness.Paths,
           checker: checks.Checker, tracer: Tracer) -> dict[str, dict]:
    """Run one pass in this process through cli.main twice, untraced
    ("plain") and traced, with the same configs, cache state and order as
    a subprocess pass.  The two sides take turns operation by operation,
    first one then the other, so that a slow spell of the machine falls
    on both and the overhead ratio stays meaningful."""
    cli = importlib.import_module("nilseqlab.cli")
    exactnum = importlib.import_module("nilseqlab.exactnum")
    pass_dir = tempfile.mkdtemp(prefix="replay-", dir=paths.work)
    saved_cache = os.environ.get("NILSEQ_CACHE_DIR")
    sides = {}
    try:
        for name in ("plain", "traced"):
            os.makedirs(os.path.join(pass_dir, name))
            sides[name] = {"dir": os.path.join(pass_dir, name),
                           "cache": harness.fresh_cache(
                               setup, os.path.join(pass_dir, name)),
                           "wall_s": 0.0, "runs": [], "outs": []}
        for i, op in enumerate(setup.ops):
            for name in (("plain", "traced") if i % 2 == 0
                         else ("traced", "plain")):
                side = sides[name]
                out = os.path.join(side["dir"], f"run{i:02d}")
                hit = (os.path.exists(harness.cache_file(side["cache"], op.limit))
                       if op.limit else None)
                os.environ["NILSEQ_CACHE_DIR"] = side["cache"]
                exactnum.reset_generators()     # as in a fresh process
                if name == "traced":
                    tracer.request = i
                    tracer.install()
                t = time.perf_counter()
                try:
                    code = _call_main(cli, op.argv(paths.root, out))
                finally:
                    wall = time.perf_counter() - t
                    tracer.uninstall()
                side["wall_s"] += wall
                side["runs"].append({"key": op.key, "precision": op.precision,
                                     "threads": op.threads, "cache_hit": hit,
                                     "exit_code": code, "wall_s": wall})
                side["outs"].append(out)
        for side in sides.values():
            runs = [(op, rec["exit_code"], checks.read_outputs(out))
                    for op, rec, out in zip(setup.ops, side["runs"],
                                            side["outs"])]
            for rec, out, (verdict, why) in zip(side["runs"], side["outs"],
                                                checker.check_pass(runs)):
                rec["verdict"], rec["reason"] = verdict, why
                rec["timings"] = harness.read_timings(out)
    finally:
        if saved_cache is None:
            os.environ.pop("NILSEQ_CACHE_DIR", None)
        else:
            os.environ["NILSEQ_CACHE_DIR"] = saved_cache
        shutil.rmtree(pass_dir, ignore_errors=True)
    return {name: {"wall_s": side["wall_s"], "runs": side["runs"]}
            for name, side in sides.items()}


# ---------------------------------------------------------------------------
# layer probes


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probe_polys(exactnum) -> dict[int, object]:
    """Fixed phase polynomials of degree 1-4 with two generators."""
    exactnum.reset_generators()
    exactnum.declare_generator("g1", workloads.IRRATIONALS[0])
    exactnum.declare_generator("g2", workloads.IRRATIONALS[1])
    tops = {1: "2*g1 - g2 + 1/3", 2: "-g1 + 3*g2 + 2/7",
            3: "g1 + 2*g2 + 5/12", 4: "3*g1 - 2*g2 + 1/5"}
    polys = {}
    for deg, top in tops.items():
        coeffs = ["1/7"] + ["g1 + 1/2"] * (deg > 1) + ["3/5"] * max(deg - 2, 0)
        polys[deg] = exactnum.PhasePolynomial.from_coeffs(
            [exactnum.parse_phase(c) for c in coeffs + [top]], basis="monomial")
    return polys


def _segmented(fn, start: int, count: int) -> None:
    """Call fn(lo, hi) over [start, start + count) in correlate's segments."""
    for lo in range(start, start + count, SEGMENT):
        fn(lo, min(lo + SEGMENT, start + count))


def probe_cli(paths: harness.Paths) -> dict:
    """Import time of nilseqlab.cli beyond a bare interpreter start."""
    env = paths.child_env(os.path.join(paths.work, "unused-cache"))
    run_dir = tempfile.mkdtemp(prefix="probe-", dir=paths.work)
    try:
        bare, full = [], []
        for _ in range(3):
            bare.append(harness.spawn([sys.executable, "-c", "pass"],
                                      run_dir, env).wall_s)
            full.append(harness.spawn([sys.executable, "-c",
                                       "import nilseqlab.cli"],
                                      run_dir, env).wall_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"cli.import_s": statistics.median(full) - statistics.median(bare)}


def probe_phase(mods: dict) -> dict:
    exactnum, nilseq = mods["exactnum"], mods["nilseq"]
    polys = _probe_polys(exactnum)
    m: dict[str, float] = {}
    # per-point sizes keep each probe near 0.1 s at today's speeds
    fast_points = {1: 1 << 19, 2: 1 << 19, 3: 1 << 14, 4: 1 << 13}
    for deg, p in polys.items():
        ns = range(10 ** 5, 10 ** 5 + 300)
        m[f"exactnum.phase_eval_us.deg{deg}"] = 1e6 / len(ns) * _median_time(
            lambda: [p(n).float_mod_1() for n in ns])
        m[f"nilseq.phase_block_exact_us.deg{deg}"] = 1e6 / 600 * _median_time(
            lambda: nilseq.phase_block_exact(p, 10 ** 5, 10 ** 5 + 600))
        count = fast_points[deg]
        m[f"nilseq.phase_block_fast_ns.deg{deg}"] = 1e9 / count * _median_time(
            lambda: _segmented(lambda a, b: nilseq.phase_block_fast(p, a, b),
                               1, count))
    # e(x) share at degree 1, both measured over the same 2^21 points
    count = 1 << 21
    stream = nilseq.poly_exp(polys[1], precision="fast")
    expo = _median_time(lambda: _segmented(stream.evaluate_block, 1, count))
    phase = _median_time(lambda: _segmented(
        lambda a, b: nilseq.phase_block_fast(polys[1], a, b), 1, count))
    m["nilseq.poly_exp_fast_ns.deg1"] = 1e9 * expo / count
    m["nilseq.expi_share"] = 1 - phase / expo
    return m


def probe_mobius(mods: dict, paths: harness.Paths) -> dict:
    import numpy as np

    mobius, nilseq = mods["mobius"], mods["nilseq"]
    polys = _probe_polys(mods["exactnum"])
    m: dict[str, float] = {}
    t0 = time.perf_counter()
    table = mobius.sieve_mobius(PROBE_LIMIT)
    m["mobius.sieve_s"] = time.perf_counter() - t0
    values = table.values.astype(np.complex128)
    t0 = time.perf_counter()
    mobius.tree_fold(values)
    m["mobius.tree_fold_s"] = time.perf_counter() - t0
    del values
    path = os.path.join(paths.work, f"probe-{os.getpid()}.bin")
    try:
        t0 = time.perf_counter()
        mobius.write_cache(table, path)
        m["mobius.cache_write_s"] = time.perf_counter() - t0
        m["mobius.cache_bytes"] = os.path.getsize(path)
        t0 = time.perf_counter()
        mobius.read_cache(path)
        m["mobius.cache_read_s"] = time.perf_counter() - t0
    finally:
        if os.path.exists(path):
            os.remove(path)
    stream = nilseq.poly_exp(polys[1], precision="fast")
    for threads in (1, 2):
        t0 = time.perf_counter()
        mobius.correlate(stream, [1 << 21], table=table, threads=threads)
        m[f"mobius.correlate_s.threads{threads}"] = time.perf_counter() - t0
    m["mobius.thread_speedup"] = (m["mobius.correlate_s.threads1"]
                                  / m["mobius.correlate_s.threads2"])
    return m


def probe_torus(mods: dict) -> dict:
    exactnum, torus = mods["exactnum"], mods["torus"]
    polys = _probe_polys(exactnum)
    m = {}
    for precision in ("exact", "fast"):
        t0 = time.perf_counter()
        torus.weyl_test(polys[2], [1, 2], [100, 500], precision=precision)
        m[f"torus.weyl_test_s.{precision}"] = time.perf_counter() - t0
    A = exactnum.IntMatrix.from_rows(
        [[-1, -1, 0, 0], [0, -1, -1, 0], [0, 0, -1, -1], [0, 0, 0, -1]])
    x = torus.TorusPoint.make([exactnum.parse_phase(c) for c in
                               ("1/3", "g1 + 1/5", "2/7", "2*g2 - 1/2")])
    seq = torus.character_seq(A, x, torus.Character((1, -1, 2, 1)),
                              precision="exact")
    t0 = time.perf_counter()
    seq.stream.evaluate_block(0, 2000)
    m["torus.character_block_s"] = time.perf_counter() - t0
    return m


def probe_nctorus(mods: dict) -> dict:
    exactnum, nctorus, spectral = mods["exactnum"], mods["nctorus"], mods["spectral"]
    _probe_polys(exactnum)
    g1 = exactnum.parse_phase("g1")
    S = exactnum.IntMatrix.from_rows([[1, 1], [0, 1]])
    theta = nctorus.ThetaMatrix(((exactnum.PhaseScalar.zero(), g1),
                                 (-g1, exactnum.PhaseScalar.zero())))
    u = nctorus.WeylElement.from_terms(2, {(0, 1): 1.0})
    w = spectral.SparseVector.from_sites(2, {(0, 0): 0.6, (1, 1): 0.8})
    t0 = time.perf_counter()
    stream = nctorus.state_seq(S, theta, u, w, precision="exact")
    m = {"nctorus.state_seq_s": time.perf_counter() - t0}
    t0 = time.perf_counter()
    stream.evaluate_block(1, 1 + 10 ** 5)
    m["nctorus.state_block_s"] = time.perf_counter() - t0
    return m


def probe_spectral(mods: dict, paths: harness.Paths) -> dict:
    """decompose on the shipped decompose config, built through the
    public constructors."""
    import json

    exactnum, spectral = mods["exactnum"], mods["spectral"]
    with open(os.path.join(paths.root, "configs",
                           "decompose_heisenberg.json")) as f:
        cfg = json.load(f)
    exactnum.reset_generators()
    for gid, value in cfg.get("generators", {}).items():
        exactnum.declare_generator(gid, value)
    parse = exactnum.parse_phase
    ops = [spectral.ShiftPhaseOperator.make(
        o["shift"], parse(o.get("phase", "0")),
        [parse(x) for x in o.get("form", ["0"] * len(o["shift"]))])
        for o in cfg["operators"]]
    g = spectral.GPolynomial.make(
        ops, [exactnum.IntegralPolynomial.from_binomial(p) for p in cfg["polys"]])

    def vec(key):
        sites = {tuple(e["site"]): complex(e.get("re", 0.0), e.get("im", 0.0))
                 for e in cfg[key]["sites"]}
        return spectral.SparseVector.from_sites(g.dim, sites)

    u, v = vec("u"), vec("v")
    t0 = time.perf_counter()
    res = spectral.decompose(g, u, v)
    m = {"spectral.decompose_s": time.perf_counter() - t0}
    t0 = time.perf_counter()
    res.nil_stream.evaluate_block(0, 10 ** 5)
    m["spectral.nil_block_s"] = time.perf_counter() - t0
    return m


def run_probes(paths: harness.Paths) -> dict:
    mods = _modules()
    metrics = probe_cli(paths)
    metrics.update(probe_phase(mods))
    metrics.update(probe_mobius(mods, paths))
    metrics.update(probe_torus(mods))
    metrics.update(probe_nctorus(mods))
    metrics.update(probe_spectral(mods, paths))
    mods["exactnum"].reset_generators()
    return metrics


def traced(setup: harness.Setup, paths: harness.Paths,
           checker: checks.Checker) -> tuple[dict, dict]:
    """Per-layer metrics of one workload, and the trace record."""
    tracer = Tracer()
    sides = replay(setup, paths, checker, tracer)
    plain = sides["plain"]["runs"]
    ops = setup.ops
    metrics = {
        "cli.validate_s": sum(r["timings"].get("validate", 0.0) for r in plain),
        "cli.compute_s": sum(r["timings"].get("compute", 0.0) for r in plain),
        "cli.emit_s": tracer.total("cli.emit_plotdata"),
        "mobius.sieve_limit": max(op.limit for op in ops),
        "mobius.segments": sum(op.segments for op in ops),
        "mobius.cache_hits": sum(r["cache_hit"] is True for r in plain),
        "mobius.cache_misses": sum(r["cache_hit"] is False for r in plain),
        "bench.points": sum(op.points for op in ops),
        "bench.trace_overhead": (sides["traced"]["wall_s"]
                                 / sides["plain"]["wall_s"] - 1),
    }
    metrics.update(run_probes(paths))
    return metrics, {"replay": sides, "spans": tracer.summary()}
