"""Config-driven experiment runner.

Subcommands map to experiment kinds; every run validates its JSON
config strictly (unknown keys are errors), computes, then writes a
deterministic report plus plot-ready CSV files.  Timings go to a
separate file so everything else is byte-identical across runs.

Exit codes: 0 success, 2 config validation failure (nothing written),
3 any other failure, write errors included (a failure report is still
written when possible).  Errors also appear as one JSON object on stderr.

Only the standard library and `exactnum` load with this module; each
subcommand's layers (numpy with them) load in the `import` stage of
`run`, so `classify` never loads numpy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .exactnum import (
    IntMatrix,
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    classify_entropy,
    declare_generator,
    parse_phase,
    reset_generators,
    write_atomic,
)

if TYPE_CHECKING:
    from .mobius import MobiusCache
    from .nctorus import ThetaMatrix
    from .nilseq import SequenceStream
    from .spectral import SparseVector

__all__ = ["ValidationError", "run", "emit_plotdata", "main"]

# rows per piece of CSV text handed to write_atomic
_CSV_CHUNK = 1 << 16
# a weyl run sums e(k p(n)) over every window [-N, N] for every harmonic
# k; the total, not only the widest window, bounds its time
_WEYL_POINTS = 10 ** 8

KINDS = ("classify", "torus-seq", "nc-seq", "decompose", "correlate", "weyl")


class ValidationError(ValueError):
    """Config rejected before any computation; exit code 2."""


# ---------------------------------------------------------------------------
# strict schema helpers


def _check_keys(obj: dict, where: str, required: Sequence[str],
                optional: Sequence[str] = ()) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise ValidationError(f"{where}: unknown key {k!r}")
    for k in required:
        if k not in obj:
            raise ValidationError(f"{where}: missing key {k!r}")


def _int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{where}: expected an integer")
    return obj


def _int_list(obj: Any, where: str) -> list[int]:
    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected a list of integers")
    return [_int(x, where) for x in obj]


def _int_matrix(obj: Any, where: str) -> IntMatrix:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{where}: expected a nonempty list of rows")
    rows = [_int_list(r, where) for r in obj]
    if any(len(r) != len(rows) for r in rows):
        raise ValidationError(f"{where}: matrix must be square")
    try:
        A = IntMatrix.from_rows(rows)
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}")
    if (det := A.det()) not in (1, -1):
        raise ValidationError(f"{where}: determinant {det}, not in GL(d, Z)")
    return A


def _phase(obj: Any, where: str) -> PhaseScalar:
    if not isinstance(obj, str):
        raise ValidationError(f"{where}: phases are strings like '1/3 + 2*g1'")
    try:
        return parse_phase(obj)
    except Exception as exc:
        raise ValidationError(f"{where}: bad phase literal {obj!r}: {exc}")


def _phase_poly(obj: Any, where: str) -> PhasePolynomial:
    _check_keys(obj, where, ["coeffs"], ["basis"])
    basis = obj.get("basis", "binomial")
    if basis not in ("binomial", "monomial"):
        raise ValidationError(f"{where}.basis: must be binomial or monomial")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ValidationError(f"{where}.coeffs: expected nonempty list")
    return PhasePolynomial.from_coeffs(
        [_phase(c, f"{where}.coeffs[{i}]") for i, c in enumerate(coeffs)],
        basis=basis)


def _integral_poly(obj: Any, where: str) -> IntegralPolynomial:
    coeffs = _int_list(obj, where)
    if not coeffs:
        raise ValidationError(f"{where}: expected nonempty coefficient list")
    return IntegralPolynomial.from_binomial(coeffs)


def _finite(x: Any) -> bool:
    # abs(x) <= max is False for NaN, the infinities and huge integers
    return isinstance(x, (int, float)) and abs(x) <= sys.float_info.max


def _complex(obj: dict, where: str) -> complex:
    """The optional re/im of an object whose keys are already checked."""
    re = obj.get("re", 0.0)
    im = obj.get("im", 0.0)
    if not (_finite(re) and _finite(im)):
        raise ValidationError(f"{where}: re/im must be finite numbers")
    return complex(re, im)


def _checkpoints(obj: Any, where: str, minimum: int = 1) -> list[int]:
    pts = _int_list(obj, where)
    if not pts:
        return []
    if sorted(pts) != pts or any(p < minimum for p in pts):
        raise ValidationError(f"{where}: checkpoints must be increasing and >= {minimum}")
    return pts


def _declare_generators(cfg: dict) -> None:
    gens = cfg.get("generators", {})
    if not isinstance(gens, dict):
        raise ValidationError("generators: expected an object of id -> decimal string")
    for gid, value in gens.items():
        if not isinstance(value, str):
            raise ValidationError(f"generators.{gid}: value must be a decimal string")
        try:
            declare_generator(gid, value)
        except Exception as exc:
            raise ValidationError(f"generators.{gid}: {exc}")


# ---------------------------------------------------------------------------
# sequence construction (shared by seq and correlate kinds)


def _sparse_vector(obj: Any, where: str, dim: int) -> SparseVector:
    from .spectral import SparseVector

    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected a list of site entries")
    sites = {}
    for i, entry in enumerate(obj):
        _check_keys(entry, f"{where}[{i}]", ["site"], ["re", "im"])
        site = tuple(_int_list(entry["site"], f"{where}[{i}].site"))
        if len(site) != dim:
            raise ValidationError(f"{where}[{i}].site: expected length {dim}")
        sites[site] = sites.get(site, 0) + _complex(entry, f"{where}[{i}]")
    return SparseVector.from_sites(dim, sites)


def _theta(obj: Any, where: str, d: int) -> ThetaMatrix:
    from .nctorus import ThetaMatrix

    if not isinstance(obj, list) or len(obj) != d:
        raise ValidationError(f"{where}: expected {d} rows of phase strings")
    rows = []
    for j, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ValidationError(f"{where}[{j}]: expected {d} entries")
        rows.append(tuple(_phase(x, f"{where}[{j}][{k}]")
                          for k, x in enumerate(row)))
    try:
        return ThetaMatrix(tuple(rows))
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}")


def build_sequence(spec: Any, precision: str) -> SequenceStream:
    """Strictly validated sequence sub-schema shared by seq/correlate."""
    from . import nilseq   # every sequence type is built on it

    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("sequence: expected an object with a 'type' key")
    t = spec["type"]
    if t == "constant":
        _check_keys(spec, "sequence", ["type"], ["re", "im"])
        return nilseq.constant(_complex(spec, "sequence"))
    if t == "poly-exp":
        _check_keys(spec, "sequence", ["type", "poly"])
        return nilseq.poly_exp(_phase_poly(spec["poly"], "sequence.poly"),
                               precision=precision)
    if t == "heisenberg":
        _check_keys(spec, "sequence", ["type", "alpha", "beta"], ["eps"])
        alpha, beta, eps = (spec["alpha"], spec["beta"], spec.get("eps", 1e-12))
        if not all(_finite(x) for x in (alpha, beta, eps)):
            raise ValidationError("sequence.alpha/beta/eps: expected finite numbers")
        if not eps > 0:
            raise ValidationError("sequence.eps: must be > 0")
        return nilseq.heisenberg_seq(float(alpha), float(beta), eps=float(eps))
    if t == "furstenberg":
        _check_keys(spec, "sequence", ["type", "poly"])
        _, stream = nilseq.furstenberg_orbit(_phase_poly(spec["poly"],
                                                         "sequence.poly"))
        return stream
    if t == "torus":
        _check_keys(spec, "sequence", ["type", "matrix", "point", "character"])
        from . import torus

        A = _int_matrix(spec["matrix"], "sequence.matrix")
        pt = torus.TorusPoint.make(
            [_phase(c, f"sequence.point[{i}]")
             for i, c in enumerate(spec["point"])])
        ch = torus.Character(tuple(_int_list(spec["character"],
                                             "sequence.character")))
        if pt.dim != A.dim or len(ch.vector) != A.dim:
            raise ValidationError("sequence: matrix/point/character dimensions differ")
        return torus.character_seq(A, pt, ch, precision=precision).stream
    if t == "nc":
        _check_keys(spec, "sequence",
                    ["type", "S", "theta", "element", "state_vector"])
        from . import nctorus

        S = _int_matrix(spec["S"], "sequence.S")
        theta = _theta(spec["theta"], "sequence.theta", S.dim)
        elem_spec = spec["element"]
        if not isinstance(elem_spec, list) or not elem_spec:
            raise ValidationError("sequence.element: expected a nonempty term list")
        terms = {}
        for i, term in enumerate(elem_spec):
            _check_keys(term, f"sequence.element[{i}]", ["exponents"],
                        ["re", "im"])
            exps = tuple(_int_list(term["exponents"],
                                   f"sequence.element[{i}].exponents"))
            if len(exps) != S.dim:
                raise ValidationError(
                    f"sequence.element[{i}].exponents: expected length {S.dim}")
            terms[exps] = terms.get(exps, 0) + _complex(
                term, f"sequence.element[{i}]")
        u = nctorus.WeylElement.from_terms(S.dim, terms)
        w = _sparse_vector(spec["state_vector"], "sequence.state_vector", S.dim)
        try:
            return nctorus.state_seq(S, theta, u, w, precision=precision)
        except (nctorus.NotCompatible, nctorus.NotUnitVector,
                nctorus.DimensionMismatch) as exc:
            raise ValidationError(f"sequence: {exc}")
    raise ValidationError(f"sequence.type: unknown type {t!r}")


# ---------------------------------------------------------------------------
# kind runners: each returns a deterministic results dict and a plot dict
# that maps each output file name to (header, rows) for a .csv file, the
# rows iterated once, or to the object itself for a .json file


def _run_classify(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "matrix"], ["generators"])
    A = _int_matrix(cfg["matrix"], "matrix")
    rep = classify_entropy(A)
    return {
        "results": {
            "dim": rep.dim,
            "verdict": rep.verdict,
            "is_zero_entropy": rep.is_zero_entropy,
            "unipotence_order": rep.unipotence_order,
            "cyclotomic_orders": (None if rep.cyclotomic_orders is None
                                  else list(rep.cyclotomic_orders)),
            "entropy": rep.entropy,
            "nc_lower_bound": rep.nc_lower_bound,
        },
        "plot": {},
    }


def _run_seq(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "range"], ["generators"])
    rng = cfg["range"]
    _check_keys(rng, "range", ["start", "stop"])
    start, stop = _int(rng["start"], "range.start"), _int(rng["stop"], "range.stop")
    if stop <= start:
        raise ValidationError("range: need start < stop")
    if stop - start > 10 ** 7:
        raise ValidationError("range: wider than 10^7 samples")
    stream = build_sequence(cfg["sequence"], precision)
    values = stream.evaluate_block(start, stop)

    def rows() -> Iterable[tuple[int, float, float]]:
        # floats are made one CSV chunk at a time, as _write_csv takes them
        for lo in range(0, len(values), _CSV_CHUNK):
            part = values[lo:lo + _CSV_CHUNK]
            yield from zip(range(start + lo, start + lo + len(part)),
                           part.real.tolist(), part.imag.tolist())

    return {
        "results": {
            "tag": str(stream.tag),
            "bound": stream.bound,
            "provenance": stream.provenance,
            "start": start,
            "stop": stop,
        },
        "plot": {"values.csv": ("n,re,im", rows())},
    }


def _mobius_cache(limit: int, threads: int) -> MobiusCache:
    """The sieve cache for 1..limit, opened: the file in NILSEQ_CACHE_DIR
    on a hit; sieved into it on a miss, or into a temporary file when no
    directory is set."""
    from . import mobius

    cache_dir = os.environ.get("NILSEQ_CACHE_DIR")
    if not cache_dir:
        return mobius.sieve_cache(limit, threads=threads)
    path = os.path.join(cache_dir, f"mobius_{limit}.bin")
    try:
        cache = mobius.MobiusCache(open(path, "rb"))
    except (FileNotFoundError, ValueError):
        pass  # a missing, torn, corrupt or old-format file: re-sieve over it
    else:
        if cache.limit == limit:
            return cache
        cache.close()
    os.makedirs(cache_dir, exist_ok=True)
    return mobius.sieve_cache(limit, path, threads)


def _run_correlate(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "checkpoints"],
                ["generators"])
    from . import mobius

    pts = _checkpoints(cfg["checkpoints"], "checkpoints")
    if not pts:
        raise ValidationError("checkpoints: need at least one")
    if pts[-1] > mobius.HARD_LIMIT:
        raise ValidationError(f"checkpoints: at most {mobius.HARD_LIMIT}, the sieve bound")
    spec = cfg["sequence"]
    is_mobius = isinstance(spec, dict) and spec.get("type") == "mobius"
    if is_mobius:
        _check_keys(spec, "sequence", ["type"])
    else:
        stream = build_sequence(spec, precision)
    with _mobius_cache(max(pts), threads) as cache:
        if is_mobius:
            stream = mobius.mobius_stream(cache)
        rep = mobius.correlate(stream, pts, table=cache, threads=threads)
    rows = [[N, s.real, s.imag, abs(s)]
            for N, s in zip(rep.checkpoints, rep.sums)]
    return {
        "results": {
            "tag": str(stream.tag),
            "sequence_bound": rep.sequence_bound,
            "method": rep.method,
            "checkpoints": list(rep.checkpoints),
            "sums": [[s.real, s.imag] for s in rep.sums],
            "abs_sums": list(rep.abs_sums()),
        },
        "plot": {"correlation.csv": ("N,re_S,im_S,abs_S", rows)},
    }


def _run_weyl(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "poly", "harmonics", "checkpoints"],
                ["generators"])
    from . import torus

    poly = _phase_poly(cfg["poly"], "poly")
    harmonics = _int_list(cfg["harmonics"], "harmonics")
    if not harmonics or any(k == 0 for k in harmonics):
        raise ValidationError("harmonics: need nonzero integers")
    pts = _checkpoints(cfg["checkpoints"], "checkpoints", minimum=0)
    if not pts:
        raise ValidationError("checkpoints: need at least one")
    if 2 * pts[-1] + 1 > 10 ** 7:
        raise ValidationError("checkpoints: window [-N, N] wider than 10^7 samples")
    if len(harmonics) * sum(2 * N + 1 for N in pts) > _WEYL_POINTS:
        raise ValidationError("harmonics x checkpoints: more than 10^8 window "
                              "points to sum")
    rep = torus.weyl_test(poly, harmonics, pts, precision=precision)
    rows = []
    harm_out = []
    for h in rep.harmonics:
        harm_out.append({
            "harmonic": h.harmonic,
            "expect_zero": h.expect_zero,
            "method": h.method,
            "period": h.period,
            "means": [[m.real, m.imag] for m in h.means],
        })
        for N, mean in zip(rep.checkpoints, h.means):
            rows.append([h.harmonic, N, mean.real, mean.imag, abs(mean)])
    return {
        "results": {"checkpoints": list(rep.checkpoints), "harmonics": harm_out},
        "plot": {"weyl.csv": ("harmonic,N,re_mean,im_mean,abs_mean", rows)},
    }


def _run_decompose(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config",
                ["kind", "operators", "polys", "u", "v"],
                ["generators", "checkpoints"])
    from .spectral import GPolynomial, ShiftPhaseOperator, SparseVector, decompose

    ops_spec = cfg["operators"]
    if not isinstance(ops_spec, list) or not ops_spec:
        raise ValidationError("operators: expected a nonempty list")
    ops = []
    delta = None
    for i, o in enumerate(ops_spec):
        _check_keys(o, f"operators[{i}]", ["shift"], ["phase", "form"])
        shift = _int_list(o["shift"], f"operators[{i}].shift")
        if delta is None:
            delta = len(shift)
        if len(shift) != delta:
            raise ValidationError(f"operators[{i}].shift: inconsistent dimension")
        phase = _phase(o.get("phase", "0"), f"operators[{i}].phase")
        form_spec = o.get("form", ["0"] * delta)
        if not isinstance(form_spec, list) or len(form_spec) != delta:
            raise ValidationError(f"operators[{i}].form: expected {delta} phases")
        form = [_phase(x, f"operators[{i}].form[{j}]")
                for j, x in enumerate(form_spec)]
        ops.append(ShiftPhaseOperator.make(shift, phase, form))
    polys_spec = cfg["polys"]
    if not isinstance(polys_spec, list) or len(polys_spec) != len(ops):
        raise ValidationError("polys: need one binomial coefficient list per operator")
    polys = [_integral_poly(p, f"polys[{i}]") for i, p in enumerate(polys_spec)]
    g = GPolynomial.make(ops, polys)

    def vec(key: str) -> SparseVector:
        entry = cfg[key]
        _check_keys(entry, key, [], ["sites", "atoms"])
        v = _sparse_vector(entry.get("sites", []), f"{key}.sites", delta)
        atoms = {}
        for i, a in enumerate(entry.get("atoms", [])):
            _check_keys(a, f"{key}.atoms[{i}]", ["id", "eigenphases"],
                        ["re", "im"])
            phases = a["eigenphases"]
            if not isinstance(phases, list) or len(phases) != len(ops):
                raise ValidationError(
                    f"{key}.atoms[{i}].eigenphases: expected {len(ops)} phases")
            atoms[str(a["id"])] = (
                _complex(a, f"{key}.atoms[{i}]"),
                [_phase(x, f"{key}.atoms[{i}].eigenphases[{j}]")
                 for j, x in enumerate(phases)])
        return SparseVector.from_sites(delta, v.site_dict(), atoms)

    u, v = vec("u"), vec("v")
    pts = _checkpoints(cfg.get("checkpoints", []), "checkpoints")
    res = decompose(g, u, v)
    out = res.to_json_dict()
    out["cesaro_bounds"] = {str(N): res.certificate.cesaro_bound(N) for N in pts}
    residual_rows = [[n, val.real, val.imag]
                     for n, val in zip(res.certificate.hits,
                                       res.certificate.values)]
    return {
        "results": out,
        "plot": {"nil_terms.json": out["nil_terms"],
                 "residual.csv": ("n,re,im", residual_rows)},
    }


_RUNNERS: dict[str, Callable[[dict, str, int], dict]] = {
    "classify": _run_classify,
    "torus-seq": _run_seq,
    "nc-seq": _run_seq,
    "correlate": _run_correlate,
    "weyl": _run_weyl,
    "decompose": _run_decompose,
}

# The layers each kind's runner imports, and the layer that builds each
# sequence type; `run` loads them in its timed `import` stage.
_KIND_LAYERS = {"classify": (), "torus-seq": (), "nc-seq": (),
                "correlate": ("mobius",), "weyl": ("torus",),
                "decompose": ("spectral",)}
_SEQUENCE_LAYER = {"constant": "nilseq", "poly-exp": "nilseq",
                   "heisenberg": "nilseq", "furstenberg": "nilseq",
                   "torus": "torus", "nc": "nctorus", "mobius": "mobius"}


def _layers(kind: str, cfg: dict) -> tuple[str, ...]:
    """Layers a run imports; an unknown sequence type adds none, since
    the runner rejects it."""
    spec = cfg.get("sequence")
    t = spec.get("type") if isinstance(spec, dict) else None
    seq = _SEQUENCE_LAYER.get(t) if isinstance(t, str) else None
    return _KIND_LAYERS[kind] + ((seq,) if seq else ())


# ---------------------------------------------------------------------------
# plot-data emission


def _write_json(path: str, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: str, rows: Iterable[Iterable]) -> None:
    # str of a float (Python or numpy) is its shortest round-trip repr;
    # rows are joined and written _CSV_CHUNK at a time, so the text of one
    # chunk is alive at once, not of the whole file
    lines = (",".join(map(str, row)) for row in rows)

    def chunks() -> Iterable[str]:
        yield header + "\n"
        while chunk := list(islice(lines, _CSV_CHUNK)):
            yield "\n".join(chunk) + "\n"

    write_atomic(path, chunks())


def emit_plotdata(report: dict, out_dir: str) -> list[str]:
    """Write each file of the report's plot dict; returns the paths."""
    written = []
    for name, data in report.get("plot", {}).items():
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            _write_csv(path, *data)
        else:
            _write_json(path, data)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# driver


def run(kind: str, config_path: str, out_dir: str, threads: int,
        precision: str) -> int:
    """Run one subcommand; the only place an exception becomes an exit code.

    Exit 2 when the config cannot be read or parsed, or is rejected by a
    ValidationError, even one raised inside a runner: nothing is written
    under out_dir.  Exit 3 for any other failure: a failure report and
    timings.json are written when the disk allows.  `seq` takes its kind
    from the config; `report` reruns the config of a stored report.json.
    """
    stage, report, timings = "load", None, {}
    t = time.perf_counter()
    try:
        if kind == "report" and os.path.isdir(config_path):
            config_path = os.path.join(out_dir, "report.json")
        with open(config_path) as f:
            text = f.read()
        stage = "parse"
        cfg = json.loads(text)

        stage = "validate"
        if kind == "report":
            if not isinstance(cfg, dict):
                raise ValidationError("report: expected a JSON object")
            if cfg.get("status") != "ok":
                raise RuntimeError("stored report is a failure report")
            kind, precision, threads, cfg = (
                cfg.get("kind"), cfg.get("precision", "exact"),
                cfg.get("threads", 1), cfg.get("config"))
        if not isinstance(cfg, dict):
            raise ValidationError("config: expected a JSON object")
        if kind == "seq":
            kind = cfg.get("kind")
            if kind not in ("torus-seq", "nc-seq"):
                raise ValidationError("seq configs need kind torus-seq or nc-seq")
        cfg_kind = cfg.get("kind")
        if cfg_kind != kind:
            raise ValidationError(
                f"config kind {cfg_kind!r} does not match subcommand {kind!r}")
        if kind not in KINDS:
            raise ValidationError(f"unknown kind {kind!r}")
        reset_generators()      # a run sees only its own config's generators
        _declare_generators(cfg)
        if precision not in ("exact", "fast"):
            raise ValidationError("precision must be exact or fast")
        if _int(threads, "threads") < 1:
            raise ValidationError("threads must be >= 1")
        timings["validate"] = time.perf_counter() - t

        report = {
            "kind": kind,
            "config": cfg,
            "precision": precision,
            "threads": threads,
            "status": "ok",
            "failed_stage": None,
            "results": None,
        }
        stage, t = "import", time.perf_counter()
        for layer in _layers(kind, cfg):
            importlib.import_module(f".{layer}", __package__)
        timings["import"] = time.perf_counter() - t

        stage, t = "compute", time.perf_counter()
        report.update(_RUNNERS[kind](cfg, precision, threads))
        timings["compute"] = time.perf_counter() - t

        stage, t = "emit", time.perf_counter()
        _write_report(report, out_dir)
        emit_plotdata(report, out_dir)
        timings["emit"] = time.perf_counter() - t
        _write_json(os.path.join(out_dir, "timings.json"), timings)
        return 0
    except Exception as exc:
        rejected = stage in ("load", "parse") or isinstance(exc, ValidationError)
        if isinstance(exc, ValidationError):
            stage = "validate"
        error = {"type": type(exc).__name__, "message": str(exc)}
        shown = {"stage": stage, **error}
        if not rejected:  # an unexpected failure: say where it happened
            import traceback

            shown["traceback"] = traceback.format_exc()
        print(json.dumps({"error": shown}, sort_keys=True), file=sys.stderr)
        if rejected:
            return 2
        if report is not None:
            timings[stage] = time.perf_counter() - t
            report.update(status="error", failed_stage=stage, error=error)
            try:
                _write_report(report, out_dir)
                _write_json(os.path.join(out_dir, "timings.json"), timings)
            except Exception:
                pass  # the exit code alone reports the failure
        return 3


def _write_report(report: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"),
                {k: v for k, v in report.items() if k != "plot"})


def main(argv: Sequence[str] | None = None) -> int:
    # One OpenBLAS thread: its idle worker spins for about 0.1 s of CPU
    # after numpy loads.  No CLI value path calls BLAS or LAPACK (phase
    # sums are fixed-order elementwise adds), so the pool's size cannot
    # reach an output byte.  Set here, before the `import` stage of `run`
    # loads numpy, not at import, so importing `cli` leaves the
    # environment alone; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(
        prog="nilseqlab",
        description="nilsequence construction, decomposition, and "
                    "Mobius-correlation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "seq", "decompose", "correlate", "weyl", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config file (or report.json for 'report')")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--precision", choices=("exact", "fast"),
                       default="exact")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.threads,
               args.precision)


if __name__ == "__main__":
    sys.exit(main())
