"""Config-driven experiment runner.

Subcommands map to experiment kinds; every run validates its JSON
config strictly (unknown keys are errors), computes, then writes a
deterministic report plus plot-ready CSV files.  Timings go to a
separate file so everything else is byte-identical across runs.

Exit codes: 0 success, 2 config validation failure (nothing written),
3 any other failure, write errors included (a failure report is still
written when possible).  Errors also appear as one JSON object on stderr
when it is writable; a closed stderr changes no exit code.
`main(argv)` returns the code, so a caller in the same process keeps
running; the process entry `entry` (`python -m nilseqlab.cli` and the
`nilseqlab` script) flushes stdout and stderr and exits with it, skipping
interpreter teardown.

Only the standard library and `exactnum` load with this module; each
subcommand's layers (numpy with them) load in the `import` stage of
`run`, so `classify` never loads numpy.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, NoReturn, Sequence

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

__all__ = ["ValidationError", "run", "emit_plotdata", "main", "entry"]

# rows per piece of CSV text handed to write_atomic
_CSV_CHUNK = 1 << 16
# a weyl run sums e(k p(n)) over every window [-N, N] for every harmonic
# k; the total, not only the widest window, bounds its time
_WEYL_POINTS = 10 ** 8
# digits in a row in a generator value or a phase literal: CPython's
# default int/str limit, which PYTHONINTMAXSTRDIGITS=0 lifts and 3.10.0-6
# lack, so the reader checks it itself and exits alike under every setting
_MAX_DIGITS = 4300

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


def _list(obj: Any, where: str, item: Callable[[Any, str], Any],
          size: int | None = None) -> list:
    """The JSON list obj, item i read as item(x, f"{where}[{i}]"); size is
    its required length, 0 meaning any nonempty list and None any length."""
    if not isinstance(obj, list) or (
            size is not None and (len(obj) != size if size else not obj)):
        want = ("a list" if size is None else "a nonempty list" if size == 0
                else f"a list of length {size}")
        raise ValidationError(f"{where}: expected {want}")
    return [item(x, f"{where}[{i}]") for i, x in enumerate(obj)]


def _int_matrix(obj: Any, where: str) -> IntMatrix:
    rows = _list(obj, where, lambda row, at: _list(row, at, _int), 0)
    try:
        A = IntMatrix.from_rows(rows)
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}")
    if (det := A.det()) not in (1, -1):
        raise ValidationError(f"{where}: determinant {det}, not in GL(d, Z)")
    return A


def _digits(text: str, where: str) -> None:
    """Reject text holding a run of more than _MAX_DIGITS digits, each run
    one int() of Fraction's (an underscore between digits joins them, as
    int() reads them)."""
    import re   # loaded with json already

    for number in re.findall(r"\d+(?:_\d+)*", text):
        if len(number) - number.count("_") > _MAX_DIGITS:
            raise ValidationError(
                f"{where}: a number of more than {_MAX_DIGITS} digits")


def _decimal(text: str, where: str) -> None:
    """Reject a decimal whose exact numerator or denominator would have
    more than _MAX_DIGITS digits.  Written with digits D, d of them after
    the point, and exponent e, it is int(D) * 10^(e - d): the exponent,
    not the length of the text, sets the size of the integers Fraction
    builds, so "1e999999999" would ask for about 415 MB.  Text that is
    not such a decimal is left to Fraction."""
    mantissa, _, exp = text.strip().lower().partition("e")
    whole, _, frac = mantissa.lstrip("+-").partition(".")
    digits, frac = (whole + frac).replace("_", ""), frac.replace("_", "")
    try:
        shift = int(exp or 0) - len(frac)
    except ValueError:
        return
    if digits.isdecimal() and max(len(digits.lstrip("0")) + shift,
                                  1 - shift) > _MAX_DIGITS:
        raise ValidationError(
            f"{where}: a number of more than {_MAX_DIGITS} digits")


def _phase(obj: Any, where: str) -> PhaseScalar:
    if not isinstance(obj, str):
        raise ValidationError(f"{where}: phases are strings like '1/3 + 2*g1'")
    _digits(obj, where)
    try:
        return parse_phase(obj)
    except Exception as exc:
        raise ValidationError(f"{where}: bad phase literal {obj!r}: {exc}")


def _phase_poly(obj: Any, where: str) -> PhasePolynomial:
    _check_keys(obj, where, ["coeffs"], ["basis"])
    basis = obj.get("basis", "binomial")
    if basis not in ("binomial", "monomial"):
        raise ValidationError(f"{where}.basis: must be binomial or monomial")
    return PhasePolynomial.from_coeffs(
        _list(obj["coeffs"], f"{where}.coeffs", _phase, 0), basis=basis)


def _integral_poly(obj: Any, where: str) -> IntegralPolynomial:
    return IntegralPolynomial.from_binomial(_list(obj, where, _int, 0))


def _finite(x: Any) -> bool:
    # abs(x) <= max is False for NaN, the infinities and huge integers;
    # a JSON true or false is not a number, as in _int
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _complex(obj: dict, where: str) -> complex:
    """The optional re/im of an object whose keys are already checked."""
    re = obj.get("re", 0.0)
    im = obj.get("im", 0.0)
    if not (_finite(re) and _finite(im)):
        raise ValidationError(f"{where}: re/im must be finite numbers")
    return complex(re, im)


def _checkpoints(obj: Any, where: str, minimum: int = 1,
                 size: int | None = 0) -> list[int]:
    pts = _list(obj, where, _int, size)
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
        _digits(value, f"generators.{gid}")
        _decimal(value, f"generators.{gid}")
        try:
            declare_generator(gid, value)
        except Exception as exc:
            raise ValidationError(f"generators.{gid}: {exc}")


# ---------------------------------------------------------------------------
# sequence construction (shared by seq and correlate kinds)


def _terms(obj: Any, where: str, key: str, dim: int,
           size: int | None = None) -> dict[tuple[int, ...], complex]:
    """The entries {key: dim integers, re, im} of a list, as a map from
    each key to the sum of its coefficients."""
    def entry(obj: Any, where: str) -> tuple[tuple[int, ...], complex]:
        _check_keys(obj, where, [key], ["re", "im"])
        return (tuple(_list(obj[key], f"{where}.{key}", _int, dim)),
                _complex(obj, where))

    terms = {}
    for k, c in _list(obj, where, entry, size):
        terms[k] = terms.get(k, 0) + c
    return terms


def _theta(obj: Any, where: str, d: int) -> ThetaMatrix:
    from .nctorus import ThetaMatrix

    rows = _list(obj, where, lambda row, at: tuple(_list(row, at, _phase, d)), d)
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
            _list(spec["point"], "sequence.point", _phase, A.dim))
        ch = torus.Character(tuple(
            _list(spec["character"], "sequence.character", _int, A.dim)))
        return torus.character_seq(A, pt, ch, precision=precision).stream
    if t == "nc":
        _check_keys(spec, "sequence",
                    ["type", "S", "theta", "element", "state_vector"])
        from . import nctorus
        from .spectral import SparseVector

        S = _int_matrix(spec["S"], "sequence.S")
        theta = _theta(spec["theta"], "sequence.theta", S.dim)
        u = nctorus.WeylElement.from_terms(S.dim, _terms(
            spec["element"], "sequence.element", "exponents", S.dim, 0))
        w = SparseVector.from_sites(S.dim, _terms(
            spec["state_vector"], "sequence.state_vector", "site", S.dim))
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


def _run_classify(cfg: dict, precision: str) -> dict:
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


def _run_seq(cfg: dict, precision: str) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "range"], ["generators"])
    from . import nilseq

    rng = cfg["range"]
    _check_keys(rng, "range", ["start", "stop"])
    start, stop = _int(rng["start"], "range.start"), _int(rng["stop"], "range.stop")
    if stop <= start:
        raise ValidationError("range: need start < stop")
    if stop - start > 10 ** 7:
        raise ValidationError("range: wider than 10^7 samples")
    stream = build_sequence(cfg["sequence"], precision)

    def rows() -> Iterable[tuple[int, float, float]]:
        # evaluated nilseq.BLOCK points at a time, so one block's values
        # are alive at once (the CSV text goes out _CSV_CHUNK rows at a
        # time): a block's bits do not depend on where the range is cut
        block = nilseq.BLOCK
        for lo in range(start, stop, block):
            hi = min(lo + block, stop)
            part = stream.evaluate_block(lo, hi)
            yield from zip(range(lo, hi), part.real.tolist(), part.imag.tolist())

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


def _mobius_cache(limit: int) -> MobiusCache:
    """The sieve cache for 1..limit, opened: the file in NILSEQ_CACHE_DIR
    on a hit; sieved into it on a miss, or into a temporary file when no
    directory is set."""
    from . import mobius

    cache_dir = os.environ.get("NILSEQ_CACHE_DIR")
    if not cache_dir:
        return mobius.sieve_cache(limit)
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
    return mobius.sieve_cache(limit, path)


def _run_correlate(cfg: dict, precision: str) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "checkpoints"],
                ["generators"])
    from . import mobius

    pts = _checkpoints(cfg["checkpoints"], "checkpoints")
    if pts[-1] > mobius.HARD_LIMIT:
        raise ValidationError(f"checkpoints: at most {mobius.HARD_LIMIT}, the sieve bound")
    spec = cfg["sequence"]
    is_mobius = isinstance(spec, dict) and spec.get("type") == "mobius"
    if is_mobius:
        _check_keys(spec, "sequence", ["type"])
    else:
        stream = build_sequence(spec, precision)
    with _mobius_cache(max(pts)) as cache:
        if is_mobius:
            stream = mobius.mobius_stream(cache)
        rep = mobius.correlate(stream, pts, table=cache)
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


def _run_weyl(cfg: dict, precision: str) -> dict:
    _check_keys(cfg, "config", ["kind", "poly", "harmonics", "checkpoints"],
                ["generators"])
    from . import torus

    poly = _phase_poly(cfg["poly"], "poly")
    harmonics = _list(cfg["harmonics"], "harmonics", _int, 0)
    if any(k == 0 for k in harmonics):
        raise ValidationError("harmonics: need nonzero integers")
    pts = _checkpoints(cfg["checkpoints"], "checkpoints", minimum=0)
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


def _run_decompose(cfg: dict, precision: str) -> dict:
    _check_keys(cfg, "config",
                ["kind", "operators", "polys", "u", "v"],
                ["generators", "checkpoints"])
    from .spectral import GPolynomial, ShiftPhaseOperator, SparseVector, decompose

    def operator(obj: Any, where: str) -> ShiftPhaseOperator:
        nonlocal delta
        _check_keys(obj, where, ["shift"], ["phase", "form"])
        shift = _list(obj["shift"], f"{where}.shift", _int, delta)
        delta = len(shift)
        phase = _phase(obj.get("phase", "0"), f"{where}.phase")
        form = _list(obj.get("form", ["0"] * delta), f"{where}.form", _phase,
                     delta)
        return ShiftPhaseOperator.make(shift, phase, form)

    delta = 0   # the first shift sets the lattice dimension, at least 1
    ops = _list(cfg["operators"], "operators", operator, 0)
    g = GPolynomial.make(ops, _list(cfg["polys"], "polys", _integral_poly,
                                    len(ops)))

    def atom(obj: Any, where: str) -> tuple[str, complex, list[PhaseScalar]]:
        _check_keys(obj, where, ["id", "eigenphases"], ["re", "im"])
        return (str(obj["id"]), _complex(obj, where),
                _list(obj["eigenphases"], f"{where}.eigenphases", _phase,
                      len(ops)))

    def vec(key: str) -> SparseVector:
        entry = cfg[key]
        _check_keys(entry, key, [], ["sites", "atoms"])
        sites = _terms(entry.get("sites", []), f"{key}.sites", "site", delta)
        atoms = {aid: (c, phases) for aid, c, phases
                 in _list(entry.get("atoms", []), f"{key}.atoms", atom)}
        return SparseVector.from_sites(delta, sites, atoms)

    u, v = vec("u"), vec("v")
    v_atoms = v.atom_dict()
    for aid, _, phases in u.atoms:
        if aid in v_atoms and v_atoms[aid][1] != phases:
            raise ValidationError(
                f"u.atoms, v.atoms: atom {aid!r} has different eigenphases in u and v")
    pts = _checkpoints(cfg.get("checkpoints", []), "checkpoints", size=None)
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


_RUNNERS: dict[str, Callable[[dict, str], dict]] = {
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
    lines = (",".join(map(str, row)) + "\n" for row in rows)

    def chunks() -> Iterable[str]:
        yield header + "\n"
        while chunk := "".join(islice(lines, _CSV_CHUNK)):
            yield chunk

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
    timings.json are written when the disk allows.  The error object goes
    to stderr when it can: a closed or missing stderr loses that line, not
    the exit code or the failure report.  `seq` takes its kind from the
    config; `report` reruns the config of a stored report.json.  `threads`
    must be >= 1; it is recorded in report.json and changes nothing else.
    `precision` must be exact or fast; it is recorded in report.json and
    in provenance strings, and both give the exact phases' bits.
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
        if precision not in _PRECISIONS:
            raise ValidationError(
                f"precision must be {' or '.join(_PRECISIONS)}")
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
        report.update(_RUNNERS[kind](cfg, precision))
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
        _write(sys.stderr, json.dumps({"error": shown}, sort_keys=True) + "\n")
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


def _write(stream, text: str) -> None:
    try:
        stream.write(text)
    except (AttributeError, OSError, ValueError):
        pass  # the stream is None or closed: the exit code still reports


_COMMANDS = ("classify", "seq", "decompose", "correlate", "weyl", "report")
_PRECISIONS = ("exact", "fast")
_CHOICES = "{" + ",".join(_PRECISIONS) + "}"
_USAGE = (f"usage: nilseqlab {{{','.join(_COMMANDS)}}} --config CONFIG "
          f"[--out OUT] [--threads N] [--precision {_CHOICES}]\n")
_HELP = _USAGE + f"""
nilsequence construction, decomposition, and Mobius-correlation experiments

Each option is written --opt VALUE or --opt=VALUE, before or after the
subcommand; a repeated option keeps its last value, and a value that
begins with "--" is written --opt=VALUE.

options:
  -h, --help                show this help and exit
  --config CONFIG           JSON config file (or report.json for 'report')
  --out OUT                 output directory (default: .)
  --threads N               accepted, checked (>= 1) and recorded in
                            report.json; every run uses one thread
  --precision {_CHOICES}  accepted and recorded in report.json and in
                            provenance strings; every phase is exact
"""


def _usage_error(reason: str) -> NoReturn:
    _write(sys.stderr, f"{_USAGE}nilseqlab: error: {reason}\n")
    raise SystemExit(2)


def _parse_args(argv: Sequence[str]) -> tuple[str, str, str, int, str]:
    """(command, config, out, threads, precision) of a command line.

    `-h`/`--help` prints the help and exits 0; anything else that is not
    one subcommand and the four options prints the usage and a reason to
    stderr and raises SystemExit(2)."""
    opts = {"--config": None, "--out": ".", "--threads": "1",
            "--precision": "exact"}
    command = None
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            _write(sys.stdout, _HELP)
            raise SystemExit(0)
        name, eq, value = arg.partition("=")
        if name in opts:
            if not eq and ((value := next(args, None)) is None
                           or value.startswith("--") or value == "-h"):
                _usage_error(f"argument {name}: expected one argument")
            opts[name] = value
        elif arg.startswith("-") or command is not None:
            _usage_error(f"unrecognized argument: {arg}")
        elif arg in _COMMANDS:
            command = arg
        else:
            _usage_error(f"invalid command: {arg!r} (choose from "
                         f"{', '.join(_COMMANDS)})")
    if command is None or opts["--config"] is None:
        _usage_error("the command and --config are required")
    try:
        threads = int(opts["--threads"])
    except ValueError:
        _usage_error(f"argument --threads: invalid int value: "
                     f"{opts['--threads']!r}")
    if opts["--precision"] not in _PRECISIONS:
        _usage_error(f"argument --precision: invalid choice: "
                     f"{opts['--precision']!r} (choose from "
                     f"{', '.join(_PRECISIONS)})")
    return command, opts["--config"], opts["--out"], threads, opts["--precision"]


def main(argv: Sequence[str] | None = None) -> int:
    """Parse the command line and run it; returns the exit code, so the
    caller keeps running.  `-h`/`--help` raises SystemExit(0) after the
    help and bad arguments SystemExit(2) after the usage line.
    """
    # One OpenBLAS thread: its idle worker spins for about 0.1 s of CPU
    # after numpy loads.  No CLI value path calls BLAS or LAPACK (phase
    # sums are fixed-order elementwise adds), so the pool's size cannot
    # reach an output byte.  Set here, before the `import` stage of `run`
    # loads numpy, not at import, so importing `cli` leaves the
    # environment alone; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    return run(*_parse_args(sys.argv[1:] if argv is None else argv))


def entry() -> NoReturn:
    """Process entry of `python -m nilseqlab.cli` and the `nilseqlab` script.

    Ends the process with `main`'s code once stdout and stderr are
    flushed, without interpreter teardown, which no output needs and
    which costs about 25 ms after numpy loads: write_atomic closes every
    output file before renaming it into place, the sieve's temporary file
    is already unlinked and no thread but the main one ever runs.  The
    SystemExit of `-h` or of a bad argument and a KeyboardInterrupt take
    the normal exit path.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass    # None or closed: nothing to flush into
    os._exit(code)


if __name__ == "__main__":
    entry()
