"""Config-driven experiment runner.

Subcommands map to experiment kinds; every run validates its JSON
config strictly (unknown keys are errors), computes, then writes a
deterministic report plus plot-ready CSV files.  Timings go to a
separate file so everything else is byte-identical across runs.

Exit codes: 0 success, 2 config validation failure (nothing written),
3 computation failure (a failure report is still written when
possible).  Errors also appear as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Sequence

from . import exactnum, mobius, nctorus, nilseq, spectral, torus
from .exactnum import (
    IntMatrix,
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    classify_entropy,
    declare_generator,
    parse_phase,
)
from .nilseq import SequenceStream
from .spectral import GPolynomial, ShiftPhaseOperator, SparseVector

__all__ = ["ValidationError", "ComputationError", "run", "emit_plotdata", "main"]

KINDS = ("classify", "torus-seq", "nc-seq", "decompose", "correlate", "weyl")


class ValidationError(ValueError):
    """Config rejected before any computation; exit code 2."""


class ComputationError(RuntimeError):
    """A validated config failed while computing; exit code 3."""


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
        return IntMatrix.from_rows(rows)
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}")


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


def _complex(obj: Any, where: str) -> complex:
    _check_keys(obj, where, [], ["re", "im"])
    re = obj.get("re", 0.0)
    im = obj.get("im", 0.0)
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ValidationError(f"{where}: re/im must be numbers")
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
    if not isinstance(obj, list):
        raise ValidationError(f"{where}: expected a list of site entries")
    sites = {}
    for i, entry in enumerate(obj):
        _check_keys(entry, f"{where}[{i}]", ["site"], ["re", "im"])
        site = tuple(_int_list(entry["site"], f"{where}[{i}].site"))
        if len(site) != dim:
            raise ValidationError(f"{where}[{i}].site: expected length {dim}")
        sites[site] = sites.get(site, 0) + _complex(
            {k: v for k, v in entry.items() if k in ("re", "im")},
            f"{where}[{i}]")
    return SparseVector.from_sites(dim, sites)


def _theta(obj: Any, where: str, d: int) -> nctorus.ThetaMatrix:
    if not isinstance(obj, list) or len(obj) != d:
        raise ValidationError(f"{where}: expected {d} rows of phase strings")
    rows = []
    for j, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ValidationError(f"{where}[{j}]: expected {d} entries")
        rows.append(tuple(_phase(x, f"{where}[{j}][{k}]")
                          for k, x in enumerate(row)))
    try:
        return nctorus.ThetaMatrix(tuple(rows))
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}")


def build_sequence(spec: Any, precision: str) -> SequenceStream:
    """Strictly validated sequence sub-schema shared by seq/correlate."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("sequence: expected an object with a 'type' key")
    t = spec["type"]
    if t == "constant":
        _check_keys(spec, "sequence", ["type"], ["re", "im"])
        return nilseq.constant(_complex(
            {k: v for k, v in spec.items() if k in ("re", "im")}, "sequence"))
    if t == "poly-exp":
        _check_keys(spec, "sequence", ["type", "poly"])
        return nilseq.poly_exp(_phase_poly(spec["poly"], "sequence.poly"),
                               precision=precision)
    if t == "heisenberg":
        _check_keys(spec, "sequence", ["type", "alpha", "beta"], ["eps"])
        if not isinstance(spec["alpha"], (int, float)) or \
           not isinstance(spec["beta"], (int, float)):
            raise ValidationError("sequence.alpha/beta: expected numbers")
        return nilseq.heisenberg_seq(float(spec["alpha"]), float(spec["beta"]),
                                     eps=float(spec.get("eps", 1e-12)))
    if t == "furstenberg":
        _check_keys(spec, "sequence", ["type", "poly"])
        _, stream = nilseq.furstenberg_orbit(_phase_poly(spec["poly"],
                                                         "sequence.poly"))
        return stream
    if t == "torus":
        _check_keys(spec, "sequence", ["type", "matrix", "point", "character"])
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
                {k: v for k, v in term.items() if k in ("re", "im")},
                f"sequence.element[{i}]")
        u = nctorus.WeylElement.from_terms(S.dim, terms)
        w = _sparse_vector(spec["state_vector"], "sequence.state_vector", S.dim)
        try:
            return nctorus.state_seq(S, theta, u, w, precision=precision)
        except (nctorus.NotCompatible, nctorus.NotUnitVector,
                nctorus.DimensionMismatch) as exc:
            raise ValidationError(f"sequence: {exc}")
    raise ValidationError(f"sequence.type: unknown type {t!r}")


# ---------------------------------------------------------------------------
# kind runners: each returns a deterministic results dict


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
        "plot": None,
    }


def _seq_common(cfg: dict, precision: str) -> tuple[SequenceStream, int, int]:
    rng = cfg["range"]
    _check_keys(rng, "range", ["start", "stop"])
    start, stop = _int(rng["start"], "range.start"), _int(rng["stop"], "range.stop")
    if stop <= start:
        raise ValidationError("range: need start < stop")
    if stop - start > 10 ** 7:
        raise ValidationError("range: wider than 10^7 samples")
    stream = build_sequence(cfg["sequence"], precision)
    return stream, start, stop


def _run_seq(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "range"], ["generators"])
    stream, start, stop = _seq_common(cfg, precision)
    try:
        values = stream.evaluate_block(start, stop)
    except Exception as exc:
        raise ComputationError(f"sequence evaluation failed: {exc}")
    return {
        "results": {
            "tag": str(stream.tag),
            "bound": stream.bound,
            "provenance": stream.provenance,
            "start": start,
            "stop": stop,
        },
        "plot": {"kind": "values", "start": start,
                 "values": [[float(v.real), float(v.imag)] for v in values]},
    }


def _mobius_table_cached(limit: int) -> mobius.MobiusTable:
    cache_dir = os.environ.get("NILSEQ_CACHE_DIR")
    if not cache_dir:
        return mobius.sieve_mobius(limit)
    path = os.path.join(cache_dir, f"mobius_{limit}.bin")
    if os.path.exists(path):
        return mobius.read_cache(path)
    table = mobius.sieve_mobius(limit)
    os.makedirs(cache_dir, exist_ok=True)
    mobius.write_cache(table, path)
    return table


def _run_correlate(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "sequence", "checkpoints"],
                ["generators", "segment_size"])
    pts = _checkpoints(cfg["checkpoints"], "checkpoints")
    if not pts:
        raise ValidationError("checkpoints: need at least one")
    seg = _int(cfg.get("segment_size", 1 << 15), "segment_size")
    if seg < 16:
        raise ValidationError("segment_size: too small")
    spec = cfg["sequence"]
    if isinstance(spec, dict) and spec.get("type") == "mobius":
        _check_keys(spec, "sequence", ["type"])
        table = _mobius_table_cached(max(pts) if pts else 1)
        stream = mobius.mobius_stream(table)
    else:
        stream = build_sequence(spec, precision)
        table = _mobius_table_cached(max(pts)) if pts else None
    try:
        rep = mobius.correlate(stream, pts, table=table,
                               segment_size=seg, threads=threads)
    except (mobius.LimitTooLarge, mobius.UnboundedSequence) as exc:
        raise ComputationError(str(exc))
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
        "plot": {"kind": "correlation", "rows": rows},
    }


def _run_weyl(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config", ["kind", "poly", "harmonics", "checkpoints"],
                ["generators"])
    poly = _phase_poly(cfg["poly"], "poly")
    harmonics = _int_list(cfg["harmonics"], "harmonics")
    if not harmonics or any(k == 0 for k in harmonics):
        raise ValidationError("harmonics: need nonzero integers")
    pts = _checkpoints(cfg["checkpoints"], "checkpoints", minimum=0)
    if not pts:
        raise ValidationError("checkpoints: need at least one")
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
        "plot": {"kind": "weyl", "rows": rows},
    }


def _run_decompose(cfg: dict, precision: str, threads: int) -> dict:
    _check_keys(cfg, "config",
                ["kind", "operators", "polys", "u", "v"],
                ["generators", "checkpoints"])
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
                _complex({k: x for k, x in a.items() if k in ("re", "im")},
                         f"{key}.atoms[{i}]"),
                [_phase(x, f"{key}.atoms[{i}].eigenphases[{j}]")
                 for j, x in enumerate(phases)])
        return SparseVector.from_sites(delta, v.site_dict(), atoms)

    u, v = vec("u"), vec("v")
    pts = _checkpoints(cfg.get("checkpoints", []), "checkpoints")
    try:
        res = spectral.decompose(g, u, v)
    except Exception as exc:
        raise ComputationError(f"decompose failed: {exc}")
    out = res.to_json_dict()
    out["cesaro_bounds"] = {str(N): res.certificate.cesaro_bound(N) for N in pts}
    residual_rows = [[n, val.real, val.imag]
                     for n, val in zip(res.certificate.hits,
                                       res.certificate.values)]
    return {
        "results": out,
        "plot": {"kind": "decomposition", "terms": out["nil_terms"],
                 "residual_rows": residual_rows},
    }


_RUNNERS: dict[str, Callable[[dict, str, int], dict]] = {
    "classify": _run_classify,
    "torus-seq": _run_seq,
    "nc-seq": _run_seq,
    "correlate": _run_correlate,
    "weyl": _run_weyl,
    "decompose": _run_decompose,
}


# ---------------------------------------------------------------------------
# plot-data emission


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file, then rename it over path, so a
    reader sees the old file or the whole new one, never a partial one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: str, rows: Sequence[Sequence]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def emit_plotdata(report: dict, out_dir: str) -> list[str]:
    """Write CSV/JSON artifacts for a finished report; returns paths."""
    plot = report.get("plot")
    written = []
    if plot is None:
        return written
    os.makedirs(out_dir, exist_ok=True)
    kind = plot["kind"]
    if kind == "values":
        path = os.path.join(out_dir, "values.csv")
        rows = [[plot["start"] + i, re, im]
                for i, (re, im) in enumerate(plot["values"])]
        _write_csv(path, "n,re,im", rows)
        written.append(path)
    elif kind == "correlation":
        path = os.path.join(out_dir, "correlation.csv")
        _write_csv(path, "N,re_S,im_S,abs_S", plot["rows"])
        written.append(path)
    elif kind == "weyl":
        path = os.path.join(out_dir, "weyl.csv")
        _write_csv(path, "harmonic,N,re_mean,im_mean,abs_mean", plot["rows"])
        written.append(path)
    elif kind == "decomposition":
        tpath = os.path.join(out_dir, "nil_terms.json")
        _write_json(tpath, plot["terms"])
        written.append(tpath)
        rpath = os.path.join(out_dir, "residual.csv")
        _write_csv(rpath, "n,re,im", plot["residual_rows"])
        written.append(rpath)
    return written


# ---------------------------------------------------------------------------
# driver


def _error_json(stage: str, exc: Exception) -> str:
    return json.dumps({"error": {"stage": stage,
                                 "type": type(exc).__name__,
                                 "message": str(exc)}}, sort_keys=True)


def run(kind: str, config_path: str, out_dir: str, threads: int,
        precision: str) -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        with open(config_path) as f:
            cfg = json.load(f)
    except OSError as exc:
        print(_error_json("load", exc), file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(_error_json("parse", exc), file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict):
            raise ValidationError("config: expected a JSON object")
        cfg_kind = cfg.get("kind")
        if cfg_kind != kind:
            raise ValidationError(
                f"config kind {cfg_kind!r} does not match subcommand {kind!r}")
        if kind not in _RUNNERS:
            raise ValidationError(f"unknown kind {kind!r}")
        _declare_generators(cfg)
        if precision not in ("exact", "fast"):
            raise ValidationError("precision must be exact or fast")
        if threads < 1:
            raise ValidationError("threads must be >= 1")
    except ValidationError as exc:
        print(_error_json("validate", exc), file=sys.stderr)
        return 2
    timings["validate"] = time.perf_counter() - t0

    report = {
        "kind": kind,
        "config": cfg,
        "precision": precision,
        "threads": threads,
        "status": "ok",
        "failed_stage": None,
        "results": None,
        "plot": None,
    }
    t1 = time.perf_counter()
    try:
        outcome = _RUNNERS[kind](cfg, precision, threads)
    except ValidationError as exc:
        print(_error_json("validate", exc), file=sys.stderr)
        return 2
    except (ComputationError, exactnum.DegreeBoundExceeded,
            exactnum.NotUnipotent, exactnum.NotInGL,
            exactnum.NonClosedProduct, nctorus.NotCompatible,
            nctorus.NotUnitVector, mobius.LimitTooLarge,
            mobius.UnboundedSequence) as exc:
        timings["compute"] = time.perf_counter() - t1
        report["status"] = "error"
        report["failed_stage"] = "compute"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _write_report(report, out_dir)
        _write_json(os.path.join(out_dir, "timings.json"), timings)
        print(_error_json("compute", exc), file=sys.stderr)
        return 3
    timings["compute"] = time.perf_counter() - t1

    report["results"] = outcome["results"]
    report["plot"] = outcome["plot"]
    t2 = time.perf_counter()
    _write_report(report, out_dir)
    emit_plotdata(report, out_dir)
    timings["emit"] = time.perf_counter() - t2
    _write_json(os.path.join(out_dir, "timings.json"), timings)
    return 0


def _write_report(report: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"),
                {k: v for k, v in report.items() if k != "plot"})


def _cmd_report(args: argparse.Namespace) -> int:
    """Re-emit plot data from a previously written report.json."""
    path = os.path.join(args.out, "report.json") if os.path.isdir(args.config) \
        else args.config
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(_error_json("load", exc), file=sys.stderr)
        return 2
    if report.get("status") != "ok":
        print(_error_json("report", RuntimeError("stored report is a failure report")),
              file=sys.stderr)
        return 3
    # reports on disk carry no plot payload; recompute from the stored config
    cfg = report["config"]
    kind = report["kind"]
    _declare_generators(cfg)
    outcome = _RUNNERS[kind](cfg, report.get("precision", "exact"),
                             report.get("threads", 1))
    emit_plotdata({"plot": outcome["plot"]}, args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
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

    if args.command == "report":
        try:
            return _cmd_report(args)
        except ValidationError as exc:
            print(_error_json("validate", exc), file=sys.stderr)
            return 2
        except Exception as exc:
            print(_error_json("compute", exc), file=sys.stderr)
            return 3

    if args.command == "seq":
        # the config's kind field distinguishes torus-seq from nc-seq
        try:
            with open(args.config) as f:
                peeked = json.load(f)
            kind = peeked.get("kind") if isinstance(peeked, dict) else None
        except (OSError, json.JSONDecodeError) as exc:
            print(_error_json("load", exc), file=sys.stderr)
            return 2
        if kind not in ("torus-seq", "nc-seq"):
            print(_error_json("validate", ValidationError(
                "seq configs need kind torus-seq or nc-seq")), file=sys.stderr)
            return 2
        return run(kind, args.config, args.out, args.threads, args.precision)

    return run(args.command, args.config, args.out, args.threads,
               args.precision)


if __name__ == "__main__":
    sys.exit(main())
