"""Start-up budget: each subcommand loads only the layers it runs.

Every case runs in a fresh interpreter and reads `sys.modules` after the
run, so nothing the test process has already imported leaks in.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
WATCHED = ("numpy", "mpmath", "concurrent.futures")

# the CLI (or only its import, with no arguments), then the watched
# modules that are loaded at exit
_PROBE = f"""
import json, sys
from nilseqlab import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""

# every name the package root exported when it imported its layers eagerly
EXPORTED = {
    "exactnum": (
        "DegreeBoundExceeded", "EntropyReport", "IntMatrix",
        "IntegralPolynomial", "NonClosedProduct", "NotInGL", "NotUnipotent",
        "PhasePolynomial", "PhaseScalar", "PowerPolys", "binom_int",
        "char_poly", "classify_entropy", "congruent_mod_1", "cyclotomic",
        "declare_generator", "declare_generator_product", "euler_phi",
        "fit_phase_polynomial", "format_phase", "parse_phase",
        "reset_generators", "unipotent_power_polys"),
    "mobius": (
        "CesaroReport", "CorrelationReport", "LimitTooLarge", "MobiusTable",
        "UnboundedSequence", "cesaro_stats", "correlate", "mertens",
        "mobius_by_factorization", "mobius_stream", "read_cache",
        "sieve_mobius", "tree_fold", "write_cache"),
    "nilseq": (
        "ArityMismatch", "DegreeZero", "PhaseKernel", "SequenceStream",
        "SkewProductState", "Tag", "constant", "deinterleave", "e_array",
        "e_phase", "from_function", "furstenberg_orbit", "heisenberg_seq",
        "indicator", "interleave", "phase_block_exact", "phase_block_fast",
        "poly_exp", "quadratic_seq", "theta_kappa"),
    "torus": (
        "Character", "CharacterSequence", "MismatchAt", "TorusPoint",
        "WeylReport", "character_seq", "orbit_point",
        "verify_polynomial_form", "weyl_test"),
    "nctorus": (
        "ClockShiftReport", "DimensionMismatch", "NotCompatible",
        "NotRational", "NotUnitVector", "PhasePolyReport", "ThetaMatrix",
        "WeylElement", "WeylWord", "apply_auto", "apply_auto_inverse",
        "clock_shift_check", "commutator_phase", "gns_apply",
        "iterate_phase_polys", "state_seq", "word_identity", "word_mul",
        "word_pow"),
    "spectral": (
        "AtomPartition", "BochnerMeasure", "DecompositionResult",
        "GPolynomial", "NotDiagonal", "SectorReport", "ShiftPhaseOperator",
        "SparseVector", "ZeroDensityCertificate", "bochner_data",
        "classify_atoms", "compact_subspace", "decompose",
        "integer_solutions", "op_pow"),
}


def _loaded(*argv):
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, cwd=REPO,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(loaded)


def _run(tmp_path, sub, config, *extra):
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = str(path)
    return _loaded(sub, "--config", config,
                   "--out", str(tmp_path / "out"), *extra)


def test_cli_import_loads_no_numerics():
    assert _loaded() == set()


@pytest.mark.parametrize("matrix, loads", [
    ([[1, 1], [0, 1]], set()),               # zero entropy: integers only
    ([[2, 1], [1, 1]], {"mpmath"}),          # positive: roots at 60 digits
])
def test_classify_loads_no_numpy(matrix, loads, tmp_path):
    assert _run(tmp_path, "classify",
                {"kind": "classify", "matrix": matrix}) == loads


def test_weyl_loads_no_mpmath(tmp_path):
    assert _run(tmp_path, "weyl",
                os.path.join(CONFIGS, "weyl_rational.json")) == {"numpy"}


@pytest.mark.parametrize("threads, loads", [
    ("1", {"numpy"}),
    ("2", {"numpy", "concurrent.futures"}),  # the pool is the only user
])
def test_correlate_loads_the_pool_only_with_threads(threads, loads, tmp_path):
    assert _run(tmp_path, "correlate",
                os.path.join(CONFIGS, "correlate_quadratic.json"),
                "--threads", threads, "--precision", "fast") == loads


def test_every_exported_name_still_resolves():
    import nilseqlab

    names = [n for names in EXPORTED.values() for n in names]
    assert len(names) == 100
    assert sorted(nilseqlab.__all__) == sorted(names)
    assert set(names) <= set(dir(nilseqlab))
    for owner, owned in EXPORTED.items():
        module = importlib.import_module(f"nilseqlab.{owner}")
        for name in owned:
            scope = {}
            exec(f"from nilseqlab import {name}", scope)
            assert scope[name] is getattr(module, name), name
    with pytest.raises(AttributeError):
        nilseqlab.no_such_name
