"""Start-up budget: each subcommand loads only the layers it runs, and
numpy starts without an OpenBLAS worker pool, which no module of the
package calls.

Every case runs in a fresh interpreter and reads `sys.modules`, its
thread count and its environment after the run, so nothing the test
process has already imported or set leaks in.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
WATCHED = ("numpy", "mpmath", "concurrent.futures", "logging", "traceback",
           "dataclasses")
TASKS = "/proc/self/task"            # one entry per thread (Linux)

# the CLI (or only its import, with no arguments), then at exit the
# watched modules that are loaded, whether `inspect` is (numpy loads it
# itself, so only a run without numpy can keep it out), the thread count
# and the OpenBLAS thread setting
_PROBE = f"""
import json, os, sys
from nilseqlab import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({{
    "code": code,
    "loaded": [m for m in {WATCHED!r} if m in sys.modules],
    "layers": sorted(m for m in sys.modules if m.startswith("nilseqlab.")),
    "inspect": "inspect" in sys.modules,
    "threads": len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else None,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""

# every name the package root exports
EXPORTED = {
    "exactnum": (
        "DegreeBoundExceeded", "EntropyReport", "IntMatrix",
        "IntegralPolynomial", "NonClosedProduct", "NotInGL", "NotUnipotent",
        "PhasePolynomial", "PhaseScalar", "PowerPolys", "binom_int",
        "char_poly", "classify_entropy", "congruent_mod_1", "cyclotomic",
        "declare_generator", "euler_phi", "fit_phase_polynomial",
        "format_phase", "parse_phase", "reset_generators",
        "unipotent_power_polys"),
    "mobius": (
        "CorrelationReport", "LimitTooLarge", "MobiusTable",
        "UnboundedSequence", "correlate", "mertens",
        "mobius_by_factorization", "mobius_stream", "read_cache",
        "sieve_mobius", "write_cache"),
    "nilseq": (
        "ArityMismatch", "DegreeZero", "PhaseKernel", "SequenceStream",
        "SkewProductState", "Tag", "constant", "e_array", "e_phase",
        "from_function", "furstenberg_orbit", "heisenberg_seq", "interleave",
        "phase_block_exact", "phase_block_fast", "poly_exp", "quadratic_seq",
        "theta_kappa", "tree_fold"),
    "torus": (
        "Character", "CharacterSequence", "TorusPoint", "WeylReport",
        "character_seq", "orbit_point", "weyl_test"),
    "nctorus": (
        "DimensionMismatch", "NotCompatible", "NotUnitVector",
        "PhasePolyReport", "ThetaMatrix", "WeylElement", "WeylWord",
        "apply_auto", "apply_auto_inverse", "commutator_phase", "gns_apply",
        "iterate_phase_polys", "state_seq", "word_identity", "word_mul",
        "word_pow"),
    "spectral": (
        "DecompositionResult", "GPolynomial", "NotDiagonal", "SectorReport",
        "ShiftPhaseOperator", "SparseVector", "ZeroDensityCertificate",
        "compact_subspace", "decompose", "integer_solutions", "op_pow"),
}


def _probe(*argv, openblas=None):
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, cwd=REPO,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0, proc.stderr
    return probe


def _loaded(*argv):
    return set(_probe(*argv)["loaded"])


def _cli_argv(tmp_path, sub, config, *extra):
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = str(path)
    return (sub, "--config", config, "--out", str(tmp_path / "out"), *extra)


def _run(tmp_path, sub, config, *extra):
    return _loaded(*_cli_argv(tmp_path, sub, config, *extra))


def test_cli_import_loads_no_numerics():
    probe = _probe()
    assert set(probe["loaded"]) == set()
    assert not probe["inspect"]
    assert probe["openblas"] is None    # only main sets it


def test_layers_load_no_dataclasses():
    # every record derives from exactnum.Record, which generates no code
    layers = ", ".join(f"nilseqlab.{owner}" for owner in EXPORTED)
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, {layers}\n"
         f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"],
        capture_output=True, text=True, cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["numpy"]


NUMPY_RUNS = {"weyl_linear": "weyl", "correlate_quadratic": "correlate",
              "seq_torus_shear": "seq"}


@pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"no {TASKS}")
@pytest.mark.parametrize("name", sorted(NUMPY_RUNS))
def test_numpy_runs_start_no_blas_threads(name, tmp_path):
    # OpenBLAS starts its worker pool when numpy loads; no CLI value path
    # calls BLAS, so the process keeps its one thread
    probe = _probe(*_cli_argv(tmp_path, NUMPY_RUNS[name],
                              os.path.join(CONFIGS, f"{name}.json")))
    assert "numpy" in probe["loaded"]
    assert probe["threads"] == 1
    assert probe["openblas"] == "1"


def test_user_openblas_setting_wins(tmp_path):
    probe = _probe(*_cli_argv(tmp_path, "weyl",
                              os.path.join(CONFIGS, "weyl_rational.json")),
                   openblas="2")
    assert probe["openblas"] == "2"


# numpy names that call BLAS or LAPACK
BLAS_NAMES = {"linalg", "dot", "matmul", "einsum", "vdot", "inner", "tensordot"}


def test_package_calls_no_blas():
    """No value path reaches BLAS or LAPACK, so the OpenBLAS thread count
    that cli.main sets can reach no output byte."""
    pkg = os.path.join(REPO, "src", "nilseqlab")
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy") and node.attr in BLAS_NAMES:
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                if {*node.module.split("."), *(a.name for a in node.names)} & BLAS_NAMES:
                    found.append(f"{name}:{node.lineno}: from {node.module} import")
    assert found == []


@pytest.mark.parametrize("matrix, loads", [
    ([[1, 1], [0, 1]], set()),               # zero entropy: integers only
    ([[2, 1], [1, 1]], {"mpmath"}),          # positive: roots at 60 digits
])
def test_classify_loads_no_numpy(matrix, loads, tmp_path):
    probe = _probe(*_cli_argv(tmp_path, "classify",
                              {"kind": "classify", "matrix": matrix}))
    assert set(probe["loaded"]) == loads
    assert not probe["inspect"]


def test_weyl_loads_no_mpmath(tmp_path):
    probe = _probe(*_cli_argv(tmp_path, "weyl",
                              os.path.join(CONFIGS, "weyl_rational.json")))
    assert set(probe["loaded"]) == {"numpy"}
    # tree_fold lives in nilseq, so the Weyl averages load no sieve code
    assert probe["layers"] == ["nilseqlab.cli", "nilseqlab.exactnum",
                               "nilseqlab.nilseq", "nilseqlab.torus"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_correlate_loads_only_numpy_whatever_the_threads(threads, tmp_path):
    # --threads is accepted and recorded, and starts no pool
    assert _run(tmp_path, "correlate",
                os.path.join(CONFIGS, "correlate_quadratic.json"),
                "--threads", threads, "--precision", "fast") == {"numpy"}


def test_every_exported_name_still_resolves():
    import nilseqlab

    names = [n for names in EXPORTED.values() for n in names]
    assert len(names) == 86
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
