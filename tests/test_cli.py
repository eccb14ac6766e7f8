import copy
import errno
import importlib.util
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LARGE_ROOT_COMPANION, SQRT2

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
GOLDEN = os.path.join(CONFIGS, "golden")

# The golden driver: the code that writes every committed golden is the
# code these tests check them with
_spec = importlib.util.spec_from_file_location(
    "make_goldens", os.path.join(REPO, "scripts", "make_goldens.py"))
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)
GOLDENS = make_goldens.cli_goldens()
SHIPPED_GOLDENS = [g for g in GOLDENS if os.path.dirname(g.config) == CONFIGS]
PINNED_GOLDENS = [g for g in GOLDENS if g not in SHIPPED_GOLDENS]
SHIPPED = sorted({g.name for g in SHIPPED_GOLDENS})


def _run_python(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, env_extra=None):
    return _run_python("-m", "nilseqlab.cli", *args, env_extra=env_extra)


def write_config(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return str(path)


def _numpy_dispatch():
    """numpy's runtime-dispatched SIMD targets, space-separated."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return " ".join(__cpu_dispatch__)


# Builds of libm's sin/cos, numpy's SIMD loops and OpenBLAS kernels a host
# may select.  The goldens must not depend on them; where a variable means
# nothing on a host (another libc, another CPU family) its case is a plain
# rerun.  numpy-baseline disables every dispatched target, so each ufunc
# runs the loop built for the baseline CPU.
PLAIN_LIBM = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"}
NUMPY_BASELINE = {"NPY_DISABLE_CPU_FEATURES": _numpy_dispatch()}
OLD_BLAS = {"OPENBLAS_CORETYPE": "Nehalem"}
HOST_VARIANTS = {
    "plain-libm": PLAIN_LIBM,
    "numpy-baseline": NUMPY_BASELINE,
    "plain-libm+numpy-baseline+nehalem-blas": {**PLAIN_LIBM, **NUMPY_BASELINE, **OLD_BLAS},
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """golden_run(variant, reverse) is the root under which the driver's
    one child wrote every CLI golden, in that host variant ("default": the
    test environment as it is) and order.  All five runs start, two at a
    time, when the first test asks for one."""
    pool = ThreadPoolExecutor(2)
    runs = {}
    for key in [("default", False), ("default", True),
                *((variant, False) for variant in HOST_VARIANTS)]:
        out = str(tmp_path_factory.mktemp("goldens"))
        runs[key] = out, pool.submit(make_goldens.run_child, out,
                                     HOST_VARIANTS.get(key[0]), reverse=key[1])

    def run(variant="default", reverse=False):
        out, child = runs[variant, reverse]
        proc = child.result()
        assert proc.returncode == 0, proc.stderr
        return out
    yield run
    pool.shutdown(cancel_futures=True)


def _assert_goldens_reproduced(out, goldens, label=""):
    """Each golden directory under out holds the committed files, byte
    for byte, and no other file."""
    assert goldens
    for g in goldens:
        want_dir = os.path.join(REPO, g.dest)
        entries = sorted(os.listdir(want_dir))
        assert entries
        assert sorted(os.listdir(os.path.join(out, g.dest))) == entries, g.dest
        for fname in entries:
            with open(os.path.join(want_dir, fname), "rb") as f:
                want = f.read()
            with open(os.path.join(out, g.dest, fname), "rb") as f:
                got = f.read()
            assert got == want, f"{label}{g.dest}/{fname} drifted from its golden"


@pytest.mark.parametrize("name", SHIPPED)
def test_golden_outputs_reproduced(name, golden_run):
    # both precisions, each against its own tree
    _assert_goldens_reproduced(golden_run(),
                               [g for g in SHIPPED_GOLDENS if g.name == name])


def test_pinned_path_goldens_reproduced(golden_run):
    _assert_goldens_reproduced(golden_run(), PINNED_GOLDENS)


@pytest.mark.parametrize("variant", sorted(HOST_VARIANTS))
def test_goldens_independent_of_libm_and_blas_builds(variant, golden_run):
    _assert_goldens_reproduced(golden_run(variant), GOLDENS,
                               label=f"{variant}: ")


def test_goldens_independent_of_run_order(golden_run):
    # one process runs every golden in reverse order: no output may
    # depend on what the process ran before it
    _assert_goldens_reproduced(golden_run(reverse=True), GOLDENS,
                               label="reversed: ")


def test_driver_table_covers_every_committed_golden():
    trees = {tree for _, _, tree in make_goldens.TREES}
    committed = {os.path.join(tree, name) for tree in trees
                 for name in os.listdir(os.path.join(REPO, tree))}
    assert committed == {g.dest for g in GOLDENS}


def _close(got, want, tol=1e-9):
    """Numbers within tol, strings equal up to the route name."""
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _close(got[k], want[k], tol) for k in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            _close(a, b, tol) for a, b in zip(got, want))
    if isinstance(got, str) and isinstance(want, str):
        return got.replace("exact", "fast") == want
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return abs(got - want) <= tol
    return got == want


def _parsed(path):
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        value = json.loads(text)
        if isinstance(value, dict):
            value.pop("precision", None)
        return value
    rows = []
    for line in text.splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", SHIPPED)
def test_exact_route_agrees_with_goldens(name, golden_run):
    # the cross-route check: the default exact route against the fast
    # route's bytes, within 1e-9
    exact, = [g for g in SHIPPED_GOLDENS
              if g.name == name and g.precision == "exact"]
    out = os.path.join(golden_run(), exact.dest)
    golden_dir = os.path.join(GOLDEN, name)
    for fname in sorted(os.listdir(golden_dir)):
        got = _parsed(os.path.join(out, fname))
        want = _parsed(os.path.join(golden_dir, fname))
        assert _close(got, want), f"{name}/{fname} disagrees with golden"


@pytest.mark.parametrize("name", SHIPPED)
def test_fast_goldens_hold_the_exact_bytes(name):
    # --precision is a label: the fast tree holds the exact tree's bytes
    # in every file but report.json, which differs only in the label it
    # records, as its precision and in provenance strings
    fast_dir = os.path.join(GOLDEN, name)
    exact_dir = os.path.join(CONFIGS, "golden_exact", name)
    fnames = sorted(os.listdir(fast_dir))
    assert fnames == sorted(os.listdir(exact_dir))
    for fname in fnames:
        fast = Path(fast_dir, fname).read_bytes()
        exact = Path(exact_dir, fname).read_bytes()
        if fname != "report.json":
            assert fast == exact, f"{name}/{fname}"
            continue
        fast, exact = json.loads(fast), json.loads(exact)
        assert (fast.pop("precision"), exact.pop("precision")) == ("fast", "exact")
        assert json.dumps(fast) == json.dumps(exact).replace(", exact)", ", fast)")


def test_timings_cover_every_stage(tmp_path):
    out = str(tmp_path / "out")
    code, _, err = run_cli("weyl", "--config",
                           os.path.join(CONFIGS, "weyl_rational.json"),
                           "--out", out)
    assert code == 0, err
    timings = json.loads(Path(out, "timings.json").read_text())
    assert set(timings) == {"validate", "import", "compute", "emit"}
    assert all(v >= 0 for v in timings.values())


def test_interrupted_write_leaves_no_partial_report(tmp_path, monkeypatch):
    from nilseqlab import cli, exactnum

    cfg = os.path.join(CONFIGS, "classify_shear.json")
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == 0
    before = (out / "report.json").read_bytes()

    class HalfWrite:
        """A file that takes half the text, then fails as a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        return HalfWrite(f) if "w" in mode else f

    monkeypatch.setattr(exactnum, "open", failing_open, raising=False)
    for target in (out, tmp_path / "fresh"):
        # the failure report cannot be written either; the exit code says it
        assert cli.main(["classify", "--config", cfg, "--out", str(target)]) == 3
    assert (out / "report.json").read_bytes() == before
    assert sorted(os.listdir(out)) == ["report.json", "timings.json"]
    assert os.listdir(tmp_path / "fresh") == []


def test_reruns_byte_identical(tmp_path):
    cfg = os.path.join(CONFIGS, "correlate_quadratic.json")
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        code, _, err = run_cli("correlate", "--config", cfg, "--out", out,
                               "--precision", "fast")
        assert code == 0, err
        outs.append(out)
    names = {n for o in outs for n in os.listdir(o)} - {"timings.json"}
    assert {"report.json", "correlation.csv"} <= names
    for n in sorted(names):
        a = Path(outs[0], n).read_bytes()
        b = Path(outs[1], n).read_bytes()
        assert a == b


def test_threads_do_not_change_results(tmp_path):
    cfg = os.path.join(CONFIGS, "correlate_nc_shear.json")
    rows = {}
    reports = {}
    for t in ("1", "2", "4"):
        out = str(tmp_path / t)
        code, _, err = run_cli("correlate", "--config", cfg, "--out", out,
                               "--threads", t, "--precision", "fast")
        assert code == 0, err
        rows[t] = Path(out, "correlation.csv").read_bytes()
        reports[t] = json.loads(Path(out, "report.json").read_text())
    assert rows["1"] == rows["2"] == rows["4"]
    assert reports["1"]["results"] == reports["2"]["results"] == reports["4"]["results"]


def test_report_subcommand_regenerates_plots(tmp_path):
    out = str(tmp_path / "seq")
    code, _, err = run_cli("seq", "--config",
                           os.path.join(CONFIGS, "seq_torus_shear.json"),
                           "--out", out, "--precision", "fast")
    assert code == 0, err
    values = Path(out, "values.csv").read_bytes()
    os.remove(os.path.join(out, "values.csv"))
    code, _, err = run_cli("report", "--config",
                           os.path.join(out, "report.json"), "--out", out)
    assert code == 0, err
    assert Path(out, "values.csv").read_bytes() == values


def test_validation_failures_write_nothing(tmp_path):
    out = str(tmp_path / "out")

    def expect_2(sub, body):
        code, _, err = run_cli(sub, "--config", write_config(tmp_path, body),
                               "--out", out)
        assert code == 2, err
        assert not os.path.exists(out)
        assert json.loads(err.strip())["error"]["stage"] in ("validate", "parse", "load")

    expect_2("classify", {"kind": "classify",
                          "matrix": [[1, 1], [0, 1]], "bogus": 1})
    expect_2("classify", {"kind": "correlate"})
    expect_2("seq", {"kind": "classify", "matrix": [[1]]})
    expect_2("weyl", {"kind": "weyl",
                      "poly": {"basis": "monomial", "coeffs": ["0", "1/3"]},
                      "harmonics": [0], "checkpoints": [10]})
    expect_2("correlate", {"kind": "correlate",
                           "sequence": {"type": "mobius"},
                           "checkpoints": []})
    expect_2("correlate", {"kind": "correlate",
                           "sequence": {"type": "mobius"},
                           "checkpoints": [100, 10]})
    expect_2("seq", {"kind": "torus-seq", "matrix": [[1, 1], [0, 1]],
                     "point": ["not a phase!", "0"], "character": [1, 0],
                     "range": [0, 4]})


def test_malformed_and_missing_config(tmp_path):
    out = str(tmp_path / "out")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run_cli("classify", "--config", str(broken), "--out", out)
    assert code == 2
    assert not os.path.exists(out)
    code, _, err = run_cli("classify", "--config",
                           str(tmp_path / "missing.json"), "--out", out)
    assert code == 2
    assert not os.path.exists(out)


def test_threads_and_precision_validation(tmp_path):
    cfg = write_config(tmp_path, {"kind": "classify",
                                  "matrix": [[1, 1], [0, 1]]})
    out = str(tmp_path / "out")
    code, _, _ = run_cli("classify", "--config", cfg, "--out", out,
                         "--threads", "0")
    assert code == 2
    code, _, _ = run_cli("classify", "--config", cfg, "--out", out,
                         "--precision", "sloppy")
    assert code == 2  # the parser rejects the choice


def test_computation_failure_writes_failure_report(tmp_path):
    # a constant polynomial has no Furstenberg tower, which only the
    # computation finds out
    cfg = write_config(tmp_path, {
        "kind": "correlate",
        "sequence": {"type": "furstenberg", "poly": {"coeffs": ["1/3"]}},
        "checkpoints": [10],
    })
    out = str(tmp_path / "out")
    code, _, err = run_cli("correlate", "--config", cfg, "--out", out)
    assert code == 3
    assert json.loads(err.strip())["error"]["stage"] == "compute"
    report = json.loads(Path(out, "report.json").read_text())
    assert report["status"] == "error"
    assert report["failed_stage"] == "compute"
    assert report["error"]["type"] == "DegreeZero"
    assert os.path.exists(os.path.join(out, "timings.json"))
    # report subcommand refuses to re-emit from a failure report
    code, _, err = run_cli("report", "--config",
                           os.path.join(out, "report.json"), "--out", out)
    assert code == 3


def test_nc_incompatible_theta_fails_validation(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "nc-seq",
        "generators": {"g1": "1.414213562373095048801688724209698078570"},
        "matrix": [[0, 1], [1, 0]],
        "theta": [["0", "g1"], ["-1*g1", "0"]],
        "element": [{"exponents": [0, 1], "re": 1.0}],
        "state_vector": [{"site": [0, 0], "re": 1.0}],
        "range": [0, 4],
    })
    out = str(tmp_path / "out")
    code, _, err = run_cli("seq", "--config", cfg, "--out", out)
    assert code == 2
    assert not os.path.exists(out)


def _with_matrix(matrix):
    """One config of each kind that takes a matrix, with that matrix."""
    return {
        "matrix": ("classify", {"kind": "classify", "matrix": matrix}),
        "sequence.matrix": ("seq", {
            "kind": "torus-seq",
            "sequence": {"type": "torus", "matrix": matrix,
                         "point": ["0", "1/3"], "character": [1, 0]},
            "range": {"start": -4, "stop": 5}}),
        "sequence.S": ("seq", {
            "kind": "nc-seq",
            "sequence": {"type": "nc", "S": matrix,
                         "theta": [["0", "0"], ["0", "0"]],
                         "element": [{"exponents": [0, 1], "re": 1.0}],
                         "state_vector": [{"site": [0, 0], "re": 1.0}]},
            "range": {"start": -4, "stop": 5}}),
    }


@pytest.mark.parametrize("where", ["matrix", "sequence.matrix", "sequence.S"])
@pytest.mark.parametrize("matrix, det", [([[1, 1], [1, 1]], 0),
                                         ([[2, 0], [0, 1]], 2)])
def test_matrix_outside_gl_fails_validation(where, matrix, det, tmp_path, capsys):
    sub, body = _with_matrix(matrix)[where]
    out = tmp_path / "out"
    assert _main(sub, write_config(tmp_path, body), out) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["stage"] == "validate"
    assert err["message"].startswith(f"{where}: determinant {det},")


@pytest.mark.parametrize("sub, body", [
    ("classify", {"kind": "classify", "matrix": LARGE_ROOT_COMPANION}),
    ("seq", {"kind": "torus-seq",
             "sequence": {"type": "torus", "matrix": LARGE_ROOT_COMPANION,
                          "point": ["0"] * 7 + ["1/3"], "character": [1] + [0] * 7},
             "range": {"start": -4, "stop": 5}}),
])
def test_large_eigenvalue_matrix_runs(sub, body, tmp_path):
    out = tmp_path / "out"
    assert _main(sub, write_config(tmp_path, body), out) == 0
    assert json.loads((out / "report.json").read_text())["status"] == "ok"


def test_cache_dir_round_trip(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "correlate",
        "sequence": {"type": "mobius"},
        "checkpoints": [1000],
    })
    cache = str(tmp_path / "cache")
    results = []
    for tag in ("cold", "warm"):
        out = str(tmp_path / tag)
        code, _, err = run_cli("correlate", "--config", cfg, "--out", out,
                               env_extra={"NILSEQ_CACHE_DIR": cache})
        assert code == 0, err
        results.append(Path(out, "correlation.csv").read_bytes())
    assert os.path.exists(os.path.join(cache, "mobius_1000.bin"))
    assert results[0] == results[1]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_cleanly(flag):
    code, out, err = run_cli(flag)
    assert (code, err) == (0, "")
    assert out.startswith("usage: nilseqlab ")
    for word in ("classify", "seq", "decompose", "correlate", "weyl", "report",
                 "--config", "--out", "--threads", "--precision"):
        assert word in out
    # with descriptor 1 closed sys.stdout is None: still exit 0, silently
    proc = subprocess.run([sys.executable, "-m", "nilseqlab.cli", flag],
                          cwd=REPO, stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_options_take_equals_form_before_the_subcommand(tmp_path):
    cfg = os.path.join(CONFIGS, "classify_shear.json")
    out = tmp_path / "out"
    code, _, err = run_cli(f"--config={cfg}", f"--out={out}", "--threads=2",
                           "--precision=fast", "classify")
    assert code == 0, err
    assert sorted(os.listdir(out)) == ["report.json", "timings.json"]
    # the fast golden with --threads 1, the one recorded difference
    golden = json.loads(Path(GOLDEN, "classify_shear", "report.json").read_text())
    assert json.loads((out / "report.json").read_text()) == {**golden, "threads": 2}


# ---------------------------------------------------------------------------
# the process exit: `python -m nilseqlab.cli` ends through cli.entry, which
# flushes stdout and stderr and skips interpreter teardown; these children
# run it through pipes, as the benchmark does


@pytest.mark.parametrize("args", [
    ("bogus", "--config", "c.json"),
    ("classify", "--out", "out"),
    ("classify", "--config", "c.json", "--precision", "bogus"),
    ("classify", "--config", "c.json", "--threads", "x"),
    ("classify", "--config", "c.json", "--bogus", "1"),
    ("classify", "weyl", "--config", "c.json"),
    ("classify", "--config"),
    ("classify", "--config", "c.json", "--precision=bogus"),
    ("classify", "--config", "c.json", "--out", "--precision=fast"),
    ("classify", "--config", "-h"),
], ids=["unknown-subcommand", "missing-config", "bad-precision", "bad-threads",
        "unknown-option", "second-positional", "config-without-value",
        "bad-precision-equals", "value-is-an-option", "value-is-help"])
def test_bad_arguments_exit_2_with_usage(args):
    code, out, err = run_cli(*args)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nilseqlab "), err


@pytest.mark.parametrize("sequence, code", [
    ({"type": "mobius", "bogus": 1}, 2),
    ({"type": "furstenberg", "poly": {"coeffs": ["1/3"]}}, 3),
], ids=["validation", "compute"])
def test_failed_run_prints_one_whole_error_object(sequence, code, tmp_path):
    cfg = write_config(tmp_path, {"kind": "correlate", "sequence": sequence,
                                  "checkpoints": [10]})
    got, out, err = run_cli("correlate", "--config", cfg,
                            "--out", str(tmp_path / "out"))
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.endswith("\n"), err
    shown = json.loads(err)["error"]
    assert shown["stage"] == {2: "validate", 3: "compute"}[code]
    assert ("traceback" in shown) == (code == 3)
    if code == 3:
        assert shown["traceback"].startswith("Traceback (most recent call last)")
        assert "DegreeZero" in shown["traceback"]


# the module run as `python -m` runs it, after a buffered line on stdout and
# with a handler that teardown would run
_TEARDOWN_PROBE = """
import atexit, runpy
print("started")
atexit.register(print, "teardown ran")
runpy.run_module("nilseqlab.cli", run_name="__main__")
"""


@pytest.mark.parametrize("sequence, code, teardown", [
    ({"type": "constant"}, 0, False),
    ({"type": "constant", "bogus": 1}, 2, False),
    ({"type": "furstenberg", "poly": {"coeffs": ["1/3"]}}, 3, False),
    (None, 2, True),        # a bad argument's SystemExit takes the normal exit
], ids=["ok", "validation", "compute", "bad-arguments"])
def test_entry_skips_teardown_after_main_returns(sequence, code, teardown,
                                                 tmp_path):
    cfg = write_config(tmp_path, {"kind": "correlate", "sequence": sequence,
                                  "checkpoints": [10]})
    args = ("correlate", "--config", cfg, "--out", str(tmp_path / "out"))
    if sequence is None:
        args += ("--threads", "x")
    # stdout block-buffered, as it is by default for a pipe
    got, out, err = _run_python("-c", _TEARDOWN_PROBE, *args,
                                env_extra={"PYTHONUNBUFFERED": ""})
    assert got == code, err
    assert out == "started\n" + ("teardown ran\n" if teardown else "")
    if code == 0:
        assert os.path.isfile(tmp_path / "out" / "correlation.csv")


class _ClosedStderr:
    """sys.stderr of a process whose descriptor 2 is closed."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    flush = write


# run in a CLI child before exec: with descriptor 2 closed the interpreter
# sets sys.stderr to None; a launcher that leaves a read-only descriptor
# there (as `2>&-` through a shell-script shim can) makes writes fail
_SPOILED_STDERR = {
    "closed": lambda: os.close(2),
    "read-only": lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),
}


@pytest.mark.parametrize("sequence, code", [
    (None, 2),
    ({"type": "furstenberg", "poly": {"coeffs": ["1/3"]}}, 3),
], ids=["missing-config", "compute"])
def test_exit_codes_hold_with_stderr_closed(sequence, code, tmp_path,
                                            monkeypatch):
    from nilseqlab import cli

    cfg = str(tmp_path / "missing.json")
    if sequence is not None:
        cfg = write_config(tmp_path, {"kind": "correlate", "sequence": sequence,
                                      "checkpoints": [10]})
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    for where in (*_SPOILED_STDERR, "in-process"):
        out = tmp_path / where
        argv = ["correlate", "--config", cfg, "--out", str(out)]
        if where == "in-process":
            with monkeypatch.context() as m:
                m.setattr(sys, "stderr", _ClosedStderr())
                got = cli.main(argv)
        else:
            got = subprocess.run([sys.executable, "-m", "nilseqlab.cli", *argv],
                                 env=env, cwd=REPO, stdout=subprocess.DEVNULL,
                                 preexec_fn=_SPOILED_STDERR[where]).returncode
        assert got == code, where
        if code == 2:
            assert not out.exists()
        else:
            report = json.loads((out / "report.json").read_text())
            assert report["failed_stage"] == "compute"


def test_script_and_module_run_the_same_entry():
    # a plain string check: tomllib is not in Python 3.10
    with open(os.path.join(REPO, "pyproject.toml")) as f:
        toml = f.read()
    scripts = toml.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.count("\n") == 1, scripts
    name = scripts.removeprefix('nilseqlab = "nilseqlab.cli:').removesuffix('"\n')
    assert name.isidentifier(), scripts
    with open(os.path.join(REPO, "src", "nilseqlab", "cli.py")) as f:
        cli_source = f.read()
    assert cli_source.endswith(f'\nif __name__ == "__main__":\n    {name}()\n')


def test_plot_csv_shapes(tmp_path):
    out = str(tmp_path / "weyl")
    code, _, err = run_cli("weyl", "--config",
                           os.path.join(CONFIGS, "weyl_rational.json"),
                           "--out", out)
    assert code == 0, err
    lines = Path(out, "weyl.csv").read_text().splitlines()
    assert lines[0] == "harmonic,N,re_mean,im_mean,abs_mean"
    # 2 harmonics x 2 checkpoints
    assert len(lines) == 5

    out2 = str(tmp_path / "dec")
    code, _, err = run_cli("decompose", "--config",
                           os.path.join(CONFIGS, "decompose_heisenberg.json"),
                           "--out", out2, "--precision", "fast")
    assert code == 0, err
    assert os.path.exists(os.path.join(out2, "nil_terms.json"))
    res_lines = Path(out2, "residual.csv").read_text().splitlines()
    assert res_lines[0] == "n,re,im"


def test_emit_plotdata_writes_each_named_file(tmp_path):
    from nilseqlab import cli

    plot = {"terms.json": [{"a": 1}],
            "rows.csv": ("n,x", zip(range(-1, 2), [0.5, 0.1, -3.0]))}
    out = tmp_path / "out"
    assert cli.emit_plotdata({"plot": plot}, str(out)) == [
        str(out / "terms.json"), str(out / "rows.csv")]
    assert json.loads((out / "terms.json").read_text()) == [{"a": 1}]
    assert (out / "rows.csv").read_text() == "n,x\n-1,0.5\n0,0.1\n1,-3.0\n"
    assert cli.emit_plotdata({"plot": {}}, str(tmp_path / "none")) == []
    assert not (tmp_path / "none").exists()


def test_write_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    import numpy as np
    from nilseqlab import cli

    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "x,n", [[np.float64(0.5), 3],
                                      [np.float64(1e-300), np.int64(-2)]])
    assert path.read_text() == "x,n\n0.5,3\n1e-300,-2\n"


def test_write_csv_in_chunks_matches_one_join(tmp_path):
    from nilseqlab import cli

    rows = [(n, n / 7, -n * 1e-300) for n in range(2 * cli._CSV_CHUNK + 3)]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "n,a,b", iter(rows))
    lines = [",".join(map(str, row)) for row in rows]
    assert path.read_text() == "\n".join(["n,a,b", *lines, ""])


def test_seq_values_in_many_chunks_match_golden(tmp_path, monkeypatch):
    from nilseqlab import cli

    monkeypatch.setattr(cli, "_CSV_CHUNK", 5)    # 33 rows: 7 chunks
    out = tmp_path / "out"
    assert _main("seq", os.path.join(CONFIGS, "seq_torus_shear.json"), out,
                 "--precision", "fast") == 0
    golden = os.path.join(GOLDEN, "seq_torus_shear", "values.csv")
    assert (out / "values.csv").read_bytes() == Path(golden).read_bytes()


# every golden of a streamed sum: correlate, weyl and seq
BLOCK_GOLDENS = [g for g in GOLDENS if g.precision == "exact"
                 and g.subcommand in ("correlate", "weyl", "seq")]


@pytest.mark.parametrize("block", [3, 1000, 1 << 15])
def test_streamed_goldens_do_not_depend_on_the_block(block, tmp_path, monkeypatch):
    """nilseq.BLOCK bounds memory, never bits: with blocks of 3, 1000 or
    2^15 points, every correlate, weyl and seq golden is written byte for
    byte, so no sum depends on where its blocks are cut."""
    from nilseqlab import cli, nilseq

    monkeypatch.setattr(nilseq, "BLOCK", block)
    monkeypatch.delenv("NILSEQ_CACHE_DIR", raising=False)
    for g in BLOCK_GOLDENS:
        assert cli.main(g.argv(str(tmp_path))) == 0, g.name
        os.remove(os.path.join(tmp_path, g.dest, "timings.json"))
    _assert_goldens_reproduced(str(tmp_path), BLOCK_GOLDENS, f"BLOCK={block}: ")


def test_correlate_rejects_segment_size_key(tmp_path, capsys):
    cfg = json.loads(Path(CONFIGS, "correlate_quadratic.json").read_text())
    cfg["segment_size"] = 1 << 15
    out = tmp_path / "out"
    assert _main("correlate", write_config(tmp_path, cfg), out) == 2
    assert "unknown key 'segment_size'" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------ one exit-code boundary


def _main(sub, cfg_path, out, *extra):
    from nilseqlab import cli
    return cli.main([sub, "--config", str(cfg_path), "--out", str(out), *extra])


def _failure_report(out):
    report = json.loads(Path(out, "report.json").read_text())
    assert report["status"] == "error"
    assert os.path.exists(os.path.join(out, "timings.json"))
    return report


@pytest.mark.parametrize("seq", [
    {"type": "heisenberg", "alpha": 0.3, "beta": 0.2, "eps": 0},
    {"type": "heisenberg", "alpha": 0.3, "beta": 0.2, "eps": -1e-12},
    {"type": "heisenberg", "alpha": 0.3, "beta": 0.2, "eps": float("nan")},
    {"type": "heisenberg", "alpha": float("inf"), "beta": 0.2},
    {"type": "heisenberg", "alpha": 0.3, "beta": float("-inf")},
    {"type": "heisenberg", "alpha": 0.3, "beta": 10 ** 400},
    {"type": "heisenberg", "alpha": 0.3, "beta": 0.2, "eps": "1e-12"},
    {"type": "heisenberg", "alpha": True, "beta": 0.2},
])
def test_heisenberg_bad_numbers_fail_validation(seq, tmp_path):
    cfg = write_config(tmp_path, {"kind": "correlate", "sequence": seq,
                                  "checkpoints": [10]})
    out = tmp_path / "out"
    assert _main("correlate", cfg, out) == 2
    assert not out.exists()


def _with_coefficient(site, part, value):
    """A config whose complex coefficient at `site` has `value` as its `part`."""
    if site == "constant":
        return "correlate", {"kind": "correlate", "checkpoints": [10],
                             "sequence": {"type": "constant", part: value}}
    if site == "decompose-atom":
        cfg = json.loads(Path(CONFIGS, "decompose_heisenberg.json").read_text())
        cfg["u"]["atoms"] = [{"id": "a", "eigenphases": ["0", "g1"],
                              part: value}]
        return "decompose", cfg
    cfg = json.loads(Path(CONFIGS, "correlate_nc_shear.json").read_text())
    key = "element" if site == "nc-element" else "state_vector"
    cfg["sequence"][key][0][part] = value
    return "correlate", cfg


@pytest.mark.parametrize("part,value", [
    ("re", float("nan")), ("im", float("nan")), ("re", float("inf")),
    ("im", float("-inf")), ("re", 10 ** 400), ("re", True)],
    ids=["re-nan", "im-nan", "re-inf", "im-minus-inf", "re-1e400", "re-true"])
@pytest.mark.parametrize("site", ["constant", "nc-element", "state-vector",
                                  "decompose-atom"])
def test_nonfinite_coefficients_fail_validation(site, part, value, tmp_path):
    sub, body = _with_coefficient(site, part, value)
    out = tmp_path / "out"
    assert _main(sub, write_config(tmp_path, body), out) == 2
    assert not out.exists()


@pytest.mark.parametrize("point", ["01", {"0": 1, "1/3": 2}],
                         ids=["string", "object"])
def test_torus_point_must_be_a_list(point, tmp_path, capsys):
    """A string or an object iterates as its characters or its keys,
    which once ran as the point (0, 1)."""
    cfg = json.loads(Path(CONFIGS, "seq_torus_shear.json").read_text())
    cfg["sequence"]["point"] = point
    out = tmp_path / "out"
    assert _main("seq", write_config(tmp_path, cfg), out) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "sequence.point: expected a list of length 2")


def test_decompose_atom_with_two_eigenphase_sets_fails_validation(tmp_path,
                                                                 capsys):
    """An atom id shared by u and v is one eigenvector: eigenphases that
    differ are a config error, checked before decompose runs."""
    cfg = json.loads(Path(CONFIGS, "decompose_heisenberg.json").read_text())
    for key, phases in (("u", ["1/3", "g1"]), ("v", ["1/5", "g1"])):
        cfg[key]["atoms"] = [{"id": "a", "re": 0.5, "eigenphases": phases}]
    out = tmp_path / "out"
    assert _main("decompose", write_config(tmp_path, cfg), out) == 2
    assert not out.exists()
    shown = json.loads(capsys.readouterr().err)["error"]
    assert shown["stage"] == "validate"
    assert "atom 'a'" in shown["message"]


def _children_cpu_s():
    """CPU seconds of this process's finished children: unlike wall time,
    it does not grow when other processes load the machine."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("setting", [None, "0"], ids=["default", "unlimited"])
def test_digit_bound_does_not_depend_on_the_interpreter(setting, tmp_path,
                                                        monkeypatch):
    """A number of more than 4300 digits in a generator value or a phase
    literal fails validation under any int/str conversion limit: the
    reader checks the bound itself, before Fraction parses the number.
    In exponent notation the bound holds for the exact numerator and
    denominator, which a short text can make huge ("1e999999999" would
    be an integer of about 415 MB), and the rejection takes no longer
    than any other.  A 4000-digit generator and 1.4e10 run."""
    if setting is None:
        monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    else:
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", setting)

    def weyl(generator, coeff):
        body = {"kind": "weyl", "generators": {"g1": generator},
                "poly": {"coeffs": ["0", coeff]}, "harmonics": [1],
                "checkpoints": [10]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        return run_cli("weyl", "--config", str(path), "--out", str(out))

    out = tmp_path / "out"
    for where, generator, coeff in (
            ("generators.g1", "1." + "4" * 5000, "g1"),
            ("generators.g1", "1e999999999", "g1"),
            ("generators.g1", "1.4e5000", "g1"),
            ("generators.g1", "1.4e-5000", "g1"),
            ("poly.coeffs[1]", SQRT2, "1/" + "7" * 5000)):
        start = _children_cpu_s()
        code, _, err = weyl(generator, coeff)
        assert _children_cpu_s() - start < 1, generator
        assert code == 2, err
        assert not out.exists()
        assert json.loads(err)["error"]["message"] == (
            f"{where}: a number of more than 4300 digits")
    for generator in ("1." + "4" * 3999, "1.4e10"):
        code, _, err = weyl(generator, "g1")
        assert code == 0, err


@pytest.mark.parametrize("value, ok", [
    ("1.5e4298", True),          # 15 * 10^4297: 4299 digits
    ("1.5e4299", True),          # 4300 digits
    ("1_0e4_299", False),        # 10^4300: 4301 digits
    ("0e4300", True),
    ("0e999999999", False),      # Fraction would still build 10^999999999
    ("5e-4299", True),           # denominator 10^4299: 4300 digits
    (" -5E-4300 ", False),
    ("2/3", True),               # no exponent: the digit runs bound it
    ("1e", True),                # not a decimal: Fraction rejects it
])
def test_exponent_bound_counts_exact_digits(value, ok):
    from nilseqlab import cli

    if ok:
        cli._decimal(value, "g")
    else:
        with pytest.raises(cli.ValidationError, match="more than 4300 digits"):
            cli._decimal(value, "g")


def test_weyl_window_budget_checked_before_compute(tmp_path, monkeypatch):
    from nilseqlab import torus

    def no_compute(*args, **kwargs):
        raise AssertionError("weyl_test reached past the budget")

    monkeypatch.setattr(torus, "weyl_test", no_compute)
    for harmonics, checkpoints in (
            ([1], [10, 5 * 10 ** 6]),        # 2N + 1 = 10^7 + 1
            # each window below 10^7, 4 (8 + 9 + 9.8) 10^6 = 1.07 10^8 in all
            ([1, 2, 3, 4], [4 * 10 ** 6, 45 * 10 ** 5, 49 * 10 ** 5])):
        cfg = write_config(tmp_path, {
            "kind": "weyl", "poly": {"coeffs": ["0", "1/1000000007"]},
            "harmonics": harmonics, "checkpoints": checkpoints})
        out = tmp_path / "out"
        assert _main("weyl", cfg, out) == 2
        assert not out.exists()


@pytest.mark.parametrize("sequence", [{"type": "mobius"},
                                      {"type": "constant", "re": 1.0}])
def test_correlate_checkpoint_above_sieve_bound_fails_validation(sequence, tmp_path):
    cfg = write_config(tmp_path, {"kind": "correlate", "sequence": sequence,
                                  "checkpoints": [10, 10 ** 9 + 1]})
    out = tmp_path / "out"
    assert _main("correlate", cfg, out) == 2
    assert not out.exists()


def test_furstenberg_constant_polynomial_is_a_compute_failure(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "correlate", "checkpoints": [10],
        "sequence": {"type": "furstenberg", "poly": {"coeffs": ["1/3"]}}})
    out = tmp_path / "out"
    assert _main("correlate", cfg, out) == 3
    report = _failure_report(out)
    assert report["failed_stage"] == "compute"
    assert report["error"]["type"] == "DegreeZero"


def test_decompose_certificate_keeps_a_hit_beyond_float_precision(tmp_path):
    far = 2 ** 60 + 100       # <g(n)u, v> = 1 exactly at n = far
    cfg = write_config(tmp_path, {
        "kind": "decompose", "operators": [{"shift": [1]}], "polys": [[0, 1]],
        "u": {"sites": [{"site": [0], "re": 1.0}]},
        "v": {"sites": [{"site": [far], "re": 1.0}]}})
    out = tmp_path / "out"
    assert _main("decompose", cfg, out) == 0
    cert = json.loads((out / "report.json").read_text())["results"]["certificate"]
    assert cert["kind"] == "finite-hits"
    assert cert["hits"] == [far]
    assert (out / "residual.csv").read_text() == f"n,re,im\n{far},1.0,0.0\n"


def _old_format(blob):
    # the unchecksummed MOB1 layout: magic, u64 limit, payload
    return b"MOB1" + blob[4:12] + blob[16:]


def _other_limit(blob):
    # a valid file, but for limit 50: its header disagrees with the name
    from nilseqlab.mobius import sieve_mobius, write_cache

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mobius_50.bin")
        write_cache(sieve_mobius(50), path)
        return Path(path).read_bytes()


@pytest.mark.parametrize("spoil", [
    lambda blob: blob[:16] + bytes([blob[16] ^ 1]) + blob[17:],
    lambda blob: blob[:-3],
    _old_format,
    _other_limit,
], ids=["flipped-bit", "truncated", "old-format", "other-limit"])
def test_bad_cache_file_is_a_miss(spoil, tmp_path, monkeypatch):
    from nilseqlab.mobius import read_cache

    cache = tmp_path / "cache"
    monkeypatch.setenv("NILSEQ_CACHE_DIR", str(cache))
    cfg = write_config(tmp_path, {"kind": "correlate", "checkpoints": [100],
                                  "sequence": {"type": "mobius"}})
    assert _main("correlate", cfg, tmp_path / "cold") == 0
    path = cache / "mobius_100.bin"
    good = path.read_bytes()
    path.write_bytes(spoil(good))
    assert _main("correlate", cfg, tmp_path / "warm") == 0
    for name in ("report.json", "correlation.csv"):
        assert ((tmp_path / "warm" / name).read_bytes()
                == (tmp_path / "cold" / name).read_bytes())
    assert path.read_bytes() == good        # re-sieved and rewritten
    assert read_cache(str(path)).limit == 100
    assert os.listdir(cache) == ["mobius_100.bin"]


# not a multiple of 4 and four sieve blocks long, with checkpoints on the
# edges of summation segments (2^15 points) and sieve blocks (2^19)
STREAM_LIMIT = 3 * 2 ** 19 + 4099
STREAM_CHECKPOINTS = [1, 2 ** 15, 2 ** 15 + 1, 2 ** 19, 2 ** 19 + 1, 2 ** 20,
                      2 ** 20 + 1, 3 * 2 ** 19, STREAM_LIMIT]


@pytest.mark.parametrize("sequence", [
    {"type": "mobius"},
    {"type": "poly-exp", "poly": {"coeffs": ["1/7", "g1"]}},
], ids=["mobius", "poly-exp"])
def test_correlate_sums_do_not_depend_on_the_weight_source(sequence, tmp_path,
                                                          monkeypatch):
    from nilseqlab import cli, mobius

    cfg = write_config(tmp_path, {
        "kind": "correlate", "sequence": sequence,
        "checkpoints": STREAM_CHECKPOINTS,
        "generators": {"g1": "1.414213562373095048801688724209698078570"}})
    csvs = {}
    for threads in ("1", "2"):
        for source in ("no-cache", "cold", "warm"):
            if source == "no-cache":
                monkeypatch.delenv("NILSEQ_CACHE_DIR", raising=False)
            else:
                monkeypatch.setenv("NILSEQ_CACHE_DIR", str(tmp_path / f"cache{threads}"))
            out = tmp_path / f"{source}-{threads}"
            assert _main("correlate", cfg, out, "--threads", threads,
                         "--precision", "fast") == 0
            csvs[source, threads] = (out / "correlation.csv").read_text()
    assert len(set(csvs.values())) == 1, sorted(csvs)
    want = [(float(re), float(im)) for _, re, im, _ in
            (row.split(",") for row in csvs["cold", "1"].splitlines()[1:])]
    table = mobius.sieve_mobius(STREAM_LIMIT)
    stream = (mobius.mobius_stream(table) if sequence["type"] == "mobius"
              else cli.build_sequence(sequence, "fast"))
    for threads in (1, 2):
        rep = mobius.correlate(stream, STREAM_CHECKPOINTS, table=table,
                               threads=threads)
        assert [(s.real, s.imag) for s in rep.sums] == want


@pytest.fixture(scope="session")
def child_env(tmp_path_factory):
    """Environment of the memory guards' CLI children: bytecode is read
    from one session cache, which one child fills before any measured
    child runs.  Where PYTHONDONTWRITEBYTECODE is set, each child would
    compile every module it imports, and its peak RSS would be the
    compiler's (about 2 MB above its computation's).  The filling child
    imports every module a measured child does (mpmath for a positive
    entropy)."""
    env = dict(os.environ,
               PYTHONPYCACHEPREFIX=str(tmp_path_factory.mktemp("pycache")))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("NILSEQ_CACHE_DIR", None)
    subprocess.run([sys.executable, "-c", "import runpy, mpmath, "
                    "nilseqlab.cli, nilseqlab.mobius, nilseqlab.nctorus, "
                    "nilseqlab.torus"],
                   env=env, cwd=REPO, check=True, timeout=300)
    return env


def _child_usage(argv, env):
    """What `python -m nilseqlab.cli *argv` used, which must exit 0: the
    JSON line of scripts/child_rusage.py, which reads the child's own
    rusage from os.wait4."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "child_rusage.py"),
         sys.executable, "-m", "nilseqlab.cli", *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    usage = json.loads(proc.stdout)
    assert usage["exit"] == 0, proc.stderr
    return usage


def _peak_rss_mb(argv, env):
    """Peak RSS in MB of `python -m nilseqlab.cli *argv`, which must
    exit 0."""
    return _child_usage(argv, env)["max_rss_kib"] / 1024


def _correlate_usage(env, tmp_path, checkpoints, cache=False, threads="1"):
    """The usage of a constant-sequence correlate child, with a cold
    NILSEQ_CACHE_DIR of its own or with none."""
    name = f"{len(checkpoints)}-{checkpoints[-1]}"
    cfg = tmp_path / f"correlate-{name}.json"
    cfg.write_text(json.dumps({"kind": "correlate", "checkpoints": checkpoints,
                               "sequence": {"type": "constant", "re": 1.0}}))
    env = dict(env)
    if cache:
        env["NILSEQ_CACHE_DIR"] = str(tmp_path / f"cache-{name}")
    return _child_usage(["correlate", "--config", str(cfg), "--out",
                         str(tmp_path / f"out-{name}"), "--threads", threads], env)


def _correlate_peak_mb(env, tmp_path, checkpoints, cache=False, threads="1"):
    return _correlate_usage(env, tmp_path, checkpoints, cache,
                            threads)["max_rss_kib"] / 1024


@pytest.mark.parametrize("cache", [True, False], ids=["cold-cache", "no-cache"])
def test_cold_correlate_faults_do_not_grow_with_n(cache, tmp_path, child_env):
    """The sieve makes every block in one set of buffers, so a cold
    correlate's minor page faults do not grow with N: ten times the
    points fault at most 1500 more pages.  Temporaries made afresh for
    each 2^19-point block, and trimmed back after it, fault about 6600
    more."""
    small, large = (_correlate_usage(child_env, tmp_path, [n], cache)["minflt"]
                    for n in (4 * 10 ** 5, 4 * 10 ** 6))
    assert large <= small + 1500, (small, large)


@pytest.mark.parametrize("cache", [True, False], ids=["cold-cache", "no-cache"])
def test_correlate_peak_memory_does_not_grow_with_n(cache, tmp_path, child_env):
    """correlate holds one sieve block and one summation segment, never a
    table for 1..N: ten times the points peak less than 8 MB higher.  And
    --threads changes nothing: a cold-cache run with two threads peaks
    within 1 MB of the same run with one."""
    small, large = (_correlate_peak_mb(child_env, tmp_path, [n], cache)
                    for n in (4 * 10 ** 5, 4 * 10 ** 6))
    assert large < small + 8, (small, large)
    if cache:
        (tmp_path / "threads-2").mkdir()    # a cold cache directory of its own
        two = _correlate_peak_mb(child_env, tmp_path / "threads-2",
                                 [4 * 10 ** 6], cache, "2")
        assert two < large + 1, (large, two)


def test_cold_correlate_peak_near_the_warm_one(tmp_path, child_env):
    """A cold-cache correlate holds the sieve's buffers on top of what a
    warm one holds: one block's rows, a byte of weight sum and a byte of
    value a point, in which the block is also packed, the wheel and the
    last prime list's weights.  At 4 * 10^6 points it peaks at most 2 MB
    above the warm run of the same config.  An int32 product a point
    peaked 2.9 MB above it."""
    cold, warm = (_correlate_peak_mb(child_env, tmp_path, [4 * 10 ** 6],
                                     cache=True)
                  for _ in range(2))
    assert cold <= warm + 2.0, (cold, warm)


def test_correlate_peak_memory_does_not_grow_with_checkpoints(tmp_path,
                                                              child_env):
    """A checkpoint in each of 61 segments costs correlate one partial sum,
    not the segment's products, and the sums are those of the whole
    products array: each segment total folded, then the partial segment."""
    import random

    import numpy as np

    from nilseqlab import mobius

    seg = mobius.SEGMENT
    rng = random.Random(61)
    cks = [i * seg + rng.randrange(1, seg) for i in range(61)]
    one = _correlate_peak_mb(child_env, tmp_path, cks[-1:])
    many = _correlate_peak_mb(child_env, tmp_path, cks)
    assert many < one + 8, (one, many)

    n = cks[-1]
    prods = np.full(n, 1 + 0j) * mobius.sieve_mobius(n).values[1:]
    totals = [mobius.tree_fold(prods[lo: lo + seg]) for lo in range(0, n, seg)]
    want = []
    for k in cks:
        full = (k - 1) // seg
        s = mobius.tree_fold(np.array(totals[:full], dtype=np.complex128))
        s += mobius.tree_fold(prods[full * seg: k])
        want.append(s / k)
    rows = (tmp_path / f"out-61-{n}" / "correlation.csv").read_text().splitlines()
    assert [complex(float(re), float(im)) for _, re, im, _ in
            (row.split(",") for row in rows[1:])] == want


@pytest.mark.parametrize("small, large", [
    ((["1/7", "g1"], 10 ** 5), (["1/7", "g1"], 10 ** 6)),
    ((["0", "0", "1/99991"], 60000), (["0", "0", "1/999983"], 600000)),
], ids=["block", "periodic"])
def test_weyl_peak_memory_does_not_grow_with_n(small, large, tmp_path,
                                               child_env):
    """weyl evaluates its window or its period a piece at a time: a
    window of 2 * 10^6 points against one of 2 * 10^5, and a period of
    999983 against one of 99991, peak less than 8 MB higher."""
    peaks = []
    for name, (coeffs, N) in (("small", small), ("large", large)):
        cfg = tmp_path / f"weyl-{name}.json"
        cfg.write_text(json.dumps({
            "kind": "weyl", "generators": {"g1": SQRT2},
            "poly": {"basis": "monomial", "coeffs": coeffs},
            "harmonics": [1], "checkpoints": [N]}))
        peaks.append(_peak_rss_mb(["weyl", "--config", str(cfg), "--out",
                                   str(tmp_path / f"out-{name}")], child_env))
    assert peaks[1] < peaks[0] + 8, peaks


def test_weyl_faults_do_not_grow_with_n(tmp_path, child_env):
    """weyl evaluates nilseq.BLOCK points at a time, and e(x) works in
    rows its stream makes once, so its minor page faults do not grow with
    the window: two harmonics over 4 * 10^6 window points fault at most
    1500 more pages than over 4 * 10^5.  Pieces of 2^15 points, with
    e(x)'s scratch made afresh a call, faulted 32.5k against 7.9k."""
    faults = []
    for N in (2 * 10 ** 5, 2 * 10 ** 6):
        cfg = tmp_path / f"weyl-{N}.json"
        cfg.write_text(json.dumps({
            "kind": "weyl", "generators": {"g1": SQRT2},
            "poly": {"basis": "monomial", "coeffs": ["1/7", "g1"]},
            "harmonics": [1, 2], "checkpoints": [1000, N]}))
        faults.append(_child_usage(["weyl", "--config", str(cfg), "--out",
                                    str(tmp_path / f"out-{N}")],
                                   child_env)["minflt"])
    assert faults[1] <= faults[0] + 1500, faults


def test_seq_peak_memory_does_not_grow_with_the_range(tmp_path, child_env):
    """seq evaluates and writes one CSV chunk at a time, never the whole
    range: ten times the points peak less than 8 MB higher."""
    peaks = []
    for n in (10 ** 5, 10 ** 6):
        cfg = json.loads(Path(CONFIGS, "seq_torus_shear.json").read_text())
        cfg["range"] = {"start": -n // 2, "stop": n // 2}
        peaks.append(_peak_rss_mb(["seq", "--config", write_config(tmp_path, cfg),
                                   "--out", str(tmp_path / f"out-{n}")],
                                  child_env))
    assert peaks[1] < peaks[0] + 8, peaks


def test_positive_entropy_nc_peak_memory_does_not_grow_with_n(tmp_path,
                                                             child_env):
    """A positive-entropy nc stream holds one orbit word a term, stepped
    from the last n read, never every word from 0 to n: seq_nc_cat's
    sequence over n in [0, 4000) peaks at most 3 MB higher than over
    [0, 1000).  A cache of every word grew about 18 MB."""
    peaks = []
    for n in (1000, 4000):
        cfg = json.loads(Path(REPO, "tests", "data", "configs",
                              "seq_nc_cat.json").read_text())
        cfg["range"] = {"start": 0, "stop": n}
        peaks.append(_peak_rss_mb(["seq", "--config", write_config(tmp_path, cfg),
                                   "--out", str(tmp_path / f"out-{n}")],
                                  child_env))
    assert peaks[1] <= peaks[0] + 3, peaks


@pytest.mark.parametrize("exc, code", [
    (MemoryError, 3), (ZeroDivisionError, 3), (KeyError, 3),
    (KeyboardInterrupt, None), (SystemExit, None)])
def test_every_exception_maps_to_one_exit_code(exc, code, tmp_path,
                                               monkeypatch, capsys):
    from nilseqlab import torus

    def boom(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(torus, "weyl_test", boom)
    cfg = os.path.join(CONFIGS, "weyl_rational.json")
    out = tmp_path / "out"
    if code is None:                    # not caught: the user asked to stop
        with pytest.raises(exc):
            _main("weyl", cfg, out)
        assert not out.exists()
        return
    assert _main("weyl", cfg, out) == code
    shown = json.loads(capsys.readouterr().err)["error"]
    assert (shown["stage"], shown["type"]) == ("compute", exc.__name__)
    assert "in boom" in shown["traceback"]
    report = _failure_report(out)
    assert report["failed_stage"] == "compute"
    assert report["error"]["type"] == exc.__name__
    assert report["results"] is None


def test_emit_failure_writes_failure_report(tmp_path, monkeypatch):
    from nilseqlab import cli

    def full_disk(report, out_dir):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "emit_plotdata", full_disk)
    out = tmp_path / "out"
    assert _main("weyl", os.path.join(CONFIGS, "weyl_rational.json"), out) == 3
    report = _failure_report(out)
    assert report["failed_stage"] == "emit"
    assert report["error"]["type"] == "OSError"
    assert set(json.loads((out / "timings.json").read_text())) == {
        "validate", "import", "compute", "emit"}


def test_seq_reads_its_config_once(tmp_path, monkeypatch):
    from nilseqlab import cli

    cfg = os.path.join(CONFIGS, "seq_torus_shear.json")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert _main("seq", cfg, tmp_path / "out", "--precision", "fast") == 0
    assert opened.count(cfg) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kind"] == "torus-seq"


def test_report_subcommand_takes_a_directory(tmp_path):
    out = tmp_path / "out"
    assert _main("weyl", os.path.join(CONFIGS, "weyl_rational.json"), out) == 0
    csv = (out / "weyl.csv").read_bytes()
    report = (out / "report.json").read_bytes()
    (out / "weyl.csv").unlink()
    assert _main("report", out, out) == 0
    assert (out / "weyl.csv").read_bytes() == csv
    assert (out / "report.json").read_bytes() == report
    # a stored failure report is refused and left as it is
    failed = json.loads(report)
    failed.update(status="error", failed_stage="compute")
    (out / "report.json").write_text(json.dumps(failed))
    assert _main("report", out / "report.json", out) == 3
    assert json.loads((out / "report.json").read_text()) == failed


# ------------------------------------------------ contract fuzz

# each shipped config plus sequence types no shipped config uses; sizes
# are drawn below, so none of them needs much memory or time
FUZZ_SEEDS = {name: json.loads(Path(CONFIGS, f"{name}.json").read_text())
              for name in SHIPPED}
FUZZ_SEEDS.update({
    f"correlate_{t}": {"kind": "correlate", "checkpoints": [100],
                       "generators": {"g1": "1.4142135623730950488"},
                       "sequence": seq}
    for t, seq in {
        "heisenberg": {"type": "heisenberg", "alpha": 0.3, "beta": 0.2,
                       "eps": 1e-9},
        "furstenberg": {"type": "furstenberg", "poly": {"coeffs": ["0", "g1"]}},
        "mobius": {"type": "mobius"},
        "constant": {"type": "constant", "re": 0.5},
    }.items()})
# no shipped config has decompose atoms
FUZZ_SEEDS["decompose_atoms"] = {
    **FUZZ_SEEDS["decompose_heisenberg"],
    "u": {"sites": [{"site": [0], "re": 0.6}],
          "atoms": [{"id": "a", "re": 0.8, "eigenphases": ["1/3", "g1"]}]},
    "v": {"sites": [{"site": [0], "re": 0.6}],
          "atoms": [{"id": "a", "im": 0.8, "eigenphases": ["1/3", "g1"]}]}}
FUZZ_LEAVES = st.sampled_from([
    None, True, 0, -1, 3, 10 ** 4, 0.5, float("nan"), float("inf"),
    float("-inf"), "", "1/3", "g1", "x", [], [1], [[1, 1], [0, 1]], {},
    {"re": 1.0}]).map(copy.deepcopy)    # mutations must not reach the pool
FUZZ_SIZES = {
    key: st.sampled_from(sizes).map(copy.deepcopy)
    for key, sizes in {
        "checkpoints": [[], [0], [1], [10, 100], [100, 10 ** 4]],
        "range": [{"start": -16, "stop": 17}, {"start": 0, "stop": 10 ** 4}],
    }.items()}


def _paths(obj, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(cfg, data):
    op = data.draw(st.sampled_from(["drop", "add", "swap", "top"]))
    if op == "top":
        return data.draw(FUZZ_LEAVES.filter(lambda v: not isinstance(v, dict)))
    if op == "add":
        parents = [p for p in _paths(cfg) if isinstance(_at(cfg, p), dict)]
    else:
        parents = [p[:-1] for p in _paths(cfg) if p]
    if not parents:
        return cfg
    parent = _at(cfg, data.draw(st.sampled_from(parents)))
    keys = list(parent) if isinstance(parent, dict) else range(len(parent))
    if op == "add":
        key = data.draw(st.sampled_from(
            ["bogus", "eps", "segment_size", "basis", "re", "generators"]))
    elif keys:
        key = data.draw(st.sampled_from(list(keys)))
    else:
        return cfg
    if op == "drop":
        del parent[key]
    else:
        parent[key] = data.draw(FUZZ_LEAVES)
    return cfg


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@settings(max_examples=200)
@given(data=st.data())
def test_exit_code_contract_under_config_mutations(data, tmp_path,
                                                   monkeypatch):
    from nilseqlab import cli

    monkeypatch.delenv("NILSEQ_CACHE_DIR", raising=False)
    name = data.draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    cfg = copy.deepcopy(FUZZ_SEEDS[name])
    for key, sizes in FUZZ_SIZES.items():
        if key in cfg:
            cfg[key] = data.draw(sizes)
    for _ in range(data.draw(st.integers(0, 3))):
        cfg = _mutate(cfg, data)
    work = tempfile.mkdtemp(dir=tmp_path)
    path = os.path.join(work, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    out = os.path.join(work, "out")
    subcommand = make_goldens.SUBCOMMAND[FUZZ_SEEDS[name]["kind"]]
    code = cli.main([subcommand, "--config", path,
                     "--out", out, "--precision",
                     data.draw(st.sampled_from(["exact", "fast"]))])
    assert code in (0, 2, 3)
    if code == 2:
        assert not os.path.exists(out)
    if code == 3:
        with open(os.path.join(out, "report.json")) as f:
            assert json.load(f)["status"] == "error"


@pytest.mark.parametrize("name, path, value", [
    pytest.param(name, path, value,
                 id=f"{name}-{'.'.join(map(str, path))}-{type(value).__name__}")
    for name, cfg in sorted(FUZZ_SEEDS.items())
    for path in _paths(cfg) if isinstance(_at(cfg, path), list)
    for value in ("01", {"0": 1})])
def test_every_config_list_rejects_a_string_or_an_object(name, path, value,
                                                         tmp_path, monkeypatch):
    """Each position that holds a list in a config must hold a list: a
    string or an object there fails validation, whatever the position."""
    from nilseqlab import cli

    monkeypatch.delenv("NILSEQ_CACHE_DIR", raising=False)
    cfg = copy.deepcopy(FUZZ_SEEDS[name])
    _at(cfg, path[:-1])[path[-1]] = copy.deepcopy(value)
    out = tmp_path / "out"
    assert cli.main([make_goldens.SUBCOMMAND[cfg["kind"]], "--config",
                     write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_exit_codes_do_not_depend_on_earlier_runs(tmp_path):
    """Each run declares only its own config's generators, so a second
    run in the same process exits as it would in a fresh one."""
    with open(os.path.join(CONFIGS, "weyl_linear.json")) as f:
        linear = json.load(f)
    rational_g1 = dict(linear, generators={"g1": "1.5"})
    undeclared = {k: v for k, v in linear.items() if k != "generators"}
    codes = []
    for i, pair in enumerate([(rational_g1, linear), (linear, undeclared)]):
        for j, cfg in enumerate(pair):
            path = tmp_path / f"config{i}{j}.json"
            path.write_text(json.dumps(cfg))
            codes.append(_main("weyl", path, tmp_path / f"out{i}{j}"))
    assert codes == [0, 0, 0, 2]        # the exit codes of fresh processes
