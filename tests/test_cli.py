import copy
import errno
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LARGE_ROOT_COMPANION, SQRT2

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
GOLDEN = os.path.join(CONFIGS, "golden")
# one golden tree per precision, both written by scripts/make_goldens.py
GOLDEN_TREES = {"fast": GOLDEN, "exact": os.path.join(CONFIGS, "golden_exact")}

SUBCOMMAND = {
    "classify_fibonacci": "classify",
    "classify_shear": "classify",
    "correlate_nc_shear": "correlate",
    "correlate_quadratic": "correlate",
    "decompose_heisenberg": "decompose",
    "seq_torus_shear": "seq",
    "weyl_linear": "weyl",
    "weyl_rational": "weyl",
}


# Configs that pin the CLI value paths no shipped config reaches, each
# with an exact-route golden that scripts/make_goldens.py writes
PINNED = os.path.join(REPO, "tests", "data")
PINNED_NAMES = sorted(f[:-5] for f in os.listdir(os.path.join(PINNED, "configs"))
                      if f.endswith(".json"))


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


def _assert_golden_bytes(tmp_path, name, precision, env_extra=None, label=""):
    out = str(tmp_path / f"{name}-{precision}")
    code, _, err = run_cli(SUBCOMMAND[name], "--config",
                           os.path.join(CONFIGS, f"{name}.json"),
                           "--out", out, "--precision", precision,
                           env_extra=env_extra)
    assert code == 0, err
    golden_dir = os.path.join(GOLDEN_TREES[precision], name)
    entries = sorted(os.listdir(golden_dir))
    assert entries
    for fname in entries:
        with open(os.path.join(golden_dir, fname), "rb") as f:
            want = f.read()
        with open(os.path.join(out, fname), "rb") as f:
            got = f.read()
        assert got == want, f"{label}{name}/{fname} drifted from {precision} golden"


@pytest.mark.parametrize("name", sorted(SUBCOMMAND))
def test_golden_outputs_reproduced(name, tmp_path):
    for precision in GOLDEN_TREES:
        _assert_golden_bytes(tmp_path, name, precision)


# one child runs every pinned config, so each host variant costs one start-up
_PINNED_CHILD = """
import sys
from nilseqlab import cli
args = sys.argv[1:]
codes = [cli.run(*args[i:i + 3], 1, "exact") for i in range(0, len(args), 3)]
sys.exit(max(codes))
"""


def _assert_pinned_golden_bytes(tmp_path, env_extra=None, label=""):
    args = []
    for name in PINNED_NAMES:
        config = os.path.join(PINNED, "configs", f"{name}.json")
        with open(config) as f:
            kind = json.load(f)["kind"]
        args += ["seq" if kind.endswith("-seq") else kind, config,
                 str(tmp_path / f"pinned-{name}")]
    code, _, err = _run_python("-c", _PINNED_CHILD, *args, env_extra=env_extra)
    assert code == 0, err
    for name in PINNED_NAMES:
        golden_dir = os.path.join(PINNED, "golden", name)
        entries = sorted(os.listdir(golden_dir))
        assert entries
        for fname in entries:
            with open(os.path.join(golden_dir, fname), "rb") as f:
                want = f.read()
            with open(tmp_path / f"pinned-{name}" / fname, "rb") as f:
                got = f.read()
            assert got == want, f"{label}{name}/{fname} drifted from its pinned golden"


def test_pinned_path_goldens_reproduced(tmp_path):
    assert PINNED_NAMES
    _assert_pinned_golden_bytes(tmp_path)


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


@pytest.mark.parametrize("variant", sorted(HOST_VARIANTS))
def test_goldens_independent_of_libm_and_blas_builds(variant, tmp_path):
    for name in sorted(SUBCOMMAND):
        for precision in GOLDEN_TREES:
            _assert_golden_bytes(tmp_path, name, precision,
                                 env_extra=HOST_VARIANTS[variant],
                                 label=f"{variant}: ")
    _assert_pinned_golden_bytes(tmp_path, env_extra=HOST_VARIANTS[variant],
                                label=f"{variant}: ")


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


@pytest.mark.parametrize("name", sorted(SUBCOMMAND))
def test_exact_route_agrees_with_goldens(name, tmp_path):
    # the cross-route check: the default exact route against the fast
    # route's bytes, within 1e-9
    out = str(tmp_path / name)
    code, _, err = run_cli(SUBCOMMAND[name], "--config",
                           os.path.join(CONFIGS, f"{name}.json"), "--out", out)
    assert code == 0, err
    golden_dir = os.path.join(GOLDEN, name)
    for fname in sorted(os.listdir(golden_dir)):
        got = _parsed(os.path.join(out, fname))
        want = _parsed(os.path.join(golden_dir, fname))
        assert _close(got, want), f"{name}/{fname} disagrees with golden"


def test_timings_cover_every_stage(tmp_path):
    out = str(tmp_path / "out")
    code, _, err = run_cli("weyl", "--config",
                           os.path.join(CONFIGS, "weyl_rational.json"),
                           "--out", out)
    assert code == 0, err
    timings = json.load(open(os.path.join(out, "timings.json")))
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
        a = open(os.path.join(outs[0], n), "rb").read()
        b = open(os.path.join(outs[1], n), "rb").read()
        assert a == b


def test_threads_do_not_change_results(tmp_path):
    cfg = os.path.join(CONFIGS, "correlate_nc_shear.json")
    rows = {}
    reports = {}
    for t in ("1", "4"):
        out = str(tmp_path / t)
        code, _, err = run_cli("correlate", "--config", cfg, "--out", out,
                               "--threads", t, "--precision", "fast")
        assert code == 0, err
        rows[t] = open(os.path.join(out, "correlation.csv"), "rb").read()
        reports[t] = json.load(open(os.path.join(out, "report.json")))
    assert rows["1"] == rows["4"]
    assert reports["1"]["results"] == reports["4"]["results"]


def test_report_subcommand_regenerates_plots(tmp_path):
    out = str(tmp_path / "seq")
    code, _, err = run_cli("seq", "--config",
                           os.path.join(CONFIGS, "seq_torus_shear.json"),
                           "--out", out, "--precision", "fast")
    assert code == 0, err
    values = open(os.path.join(out, "values.csv"), "rb").read()
    os.remove(os.path.join(out, "values.csv"))
    code, _, err = run_cli("report", "--config",
                           os.path.join(out, "report.json"), "--out", out)
    assert code == 0, err
    assert open(os.path.join(out, "values.csv"), "rb").read() == values


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
    assert code == 2  # argparse rejects the choice


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
    report = json.load(open(os.path.join(out, "report.json")))
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
        results.append(open(os.path.join(out, "correlation.csv"), "rb").read())
    assert os.path.exists(os.path.join(cache, "mobius_1000.bin"))
    assert results[0] == results[1]


def test_help_exits_cleanly():
    code, out, _ = run_cli("--help")
    assert code == 0
    for sub in ("classify", "seq", "decompose", "correlate", "weyl", "report"):
        assert sub in out


def test_plot_csv_shapes(tmp_path):
    out = str(tmp_path / "weyl")
    code, _, err = run_cli("weyl", "--config",
                           os.path.join(CONFIGS, "weyl_rational.json"),
                           "--out", out)
    assert code == 0, err
    lines = open(os.path.join(out, "weyl.csv")).read().splitlines()
    assert lines[0] == "harmonic,N,re_mean,im_mean,abs_mean"
    # 2 harmonics x 2 checkpoints
    assert len(lines) == 5

    out2 = str(tmp_path / "dec")
    code, _, err = run_cli("decompose", "--config",
                           os.path.join(CONFIGS, "decompose_heisenberg.json"),
                           "--out", out2, "--precision", "fast")
    assert code == 0, err
    assert os.path.exists(os.path.join(out2, "nil_terms.json"))
    res_lines = open(os.path.join(out2, "residual.csv")).read().splitlines()
    assert res_lines[0] == "n,re,im"


def test_emit_plotdata_writes_each_named_file(tmp_path):
    from nilseqlab import cli

    plot = {"terms.json": [{"a": 1}],
            "rows.csv": ("n,x", zip(range(-1, 2), [0.5, 0.1, -3.0]))}
    out = tmp_path / "out"
    assert cli.emit_plotdata({"plot": plot}, str(out)) == [
        str(out / "terms.json"), str(out / "rows.csv")]
    assert json.load(open(out / "terms.json")) == [{"a": 1}]
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
    assert (out / "values.csv").read_bytes() == open(golden, "rb").read()


def test_correlate_rejects_segment_size_key(tmp_path, capsys):
    cfg = json.load(open(os.path.join(CONFIGS, "correlate_quadratic.json")))
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
    report = json.load(open(os.path.join(out, "report.json")))
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
        cfg = json.load(open(os.path.join(CONFIGS, "decompose_heisenberg.json")))
        cfg["u"]["atoms"] = [{"id": "a", "eigenphases": ["0", "g1"],
                              part: value}]
        return "decompose", cfg
    cfg = json.load(open(os.path.join(CONFIGS, "correlate_nc_shear.json")))
    key = "element" if site == "nc-element" else "state_vector"
    cfg["sequence"][key][0][part] = value
    return "correlate", cfg


@pytest.mark.parametrize("part,value", [
    ("re", float("nan")), ("im", float("nan")), ("re", float("inf")),
    ("im", float("-inf")), ("re", 10 ** 400)],
    ids=["re-nan", "im-nan", "re-inf", "im-minus-inf", "re-1e400"])
@pytest.mark.parametrize("site", ["constant", "nc-element", "state-vector",
                                  "decompose-atom"])
def test_nonfinite_coefficients_fail_validation(site, part, value, tmp_path):
    sub, body = _with_coefficient(site, part, value)
    out = tmp_path / "out"
    assert _main(sub, write_config(tmp_path, body), out) == 2
    assert not out.exists()


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
    cert = json.load(open(out / "report.json"))["results"]["certificate"]
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
        return open(path, "rb").read()


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


# Runs argv and prints its exit code and peak RSS in KiB, from os.wait4.
# A small interpreter of its own launches the child: the kernel counts in
# a child's peak the memory of the process it was spawned from (at exec),
# which here would be the whole test process.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv, env=None):
    """Peak RSS in MB of `python -m nilseqlab.cli *argv`, which must
    exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "nilseqlab.cli",
         *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib / 1024


def _correlate_peak_mb(tmp_path, checkpoints, cache=False):
    name = f"{len(checkpoints)}-{checkpoints[-1]}"
    cfg = tmp_path / f"correlate-{name}.json"
    cfg.write_text(json.dumps({"kind": "correlate", "checkpoints": checkpoints,
                               "sequence": {"type": "constant", "re": 1.0}}))
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    if cache:
        env["NILSEQ_CACHE_DIR"] = str(tmp_path / f"cache-{name}")
    return _peak_rss_mb(["correlate", "--config", str(cfg), "--out",
                         str(tmp_path / f"out-{name}"), "--threads", "1"], env)


@pytest.mark.parametrize("cache", [True, False], ids=["cold-cache", "no-cache"])
def test_correlate_peak_memory_does_not_grow_with_n(cache, tmp_path):
    """correlate holds a few sieve blocks and summation segments, never a
    table for 1..N: ten times the points peak less than 8 MB higher."""
    small, large = (_correlate_peak_mb(tmp_path, [n], cache)
                    for n in (4 * 10 ** 5, 4 * 10 ** 6))
    assert large < small + 8, (small, large)


def test_correlate_peak_memory_does_not_grow_with_checkpoints(tmp_path):
    """A checkpoint in each of 61 segments costs correlate one partial sum,
    not the segment's products, and the sums are those of the whole
    products array: each segment total folded, then the partial segment."""
    import random

    import numpy as np

    from nilseqlab import mobius

    seg = mobius.SEGMENT
    rng = random.Random(61)
    cks = [i * seg + rng.randrange(1, seg) for i in range(61)]
    one = _correlate_peak_mb(tmp_path, cks[-1:])
    many = _correlate_peak_mb(tmp_path, cks)
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
def test_weyl_peak_memory_does_not_grow_with_n(small, large, tmp_path):
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
                                   str(tmp_path / f"out-{name}")]))
    assert peaks[1] < peaks[0] + 8, peaks


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
    assert set(json.load(open(out / "timings.json"))) == {
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
    report = json.load(open(tmp_path / "out" / "report.json"))
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
FUZZ_SEEDS = {name: json.load(open(os.path.join(CONFIGS, f"{name}.json")))
              for name in SUBCOMMAND}
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
    code = cli.main([SUBCOMMAND.get(name, "correlate"), "--config", path,
                     "--out", out, "--precision",
                     data.draw(st.sampled_from(["exact", "fast"]))])
    assert code in (0, 2, 3)
    if code == 2:
        assert not os.path.exists(out)
    if code == 3:
        with open(os.path.join(out, "report.json")) as f:
            assert json.load(f)["status"] == "error"


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
