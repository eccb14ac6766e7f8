import errno
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
GOLDEN = os.path.join(CONFIGS, "golden")

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


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("NILSEQ_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "nilseqlab.cli", *args],
        capture_output=True, text=True, env=env, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def write_config(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.mark.parametrize("name", sorted(SUBCOMMAND))
def test_golden_outputs_reproduced(name, tmp_path):
    out = str(tmp_path / name)
    code, _, err = run_cli(SUBCOMMAND[name], "--config",
                           os.path.join(CONFIGS, f"{name}.json"),
                           "--out", out, "--precision", "fast")
    assert code == 0, err
    golden_dir = os.path.join(GOLDEN, name)
    entries = sorted(os.listdir(golden_dir))
    assert entries
    for fname in entries:
        with open(os.path.join(golden_dir, fname), "rb") as f:
            want = f.read()
        with open(os.path.join(out, fname), "rb") as f:
            got = f.read()
        assert got == want, f"{name}/{fname} drifted from golden"


# Builds of libm's sin/cos and OpenBLAS kernels a host may select.  The
# goldens must not depend on them; where a variable means nothing on a
# host (another libc, another CPU family) its case is a plain rerun.
PLAIN_LIBM = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"}
OLD_BLAS = {"OPENBLAS_CORETYPE": "Nehalem"}
HOST_VARIANTS = {
    "default": {},
    "plain-libm": PLAIN_LIBM,
    "nehalem-blas": OLD_BLAS,
    "plain-libm+nehalem-blas": {**PLAIN_LIBM, **OLD_BLAS},
}


@pytest.mark.parametrize("variant", sorted(HOST_VARIANTS))
def test_goldens_independent_of_libm_and_blas_builds(variant, tmp_path):
    for name in sorted(SUBCOMMAND):
        out = str(tmp_path / name)
        code, _, err = run_cli(SUBCOMMAND[name], "--config",
                               os.path.join(CONFIGS, f"{name}.json"),
                               "--out", out, "--precision", "fast",
                               env_extra=HOST_VARIANTS[variant])
        assert code == 0, err
        golden_dir = os.path.join(GOLDEN, name)
        for fname in sorted(os.listdir(golden_dir)):
            with open(os.path.join(golden_dir, fname), "rb") as f:
                want = f.read()
            with open(os.path.join(out, fname), "rb") as f:
                got = f.read()
            assert got == want, f"{variant}: {name}/{fname} drifted from golden"


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
    # the default precision; the goldens hold the fast route's bytes
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
    assert set(timings) == {"validate", "compute", "emit"}
    assert all(v >= 0 for v in timings.values())


def test_interrupted_write_leaves_no_partial_report(tmp_path, monkeypatch):
    from nilseqlab import cli

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

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    for target in (out, tmp_path / "fresh"):
        with pytest.raises(OSError):
            cli.main(["classify", "--config", cfg, "--out", str(target)])
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
    cfg = write_config(tmp_path, {
        "kind": "correlate",
        "sequence": {"type": "mobius"},
        "checkpoints": [2 * 10**9],
    })
    out = str(tmp_path / "out")
    code, _, err = run_cli("correlate", "--config", cfg, "--out", out)
    assert code == 3
    assert json.loads(err.strip())["error"]["stage"] == "compute"
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["status"] == "error"
    assert report["failed_stage"] == "compute"
    assert report["error"]["type"] == "LimitTooLarge"
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
