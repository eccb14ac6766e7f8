"""Self-tests of the benchmark harness.

    python -m pytest bench/tests -q

They need the repository's configs/ and goldens but run no CLI child.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _generate(tmp_path, workload, seed, tag):
    config_dir = tmp_path / tag
    config_dir.mkdir()
    ops = workloads.make_plan(workload, seed, ROOT, str(config_dir))
    files = {p.name: p.read_bytes() for p in sorted(config_dir.iterdir())}
    return ops, files


@pytest.mark.parametrize("workload", ["phase-sweep", "mobius-mix"])
def test_same_seed_same_configs_other_seed_other_configs(tmp_path, workload):
    ops_a, files_a = _generate(tmp_path, workload, 7, "a")
    ops_b, files_b = _generate(tmp_path, workload, 7, "b")
    _, files_c = _generate(tmp_path, workload, 8, "c")
    assert files_a and files_a == files_b
    assert [(o.key, o.precision, o.threads) for o in ops_a] == \
        [(o.key, o.precision, o.threads) for o in ops_b]
    assert files_a.keys() == files_c.keys()
    assert files_a != files_c


def test_shipped_seed_only_permutes(tmp_path):
    a, _ = _generate(tmp_path, "shipped", 1, "a")
    b, _ = _generate(tmp_path, "shipped", 2, "b")
    assert len(a) == 16
    assert sorted(a, key=repr) == sorted(b, key=repr)
    assert a != b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_stay_inside_contract(tmp_path, workload):
    ops, _ = _generate(tmp_path, workload, 3, "a")
    assert all(op.threads in (1, 2) for op in ops)
    if workload == "mobius-mix":
        assert all(10 ** 6 <= op.limit <= 10 ** 7 for op in ops)
        assert {op.threads for op in ops} == {1, 2}
    if workload == "phase-sweep":
        assert {op.precision for op in ops} == {"exact", "fast"}
        assert max(op.limit for op in ops) < 10 ** 4


def _golden(name):
    return checks.read_outputs(os.path.join(ROOT, "configs", "golden", name))


def test_check_flags_corrupted_golden():
    golden = _golden("correlate_quadratic")
    assert checks.compare(golden, golden, exact=True) == (checks.OK, "")
    report = json.loads(golden["report.json"])
    report["results"]["sums"][0][0] += 1e-6
    bad = dict(golden, **{"report.json": json.dumps(report).encode()})
    assert checks.compare(bad, golden, exact=True)[0] == checks.WRONG
    assert checks.compare(bad, golden, exact=False)[0] == checks.WRONG
    csv = golden["correlation.csv"].replace(b"1000,", b"1001,", 1)
    bad = dict(golden, **{"correlation.csv": csv})
    assert checks.compare(bad, golden, exact=True)[0] == checks.WRONG
    missing = {k: v for k, v in golden.items() if k != "correlation.csv"}
    assert checks.compare(missing, golden, exact=True)[0] == checks.WRONG


def test_check_tells_drift_from_wrong():
    golden = _golden("weyl_linear")
    report = json.loads(golden["report.json"])
    mean = report["results"]["harmonics"][0]["means"][0]
    mean[0] = mean[0] * (1 + 1e-15)
    drifted = dict(golden, **{"report.json": json.dumps(report).encode()})
    assert checks.compare(drifted, golden, exact=True)[0] == checks.DRIFT
    assert checks.compare(drifted, golden, exact=False)[0] == checks.OK


def test_exact_run_may_differ_from_golden_only_in_route():
    golden = _golden("seq_torus_shear")
    report = json.loads(golden["report.json"])
    report["precision"] = "exact"
    report["results"]["provenance"] = report["results"]["provenance"].replace(
        "fast", "exact")
    exact = dict(golden, **{"report.json": json.dumps(report).encode()})
    assert checks.compare(exact, golden, exact=False, ignore=("precision",),
                          alias=("exact", "fast")) == (checks.OK, "")
    assert checks.compare(exact, golden, exact=False)[0] == checks.WRONG


def test_mobius_plausibility():
    def report(seq, n, s):
        return {"report.json": json.dumps({
            "config": {"sequence": seq},
            "results": {"checkpoints": [n], "sums": [[s, 0.0]]}}).encode()}

    # Q(100) = 61 squarefree numbers, M(100) = 1
    assert checks.mobius_sums_plausible(
        report({"type": "mobius"}, 100, 61 / 100))[0] == checks.OK
    assert checks.mobius_sums_plausible(
        report({"type": "mobius"}, 100, 61.5 / 100))[0] == checks.WRONG
    assert checks.mobius_sums_plausible(
        report({"type": "constant", "re": 0.5}, 100, 0.5 / 100))[0] == checks.OK
    assert checks.mobius_sums_plausible(
        report({"type": "constant", "re": 1.0}, 100, 30 / 100))[0] == checks.WRONG


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
