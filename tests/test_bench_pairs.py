"""The paired summary of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [30.61, 30.61, 30.40, 30.60, 30.58, 30.63, 30.55, 30.62, 30.59, 30.60]
CHANGE = [29.96, 29.93, 29.86, 29.93, 29.95, 29.90, 29.97, 29.91, 29.94, 29.92]


def test_a_clear_gain_holds_the_claim():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.1)
    assert s["parent"] == pytest.approx((30.5825, 30.6, 30.6100))
    assert s["change"] == pytest.approx((29.9125, 29.93, 29.9475))
    assert s["move"] == pytest.approx(29.93 / 30.6 - 1)
    assert (s["wins"], s["pairs"], s["claim"], s["over_bound"]) == (
        10, 10, True, False)


def test_eight_wins_in_ten_fail_the_claim():
    change = CHANGE[:8] + [31.0, 31.0]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.1)
    assert (s["wins"], s["claim"]) == (8, False)


def test_a_gap_inside_the_parents_spread_fails_the_claim():
    # every pair won, but by 0.01 against a parent IQR of 0.0275
    s = bench_pairs.summarize(PARENT, [p - 0.01 for p in PARENT], "lower", 0.1)
    assert (s["wins"], s["claim"]) == (10, False)


def test_direction_and_bound_follow_the_metric():
    # a higher-is-better metric reads the same numbers the other way
    s = bench_pairs.summarize(CHANGE, PARENT, "higher", 0.01)
    assert (s["wins"], s["claim"], s["over_bound"]) == (10, True, False)
    s = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.01)
    assert (s["wins"], s["claim"], s["over_bound"]) == (0, False, True)


def test_one_pair_is_its_own_quartiles():
    assert bench_pairs.quartiles([0.05]) == (0.05, 0.05, 0.05)
    s = bench_pairs.summarize([0.05], [0.04], "lower", 0.25)
    assert (s["wins"], s["pairs"], s["claim"]) == (1, 1, True)
