"""End-to-end acceptance suite: one test per numbered criterion.

Each test checks the library against an independently computed oracle or
a frozen pilot value, asserts the runtime budget where one is pinned,
and prints a single summary line (visible with -s, or on failure).
"""

import json
import math
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nilseqlab.exactnum import (
    IntMatrix,
    IntegralPolynomial,
    NotUnipotent,
    PhasePolynomial,
    PhaseScalar,
    classify_entropy,
    congruent_mod_1,
    cyclotomic,
    cyclotomic_candidates,
    parse_phase,
    unipotent_power_polys,
)
from nilseqlab.mobius import (
    correlate,
    mertens,
    mobius_by_factorization,
    sieve_mobius,
    tree_fold,
)
from nilseqlab.nctorus import (
    ThetaMatrix,
    WeylElement,
    WeylWord,
    apply_auto,
    apply_auto_inverse,
    iterate_phase_polys,
    state_seq,
)
from nilseqlab.nilseq import (
    SkewProductState,
    constant,
    e_phase,
    poly_exp,
    quadratic_seq,
    theta_kappa,
)
from nilseqlab.spectral import (
    GPolynomial,
    ShiftPhaseOperator,
    SparseVector,
    decompose,
)
from nilseqlab.torus import weyl_test

REPO = Path(__file__).resolve().parent.parent

# frozen from a 50-digit mpmath evaluation of the kernel series
KAPPA_00 = 1.086434811213308

# frozen from a pilot run of this code path (precision "fast", N = 1e6)
PILOT_LIN_ABS_1E6 = 0.0007290286155184964     # xi(n) = e(n sqrt2)
PILOT_QUAD_ABS_1E6 = 0.0003630057275371913    # xi(n) = e(n^2 sqrt2)
PILOT_NC_ABS_1E3 = 0.00047999999999999996     # nc shear state sequence
PILOT_NC_ABS_1E6 = 4.8e-07


# ------------------------------------------------------------ matrix suite

def companion(coeffs):
    """Companion matrix of a monic integer polynomial, low degree first."""
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return IntMatrix.from_rows(rows)


def unimodular(dim, seed):
    """Random product of transvections and a sign flip, det = +-1."""
    rng = np.random.default_rng(seed)
    m = np.eye(dim, dtype=object)
    for _ in range(12):
        i, j = rng.integers(0, dim, size=2)
        if i == j:
            continue
        t = np.eye(dim, dtype=object)
        t[i, j] = int(rng.integers(-3, 4))
        m = m @ t
    if rng.integers(0, 2):
        m[0] = -m[0]
    return IntMatrix.from_rows([[int(v) for v in row] for row in m])


@cache
def suite_with_reports():
    mats = [IntMatrix.identity(2),
            IntMatrix.from_rows([[1, 1], [0, 1]]),
            IntMatrix.from_rows([[0, -1], [1, 0]])]
    mats += [companion(cyclotomic(k)) for k in sorted(cyclotomic_candidates(6))]
    mats.append(IntMatrix.from_rows([[2, 1], [1, 1]]))
    mats += [unimodular(3 + s % 3, s) for s in range(100)]
    return tuple((S, classify_entropy(S)) for S in mats)


def oracle_roots(S):
    """Distinct eigenvalues with multiplicities, accurate far below 1e-9.

    Independent route: characteristic coefficients from numpy (rounded to
    the exact integers), own squarefree reduction over Q, mpmath roots.
    Multiplicities come from matching plain numpy eigenvalues to the
    nearest precise root, so defective eigenvalue noise cannot leak into
    the root positions themselves.
    """
    arr = np.array(S.rows, dtype=float)
    coeffs = np.poly(arr)
    ints = [int(round(c)) for c in coeffs]
    assert max(abs(c - i) for c, i in zip(coeffs, ints)) < 1e-3

    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    def pdiv(num, den):
        num, den = list(num), list(den)
        q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
        while len(num) >= len(den) and any(num):
            if num[-1] == 0:
                num.pop()
                continue
            c = num[-1] / den[-1]
            q[len(num) - len(den)] = c
            for i, dc in enumerate(den):
                num[len(num) - len(den) + i] -= c * dc
            num.pop()
        return q, trim(num)

    p = [Fraction(c) for c in ints[::-1]]
    a, b = list(p), trim([i * c for i, c in enumerate(p)][1:])
    while len(b) > 1:
        _, r = pdiv(a, b)
        a, b = b, trim(r)
    g = a if b[0] == 0 else [Fraction(1)]
    squarefree, rem = pdiv(p, g)
    assert not any(rem)
    with mpmath.workdps(50):
        hi = [mpmath.mpf(c.numerator) / c.denominator
              for c in reversed(trim(squarefree))]
        roots = mpmath.polyroots(hi, maxsteps=200, extraprec=80)
    mult = [0] * len(roots)
    for ev in np.linalg.eigvals(arr):
        j = min(range(len(roots)), key=lambda i: abs(complex(roots[i]) - ev))
        mult[j] += 1
    return [(complex(r), m) for r, m in zip(roots, mult)]


# ------------------------------------------------------------- criterion 1

def test_criterion_1_entropy_verdicts():
    t0 = time.perf_counter()
    suite = suite_with_reports()
    zero = 0
    for S, rep in suite:
        rm = oracle_roots(S)
        oracle_zero = all(abs(r) < 1 + 1e-9 for r, _ in rm)
        assert oracle_zero == (rep.verdict == "zero"), S.rows
        if rep.verdict == "zero":
            zero += 1
            d = len(S.rows)
            diff = S ** rep.unipotence_order - IntMatrix.identity(d)
            assert (diff ** d).is_zero()
        else:
            h = sum(m * math.log(abs(r)) for r, m in rm if abs(r) > 1)
            assert abs(h - rep.entropy) < 1e-9, (S.rows, h, rep.entropy)
            assert rep.nc_lower_bound == rep.entropy / 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: {len(suite)} matrices, {zero} zero-entropy, "
          f"verdicts match the eigenvalue oracle ({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_power_polynomials_bit_exact():
    suite = suite_with_reports()
    t0 = time.perf_counter()
    pairs = 0
    for S, rep in suite:
        if rep.verdict != "zero":
            continue
        m = rep.unipotence_order
        pp = unipotent_power_polys(S, m)
        for r in range(m):
            for t in range(-20, 21):
                assert pp.evaluate(r, t) == S ** (t * m + r)
                pairs += 1
    with pytest.raises(NotUnipotent):
        unipotent_power_polys(IntMatrix.from_rows([[2, 1], [1, 1]]), 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2 PASS: {pairs} power identities bit-exact "
          f"({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 3

def test_criterion_3_phase_polynomials_match_word_iteration():
    t0 = time.perf_counter()
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    chain = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    cases = [
        (shear, ThetaMatrix.from_upper(2, {(0, 1): parse_phase("1/4")}), (0, 1)),
        (shear, ThetaMatrix.from_upper(2, {(0, 1): parse_phase("g1")}), (1, 1)),
        (rot, ThetaMatrix.from_upper(2, {(0, 1): parse_phase("1/3")}), (1, 0)),
        (rot, ThetaMatrix.from_upper(2, {(0, 1): parse_phase("g1")}), (1, 2)),
        (chain, ThetaMatrix.from_upper(3, {(1, 2): parse_phase("1/3")}), (0, 1, 2)),
        (chain, ThetaMatrix.from_upper(3, {(1, 2): parse_phase("1/3 + g1")}), (0, 1, 2)),
    ]
    rng = np.random.default_rng(20260816)
    checked = 0
    for S, theta, rho in cases:
        rep = iterate_phase_polys(S, theta, rho)
        words = {0: WeylWord.make(rho)}
        w = words[0]
        for n in range(1, 51):
            w = apply_auto(S, w, theta)
            words[n] = w
        w = words[0]
        for n in range(-1, -51, -1):
            w = apply_auto_inverse(S, w, theta)
            words[n] = w
        for r in range(rep.modulus):
            pool = [n for n in range(-50, 51) if n % rep.modulus == r]
            for n in rng.choice(pool, size=10, replace=len(pool) < 10):
                n = int(n)
                assert rep.exponents_at(n) == words[n].exponents
                assert congruent_mod_1(rep.phase_at(n), words[n].phase)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 3 PASS: {len(cases)} automorphism/theta cases, "
          f"{checked} word phases reproduced exactly ({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_decomposition_identity_and_certificate():
    t0 = time.perf_counter()
    g1 = parse_phase("g1")
    zero = PhaseScalar.zero()
    n_poly = IntegralPolynomial.from_monomial([0, 1])
    nsq_poly = IntegralPolynomial.from_monomial([0, 0, 1])
    delta0 = SparseVector.from_sites(1, {(0,): 1.0})
    delta1 = SparseVector.from_sites(1, {(1,): 1.0})
    N = 10 ** 5

    # shipped example: shift and modulated diagonal, mixing sector
    h = 0.7071067811865476
    g = GPolynomial.make(
        [ShiftPhaseOperator.make([1]),
         ShiftPhaseOperator.make([0], form=[g1])],
        [n_poly, nsq_poly])
    u = SparseVector.from_sites(1, {(0,): h, (1,): h})
    dec = decompose(g, u, u)
    cert = dec.certificate
    assert cert.kind == "finite-hits"
    cvals = dict(zip(cert.hits, cert.values))
    pair = g.pairing(u, u)
    dev = max(abs(pair(n) - (dec.nil_value(n) + cvals.get(n, 0j)))
              for n in range(-1000, 1001))
    assert dev <= 1e-12
    res = dec.residual_stream.evaluate_block(-N, N + 1)
    nonzero = set(int(i) - N for i in np.nonzero(res)[0])
    assert nonzero == set(cert.hits)
    measured = sum(abs(res[hh + N]) for hh in cert.hits) / (2 * N + 1)
    assert measured == cert.cesaro_bound(N)
    assert cert.cesaro_bound(N) <= len(cert.hits) / (2 * N + 1)

    # pure modulation, scalar phase: residual identically zero
    ga = GPolynomial.make([ShiftPhaseOperator.make([0], phase=g1)], [nsq_poly])
    da = decompose(ga, delta0, delta0)
    assert da.certificate.kind == "empty"
    assert da.certificate.cesaro_bound(N) == 0.0
    assert not np.any(da.residual_stream.evaluate_block(-1000, 1001))
    ref = poly_exp(PhasePolynomial.from_coeffs((zero, zero, g1),
                                               basis="monomial"),
                   precision="exact").evaluate_block(-1000, 1001)
    dev_a = max(abs(da.nil_value(n) - ref[n + 1000]) for n in range(-1000, 1001))
    assert dev_a <= 1e-12

    # pure modulation, linear form at a shifted site
    gb = GPolynomial.make([ShiftPhaseOperator.make([0], form=[g1])], [n_poly])
    db = decompose(gb, delta1, delta1)
    assert db.certificate.kind == "empty"
    assert not np.any(db.residual_stream.evaluate_block(-1000, 1001))
    refb = poly_exp(PhasePolynomial.from_coeffs((zero, g1), basis="monomial"),
                    precision="exact").evaluate_block(-1000, 1001)
    dev_b = max(abs(db.nil_value(n) - refb[n + 1000]) for n in range(-1000, 1001))
    assert dev_b <= 1e-12

    # cancelling shifts: compact sector with a genuinely quadratic phase
    gc = GPolynomial.make(
        [ShiftPhaseOperator.make([1], form=[g1]),
         ShiftPhaseOperator.make([-1])],
        [n_poly, n_poly])
    dc = decompose(gc, delta0, delta0)
    assert dc.certificate.kind == "empty"
    assert not np.any(dc.residual_stream.evaluate_block(-1000, 1001))
    neg = parse_phase("-1*g1")
    refc = (quadratic_seq(neg).evaluate_block(-1000, 1001)
            * poly_exp(PhasePolynomial.from_coeffs((zero, neg), basis="monomial"),
                       precision="exact").evaluate_block(-1000, 1001))
    dev_c = max(abs(dc.nil_value(n) - refc[n + 1000]) for n in range(-1000, 1001))
    assert dev_c <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 4 PASS: split holds pointwise "
          f"(max deviations {dev:.1e}, {dev_a:.1e}, {dev_b:.1e}, {dev_c:.1e}), "
          f"certificate bound exact at N={N} ({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_sieve_against_trial_division():
    t0 = time.perf_counter()
    table = sieve_mobius(10 ** 6)
    sieve_secs = time.perf_counter() - t0
    assert sieve_secs < 5.0

    oracle = mobius_by_factorization(10 ** 6)
    assert np.array_equal(oracle[1:], table.values[1:])

    mu = table.values
    acc = np.zeros(10 ** 4 + 1, dtype=np.int64)
    for d in range(1, 10 ** 4 + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert not np.any(acc[2:])

    golden = json.loads((REPO / "tests" / "data" / "mertens_golden.json").read_text())
    assert mertens(table, [10 ** 6])[0] == golden["mertens"]["1000000"]
    print(f"criterion 5 PASS: sieve matches trial division on 1..1e6 "
          f"(sieve {sieve_secs:.2f}s), divisor sums vanish, "
          f"M(1e6) = {golden['mertens']['1000000']}")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_mobius_correlations():
    t0 = time.perf_counter()
    table = sieve_mobius(10 ** 6)
    cks = [10, 100, 1000, 10 ** 4, 10 ** 6]
    rep1 = correlate(constant(1.0 + 0j), cks, table=table)
    for s, m, n in zip(rep1.sums, mertens(table, cks), cks):
        assert s.imag == 0.0
        assert s.real == m / n

    zero = PhaseScalar.zero()
    g1 = parse_phase("g1")
    lin = poly_exp(PhasePolynomial.from_coeffs((zero, g1), basis="monomial"),
                   precision="fast")
    quad = poly_exp(PhasePolynomial.from_coeffs((zero, zero, g1), basis="monomial"),
                    precision="fast")
    abs_lin = correlate(lin, [10 ** 6], table=table).abs_sums()[0]
    abs_quad = correlate(quad, [10 ** 6], table=table).abs_sums()[0]
    assert abs_lin < PILOT_LIN_ABS_1E6 + 1e-12
    assert abs_lin < 0.02
    assert abs_quad < PILOT_QUAD_ABS_1E6 + 1e-12
    assert abs_quad < 0.02

    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    theta = ThetaMatrix.from_upper(2, {(0, 1): g1})
    seq = state_seq(shear, theta, WeylElement.from_word(WeylWord.make((0, 1))),
                    SparseVector.from_sites(2, {(0, 0): 0.6, (1, 1): 0.8}),
                    precision="fast")
    nc = correlate(seq, [1000, 10 ** 6], table=table).abs_sums()
    assert abs(nc[0] - PILOT_NC_ABS_1E3) <= 1e-12
    assert nc[1] < nc[0]
    assert abs(nc[1] - PILOT_NC_ABS_1E6) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 6 PASS: S(N) = M(N)/N exact for xi = 1; "
          f"|S(1e6)| = {abs_lin:.3e} (linear), {abs_quad:.3e} (quadratic), "
          f"nc shear decays {nc[0]:.2e} -> {nc[1]:.2e} ({elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 7

def test_criterion_7_theta_kernel():
    t0 = time.perf_counter()
    assert abs(theta_kappa(0.0, 0.0) - KAPPA_00) <= 1e-12
    worst = 0.0
    for s in np.linspace(-0.9, 0.9, 10):
        for t in np.linspace(-2.0, 2.5, 10):
            lhs = theta_kappa(s, t + 1.0)
            rhs = e_phase(-s % 1.0) * theta_kappa(s, t)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 2e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 7 PASS: kappa(0,0) at 1e-12, shift identity worst "
          f"deviation {worst:.2e} on the 10x10 grid ({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_skew_tower_closed_form():
    t0 = time.perf_counter()
    state = SkewProductState(
        alpha=parse_phase("3/7"),
        points=(parse_phase("1/2"), parse_phase("2/5"), parse_phase("1/3")))
    # independent arithmetic: march the tower recurrence in Fractions mod 1
    y = [Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)]
    alpha = Fraction(3, 7)
    for n in range(0, 1001):
        cf = state.closed_form(n)
        assert not cf.irr
        assert cf.rational == y[-1], n
        y = [(y[0] + alpha) % 1] + [(y[j] + y[j - 1]) % 1 for j in range(1, 3)]
    for n in (0, 1, 7, 50, 317, 1000, -1, -13, -400):
        assert state.iterate(n)[-1] == state.closed_form(n)

    fstate = SkewProductState(
        alpha=parse_phase("g1"),
        points=(parse_phase("1/3 + g1"), parse_phase("g2"), parse_phase("1/4")))
    worst = 0.0
    for n in (1, 10, 100, 1000, 10 ** 4):
        d = abs(fstate.iterate_float(n)[-1] - fstate.closed_form(n).float_mod_1())
        worst = max(worst, min(d, 1.0 - d))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    print(f"criterion 8 PASS: rational tower exact through n=1000, float "
          f"tower within {worst:.1e} of the closed form up to n=1e4 "
          f"({elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 9

def test_criterion_9_weyl_averages():
    t0 = time.perf_counter()
    zero = PhaseScalar.zero()
    # shipped rational case: p(n) = n/3, whole periods at both checkpoints
    p = PhasePolynomial.from_coeffs((zero, parse_phase("1/3")), basis="monomial")
    rep = weyl_test(p, [1, 3], [10, 1000])
    h1, h3 = rep.harmonics
    assert h1.method == "periodic-fold" and h1.period == 3
    unit = [e_phase(float(Fraction(r, 3) % 1)) for r in range(3)]
    period_mean = tree_fold(np.array(unit, dtype=np.complex128)) / 3
    assert all(m == period_mean for m in h1.means)
    assert all(m == (1 + 0j) for m in h3.means)

    # partial periods: exact residue counts, |mean| = 1/(2N+1) exactly
    p2 = PhasePolynomial.from_coeffs((zero, parse_phase("1/2")), basis="monomial")
    rep2 = weyl_test(p2, [1], [10, 1000])
    unit2 = [e_phase(float(Fraction(r, 2) % 1)) for r in range(2)]
    for mean, N in zip(rep2.harmonics[0].means, (10, 1000)):
        counts = [((N - rho) // 2) - math.ceil((-N - rho) / 2) + 1
                  for rho in range(2)]
        s = tree_fold(np.array([c * u for c, u in zip(counts, unit2)],
                               dtype=np.complex128))
        assert mean == s / (2 * N + 1)
        assert abs(abs(mean) - 1 / (2 * N + 1)) < 1e-15

    # shipped irrational case, against the committed pilot golden file
    lin = PhasePolynomial.from_coeffs((zero, parse_phase("g1")), basis="monomial")
    wrep = weyl_test(lin, [1, 2, 3], [1000, 10 ** 5], precision="fast")
    golden = {}
    rows = (REPO / "configs" / "golden" / "weyl_linear" / "weyl.csv").read_text()
    for line in rows.strip().splitlines()[1:]:
        k, n, re, im, ab = line.split(",")
        golden[(int(k), int(n))] = complex(float(re), float(im))
    for h in wrep.harmonics:
        assert h.expect_zero and h.method == "block"
        m = h.means[1]
        assert abs(m) < 0.01
        assert abs(m - golden[(h.harmonic, 10 ** 5)]) <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"criterion 9 PASS: rational means equal the period mean exactly, "
          f"irrational |mean(1e5)| = "
          f"{', '.join(f'{abs(h.means[1]):.2e}' for h in wrep.harmonics)} "
          f"({elapsed:.1f}s)")
