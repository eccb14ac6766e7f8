import cmath
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilseqlab.exactnum import PhasePolynomial, PhaseScalar, binom_int, parse_phase
from nilseqlab.nilseq import (
    ArityMismatch,
    DegreeZero,
    E_ABS_ERROR,
    EXP_REL_ERROR,
    SequenceStream,
    Tag,
    constant,
    deinterleave,
    e_array,
    e_phase,
    exp_nonpos,
    from_function,
    furstenberg_orbit,
    heisenberg_seq,
    indicator,
    interleave,
    phase_block_exact,
    phase_block_fast,
    poly_exp,
    quadratic_seq,
    theta_kappa,
)

# 50-digit series oracle values, frozen
KAPPA_00 = 1.086434811213308
KAPPA_0_HALF = 0.9135791381561168
KAPPA_QUARTER_0 = 0.9999930253152876
KAPPA_THIRD_QUARTER = 0.7325909244652877 - 0.1414841747390007j

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def phases(draw):
    r = draw(rationals)
    parts = []
    for g in ("g1", "g2"):
        c = draw(rationals)
        if c:
            parts.append((g, c))
    return PhaseScalar(Fraction(r), tuple(parts))


@st.composite
def phase_polys(draw, max_degree=4):
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    return PhasePolynomial.from_coeffs(tuple(draw(phases()) for _ in range(deg + 1)))


def test_e_phase_quarter_turns():
    assert e_phase(0.0) == 1.0 + 0j
    assert abs(e_phase(0.5) - (-1.0)) < 1e-15
    assert abs(e_phase(0.25) - 1j) < 1e-15
    assert abs(e_phase(1.0) - 1.0) < 1e-15


# ------------------------------------------------------------- e(x) kernel

def _kernel_pin_arguments() -> np.ndarray:
    """About 1e4 hard cases for e(x), built with exact-by-IEEE float steps
    and Python's version-stable random(), so the inputs are the same bits
    on every platform."""
    xs = []
    # multiples of 1/8 (the octant and quadrant boundaries) +- tiny offsets
    for k in range(-64, 65):
        for d in (0.0, 2.0 ** -60, 2.0 ** -53, 1e-17, 2.0 ** -40, 1e-12):
            xs += [k / 8 + d, k / 8 - d]
    # the first ulps on both sides of each boundary in [0, 1]
    for k in range(9):
        up = down = k / 8
        for _ in range(8):
            up, down = math.nextafter(up, 2.0), math.nextafter(down, -1.0)
            xs += [up, down]
    # unreduced arguments: theta_kappa passes k * s, and huge magnitudes
    xs += [k * 0.7071067811865476 for k in range(-200, 201)]
    for e in range(8, 64, 2):
        xs += [2.0 ** e + 0.375, -(2.0 ** e) - 0.1, 2.0 ** e / 3]
    rng = random.Random(20151021)
    xs += [rng.random() for _ in range(6000)]
    xs += [rng.uniform(-1e6, 1e6) for _ in range(1500)]
    return np.array(xs, dtype=np.float64)


# SHA-256 of e_array(_kernel_pin_arguments()) as little-endian complex128
E_KERNEL_DIGEST = "c324cdaa55e0538a6c6ffe4f042f66e69b1ad3f2be1ddedc50c1df6d6a677a7d"


def test_e_kernel_pinned_bit_for_bit():
    xs = _kernel_pin_arguments()
    assert 9000 <= len(xs) <= 11000
    got = e_array(xs)
    digest = hashlib.sha256(got.astype("<c16").tobytes()).hexdigest()
    assert digest == E_KERNEL_DIGEST, (
        "e(x) kernel output bits changed on this platform or by an edit")


def test_e_kernel_error_bound_against_mpmath():
    xs = _kernel_pin_arguments()[::3]
    got = e_array(xs)
    worst = 0.0
    with mpmath.workprec(160):
        for x, z in zip(xs.tolist(), got.tolist()):
            two_x = 2 * mpmath.mpf(x)
            worst = max(worst,
                        abs(float(mpmath.mpf(z.real) - mpmath.cospi(two_x))),
                        abs(float(mpmath.mpf(z.imag) - mpmath.sinpi(two_x))))
    assert worst <= E_ABS_ERROR


def test_e_phase_is_the_array_kernel():
    xs = _kernel_pin_arguments()
    scalar = np.array([e_phase(x) for x in xs.tolist()], dtype=np.complex128)
    assert np.array_equal(scalar.view(np.uint64), e_array(xs).view(np.uint64))


# --------------------------------------------------------------------- tags

def test_tag_constructors_and_str():
    assert str(Tag.nil(2)) == "Nil(step 2)"
    assert str(Tag.zero_density()) == "ZeroDensity"
    assert str(Tag.almost_nil()) == "AlmostNil"
    assert str(Tag.unknown()) == "Unknown"
    with pytest.raises(ValueError):
        Tag.nil(0)


def test_tag_addition_rules():
    a = constant(1.0)                      # Nil(1)
    q = quadratic_seq(parse_phase("g1"))   # Nil(2)
    z = indicator()                        # ZeroDensity
    u = from_function(lambda n: 0j, bound=1.0)  # Unknown

    assert a.add(q).tag == Tag.nil(2)
    assert z.add(z).tag == Tag.zero_density()
    assert a.add(z).tag == Tag.almost_nil(1)
    assert q.add(z).tag == Tag.almost_nil(2)
    assert a.add(u).tag == Tag.unknown()
    assert z.add(u).tag == Tag.unknown()


def test_tag_multiplication_rules():
    a = constant(1.0)
    q = quadratic_seq(parse_phase("g1"))
    z = indicator()
    u = from_function(lambda n: 0j, bound=1.0)

    assert a.mul(q).tag == Tag.nil(2)
    # zero-density absorbs any bounded factor, even unknown
    assert z.mul(a).tag == Tag.zero_density()
    assert z.mul(u).tag == Tag.zero_density()
    assert a.mul(u).tag == Tag.unknown()
    assert q.add(z).mul(q).tag == Tag.almost_nil(2)


# ------------------------------------------------------------ stream algebra

@given(st.integers(min_value=-30, max_value=30))
def test_stream_pointwise_ops(n):
    a = quadratic_seq(parse_phase("g1"))
    b = constant(0.5 - 0.25j)
    assert a.add(b).evaluate(n) == a.evaluate(n) + b.evaluate(n)
    assert a.mul(b).evaluate(n) == a.evaluate(n) * b.evaluate(n)
    assert a.conj().evaluate(n) == a.evaluate(n).conjugate()
    assert a.shift(7).evaluate(n) == a.evaluate(n + 7)
    assert a.scale(2j).evaluate(n) == 2j * a.evaluate(n)


def test_stream_bounds_compose():
    a = constant(2.0)
    b = constant(-3.0)
    assert a.add(b).bound == 5.0
    assert a.mul(b).bound == 6.0
    assert a.scale(2j).bound == 4.0
    assert a.conj().bound == 2.0


@given(st.integers(min_value=-40, max_value=10),
       st.integers(min_value=0, max_value=50))
def test_block_matches_scalar_path(start, width):
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/3"), parse_phase("g1"), parse_phase("g2 - 1/2")))
    s = poly_exp(p)
    block = s.evaluate_block(start, start + width)
    assert len(block) == width
    for i, n in enumerate(range(start, start + width)):
        assert abs(block[i] - s.evaluate(n)) < 1e-12


def test_constant_and_indicator_streams():
    c = constant(1.5 + 0.5j)
    assert c.tag == Tag.nil(1)
    assert c.evaluate(123) == 1.5 + 0.5j
    ind = indicator(at=3, value=-2.0)
    assert ind.tag == Tag.zero_density()
    assert ind.evaluate(3) == -2.0 + 0j
    assert ind.evaluate(2) == 0j
    assert list(ind.evaluate_block(2, 5)) == [0j, -2.0 + 0j, 0j]


# ------------------------------------------------------------ phase blocks

@given(phase_polys(), st.integers(min_value=-200, max_value=200))
def test_poly_exp_matches_direct_formula(p, n):
    s = poly_exp(p)
    want = e_phase(p(n).float_mod_1())
    assert abs(s.evaluate(n) - want) < 1e-12
    assert s.tag == Tag.nil(max(p.degree, 1))
    assert s.bound == 1.0


@given(phase_polys(max_degree=5), st.sampled_from(("binomial", "monomial")),
       st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=-3, max_value=40))
def test_phase_block_exact_is_the_exact_reduction(p, basis, start, width):
    if basis == "monomial":
        p = PhasePolynomial.from_coeffs(p.coeffs, basis="monomial")
    got = phase_block_exact(p, start, start + width)
    want = np.array([p(n).float_mod_1() for n in range(start, start + width)],
                    dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (max(width, 0),)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _fast_pin_cases():
    """Seeded polynomials of degree 0-5 in both bases, at starts up to
    1e12, plus one degree-1 range longer than a fast block."""
    rng = random.Random(20151022)
    cases = []
    for deg in range(6):
        for basis in ("binomial", "monomial"):
            coeffs = []
            for _ in range(deg + 1):
                parts = ((g, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                         for g in ("g1", "g2") if rng.random() < 0.6)
                coeffs.append(PhaseScalar(
                    Fraction(rng.randint(-50, 50), rng.randint(1, 60)),
                    tuple((g, c) for g, c in parts if c)))
            start = rng.choice((0, -1500, 10 ** 6 + 3, -(10 ** 9), 10 ** 12))
            cases.append((PhasePolynomial.from_coeffs(coeffs, basis),
                          start, start + 1500))
    line = PhasePolynomial.from_coeffs((parse_phase("1/7"), parse_phase("g1")))
    cases.append((line, -1000, (1 << 18) + 1000))
    return cases


# SHA-256 of phase_block_fast over _fast_pin_cases() as little-endian
# float64, recorded with block anchors from PhaseScalar evaluation: the
# kernel's anchors must give the same bits
FAST_PHASE_DIGEST = "b90c65085240ace68bb780e715ecc3527a9507d35d765feb880a3a4365cde10f"


def test_phase_block_fast_pinned_bit_for_bit():
    h = hashlib.sha256()
    for p, start, stop in _fast_pin_cases():
        h.update(phase_block_fast(p, start, stop).astype("<f8").tobytes())
    assert h.hexdigest() == FAST_PHASE_DIGEST


def test_exact_and_fast_blocks_agree():
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/7"), parse_phase("g1"), parse_phase("g2"),
         parse_phase("g1 - 2/3")))
    exact = phase_block_exact(p, -3000, 3000)
    fast = phase_block_fast(p, -3000, 3000)
    assert np.max(np.abs(exact - fast)) < 1e-10


def test_fast_path_selected_transparently():
    p = PhasePolynomial.from_coeffs((parse_phase("g1"), parse_phase("g2")))
    fast = poly_exp(p, precision="fast")
    exact = poly_exp(p, precision="exact")
    big_f = fast.evaluate_block(0, 2000)
    big_e = exact.evaluate_block(0, 2000)
    assert np.max(np.abs(big_f - big_e)) < 1e-9


@given(st.integers(min_value=-100, max_value=100))
def test_quadratic_seq_formula(n):
    t = parse_phase("g1")
    s = quadratic_seq(t)
    want = e_phase(t.scale(Fraction(binom_int(n, 2))).float_mod_1())
    assert abs(s.evaluate(n) - want) < 1e-12
    assert s.tag == Tag.nil(2)


# ------------------------------------------------------------ theta kernel

def test_kappa_frozen_oracle_values():
    assert abs(theta_kappa(0.0, 0.0) - KAPPA_00) < 1e-12
    assert abs(theta_kappa(0.0, 0.5) - KAPPA_0_HALF) < 1e-12
    assert abs(theta_kappa(0.25, 0.0) - KAPPA_QUARTER_0) < 1e-12
    assert abs(theta_kappa(1 / 3, 0.25) - KAPPA_THIRD_QUARTER) < 1e-12
    assert abs(theta_kappa(0.5, -0.5)) < 1e-10


def test_kappa_truncation_stable():
    # the default cutoff already puts the dropped tail below eps
    for s, t in ((0.3, 0.7), (0.0, 0.0), (0.9, -2.4)):
        assert abs(theta_kappa(s, t, 1e-12) - theta_kappa(s, t, 1e-18)) < 1e-12


@given(st.floats(min_value=-1, max_value=1, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_kappa_shift_identity(s, t):
    lhs = theta_kappa(s, t + 1.0)
    rhs = e_phase(-s) * theta_kappa(s, t)
    assert abs(lhs - rhs) < 2e-12


def test_kappa_integer_periodicity_in_s():
    for s, t in ((0.2, 0.4), (0.75, -1.2)):
        assert abs(theta_kappa(s + 1.0, t) - theta_kappa(s, t)) < 2e-12


def _exp_arguments() -> list[float]:
    """Seeded arguments for exp_nonpos: the whole normal range, the
    reduction boundaries (odd multiples of ln 2 / 2) and the Gaussian
    weights theta_kappa asks for."""
    rng = random.Random(20151023)
    xs = [0.0, -0.0, -1e-300, -2.0 ** -60, -708.0, -745.0, -746.5, -1e300]
    xs += [-k * 0.34657359027997264 + d for k in range(1, 200, 2)
           for d in (0.0, 2.0 ** -40, -(2.0 ** -40))]
    xs += [-math.pi * y * y for y in (rng.uniform(0, 8) for _ in range(2000))]
    xs += [-rng.uniform(0, 708) for _ in range(2000)]
    return xs


def _kappa_arguments() -> list[tuple[float, float]]:
    rng = random.Random(20151024)
    return [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(500)]


# SHA-256 of exp_nonpos(_exp_arguments()) followed by theta_kappa over
# _kappa_arguments(), as little-endian float64 and complex128
THETA_DIGEST = "15860687487fac52c708690cef6d4474a0f2662185e4d0aff8f84755c4a0938e"


def test_theta_weights_pinned_bit_for_bit():
    exps = np.array([exp_nonpos(x) for x in _exp_arguments()], dtype="<f8")
    kappas = np.array([theta_kappa(s, t) for s, t in _kappa_arguments()],
                      dtype="<c16")
    digest = hashlib.sha256(exps.tobytes() + kappas.tobytes()).hexdigest()
    assert digest == THETA_DIGEST, (
        "exp or theta-kernel output bits changed on this platform or by an edit")


def test_exp_nonpos_error_bound_against_mpmath():
    worst = 0.0
    with mpmath.workprec(160):
        for x in _exp_arguments():
            if x < -708:
                continue
            want = mpmath.exp(mpmath.mpf(x))
            worst = max(worst, abs(float((mpmath.mpf(exp_nonpos(x)) - want) / want)))
    assert worst <= EXP_REL_ERROR
    assert exp_nonpos(0.0) == 1.0 and exp_nonpos(-746.5) == 0.0


def test_heisenberg_values():
    alpha, beta = math.sqrt(2) - 1, math.sqrt(3) - 1
    w = heisenberg_seq(alpha, beta)
    assert abs(w.evaluate(0) - KAPPA_00) < 1e-12
    # n = 1 has no quadratic phase yet
    assert abs(w.evaluate(1) - theta_kappa(alpha % 1.0, beta)) < 1e-12
    assert w.tag == Tag.nil(2)
    assert abs(w.bound - KAPPA_00) < 1e-12
    for n in (2, 3, 17, 400, 10**6 + 7):
        assert abs(w.evaluate(n)) <= w.bound + 1e-12


def test_heisenberg_quadratic_phase_exact_mod_1():
    # huge n: phase reduction happens in exact rational arithmetic
    alpha, beta = 0.125, 0.375
    w = heisenberg_seq(alpha, beta)
    n = 10**9 + 3
    quad = (Fraction(n * (n - 1), 2) * Fraction(alpha) * Fraction(beta)) % 1
    want = theta_kappa((n * Fraction(alpha)) % 1, n * beta) * e_phase(float(quad))
    assert abs(w.evaluate(n) - want) < 1e-12


# --------------------------------------------------------------- skew tower

@given(phase_polys(max_degree=3), st.integers(min_value=-60, max_value=60))
def test_tower_iterate_matches_closed_form(p, n):
    try:
        state, stream = furstenberg_orbit(p)
    except DegreeZero:
        assert p.to_binomial().degree < 1
        return
    orbit = state.iterate(n)
    assert orbit[-1] == state.closed_form(n)
    if n >= 0:
        assert state.iterate_float(n) == tuple(x.float_mod_1() for x in orbit)
    want = e_phase(state.closed_form(n).float_mod_1())
    assert abs(stream.evaluate(n) - want) < 1e-12


def test_tower_shape():
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/5"), parse_phase("1/7"), parse_phase("g1")))
    state, stream = furstenberg_orbit(p)
    assert state.dim == 2
    assert state.alpha == parse_phase("g1")
    assert state.points == (parse_phase("1/7"), parse_phase("1/5"))
    assert stream.tag == Tag.nil(2)


def test_furstenberg_rejects_constants():
    with pytest.raises(DegreeZero):
        furstenberg_orbit(PhasePolynomial.constant(parse_phase("g1")))


def test_iterate_float_tracks_exact_orbit():
    p = PhasePolynomial.from_coeffs(
        (parse_phase("0"), parse_phase("1/3"), parse_phase("g1")))
    state, _ = furstenberg_orbit(p)
    for n in (0, 1, 7, 2000):
        got = state.iterate_float(n)
        want = tuple(x.float_mod_1() for x in state.iterate(n))
        assert got == want


def test_iterate_float_forward_only():
    p = PhasePolynomial.from_coeffs((parse_phase("0"), parse_phase("g1")))
    state, _ = furstenberg_orbit(p)
    with pytest.raises(ValueError):
        state.iterate_float(-1)


# ------------------------------------------------------------- interleaving

@given(st.integers(min_value=1, max_value=5), st.data())
def test_interleave_deinterleave_round_trip(m, data):
    comps = []
    for r in range(m):
        t = data.draw(phases())
        comps.append(poly_exp(PhasePolynomial.from_coeffs((t, parse_phase("g1")))))
    xi = interleave(comps, m)
    back = deinterleave(xi, m)
    for r in range(m):
        for t in (-7, -1, 0, 1, 5):
            assert back[r].evaluate(t) == comps[r].evaluate(t)


@given(st.integers(min_value=-50, max_value=50))
def test_interleave_residue_indexing(n):
    m = 3
    comps = [constant(complex(r + 1)) for r in range(m)]
    xi = interleave(comps, m)
    # n = t m + r with 0 <= r < m, also for negative n
    assert xi.evaluate(n) == complex(n % m + 1)


def test_interleave_block_matches_scalar():
    m = 4
    comps = [poly_exp(PhasePolynomial.from_coeffs(
        (parse_phase(f"{r}/7"), parse_phase("g1")))) for r in range(m)]
    xi = interleave(comps, m)
    block = xi.evaluate_block(-13, 13)
    for i, n in enumerate(range(-13, 13)):
        assert abs(block[i] - xi.evaluate(n)) < 1e-12


def test_interleave_arity_checked():
    with pytest.raises(ArityMismatch):
        interleave([constant(1.0)], 2)


def test_interleave_tag_join():
    nil1 = constant(1.0)
    nil3 = poly_exp(PhasePolynomial.from_coeffs(
        (parse_phase("0"), parse_phase("0"), parse_phase("0"), parse_phase("g1"))))
    xi = interleave([nil1, nil3], 2)
    assert xi.tag == Tag.nil(3)
    mixed = interleave([nil1, indicator()], 2)
    assert mixed.tag == Tag.almost_nil(1)
