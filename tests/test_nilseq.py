import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilseqlab import nilseq
from nilseqlab.exactnum import (
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    binom_int,
    parse_phase,
)
from nilseqlab.nilseq import (
    ArityMismatch,
    DegreeZero,
    E_ABS_ERROR,
    EXP_REL_ERROR,
    PhaseKernel,
    SequenceStream,
    Tag,
    constant,
    e_array,
    e_phase,
    exp_nonpos,
    from_function,
    furstenberg_orbit,
    heisenberg_seq,
    interleave,
    phase_block_exact,
    phase_block_fast,
    phase_sum_block,
    poly_exp,
    quadratic_seq,
    theta_kappa,
)
from nilseqlab.spectral import GPolynomial, ShiftPhaseOperator, SparseVector, decompose

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


# --------------------------------------------------------- streaming fold

def _tree_fold_reference(values):
    """tree_fold over a whole array, as one loop of pairing levels."""
    a = np.asarray(values, dtype=np.complex128)
    while a.size > 1:
        tail = a[-1:] if a.size % 2 else a[:0]
        a = np.concatenate([a[0: a.size - 1: 2] + a[1::2], tail])
    return complex(a[0]) if a.size else 0j


def _bits(z):
    return z.real.hex(), z.imag.hex()


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=140_000),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                          st.integers(min_value=-1, max_value=1)),
                min_size=1, max_size=6),
       st.sampled_from(("normal", "signed-zeros", "negative-zeros")))
def test_streaming_fold_is_tree_fold(length, seed, feeds, values):
    # feeds of 2^e - 1, 2^e and 2^e + 1 values (e = 0..15, empty feeds
    # included) and of 1, cycled: the total has tree_fold's bits, zero
    # signs too
    rng = np.random.default_rng(seed)
    sizes = [max((1 << e) + d, 0) for e, d in feeds] + [1]
    length = min(length, 200 * (max(sizes) + 1))
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    if values != "normal":
        a[rng.random(length) < (0.5 if values == "signed-zeros" else 1.0)] = -0.0
    fold = nilseq._TreeFold()
    pos = 0
    for size in itertools.cycle(sizes):
        if pos >= length:
            break
        fold.feed(a[pos: pos + size])
        pos += size
    want = _tree_fold_reference(a)
    assert _bits(fold.total()) == _bits(want)
    assert _bits(nilseq.tree_fold(a)) == _bits(want)


# --------------------------------------------------------------------- tags

def test_tag_constructors_and_str():
    assert str(Tag.nil(2)) == "Nil(step 2)"
    assert str(Tag.zero_density()) == "ZeroDensity"
    assert str(Tag.almost_nil()) == "AlmostNil"
    assert str(Tag.unknown()) == "Unknown"
    with pytest.raises(ValueError):
        Tag.nil(0)


def _zero_density_stream():
    """decompose's residual for a weak-mixing shift: ZeroDensity, one hit
    (value 1) at n = 0."""
    g = GPolynomial.make((ShiftPhaseOperator.make((1,)),),
                         (IntegralPolynomial.from_monomial([0, 1]),))
    u = SparseVector.basis(1, (0,))
    return decompose(g, u, u).residual_stream


def test_tag_addition_rules():
    a = constant(1.0)                      # Nil(1)
    q = quadratic_seq(parse_phase("g1"))   # Nil(2)
    z = _zero_density_stream()             # ZeroDensity
    u = from_function(lambda n: 0j, bound=1.0)  # Unknown

    assert z.tag == Tag.zero_density()
    assert a.add(q).tag == Tag.nil(2)
    assert z.add(z).tag == Tag.zero_density()
    assert a.add(z).tag == Tag.almost_nil(1)
    assert q.add(z).tag == Tag.almost_nil(2)
    assert a.add(u).tag == Tag.unknown()
    assert z.add(u).tag == Tag.unknown()
    # a sum's values and bound are the pointwise sums
    assert constant(2.0).add(constant(-3.0)).bound == 5.0
    got = q.add(z).evaluate_block(-30, 31)
    want = q.evaluate_block(-30, 31)
    want[30] += 1
    assert np.array_equal(got, want)


@given(st.integers(min_value=-40, max_value=10),
       st.integers(min_value=0, max_value=50))
def test_block_matches_scalar_path(start, width):
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/3"), parse_phase("g1"), parse_phase("g2 - 1/2")))
    s = poly_exp(p)
    block = s.evaluate_block(start, start + width)
    assert len(block) == width
    # the closed form e(p(n) mod 1), from the exact reduction and e_phase
    want = [e_phase(p(n).float_mod_1()) for n in range(start, start + width)]
    assert np.array_equal(block, np.array(want, dtype=np.complex128))


def test_constant_stream():
    c = constant(1.5 + 0.5j)
    assert c.tag == Tag.nil(1)
    assert c(123) == 1.5 + 0.5j
    assert list(c.evaluate_block(-2, 1)) == [1.5 + 0.5j] * 3


# ------------------------------------------------------------ phase blocks

@given(phase_polys(), st.integers(min_value=-200, max_value=200))
def test_poly_exp_matches_direct_formula(p, n):
    s = poly_exp(p)
    want = e_phase(p(n).float_mod_1())
    assert abs(s(n) - want) < 1e-12
    assert s.tag == Tag.nil(max(p.degree, 1))
    assert s.bound == 1.0


def test_poly_exp_of_a_zero_scaled_polynomial_has_step_1():
    third = parse_phase("1/3")
    s = poly_exp(PhasePolynomial.from_coeffs((parse_phase("0"), third, third)).scale(0))
    assert s.tag == Tag.nil(1)
    assert s.provenance == "poly_exp(deg=-1, exact)"


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


# The lane kernel (PhaseKernel.block on long blocks) must give the bits of
# the exact reduction at every point, including the points it cannot round
# from its fixed-point interval: exact ties, values just past an integer
# (a wrap past 1), values below 2^-11, and every lane and chunk seam.

# One denominator per case, so that D stays in its regime: below 2^53
# (the mod-D lanes), on both sides of 2^53, odd (2^128 a / D has a
# fraction) and dyadic (it has none below 2^128; at 2^54 every other
# value in [1/2, 1) is a tie); or small ones with generators, which make
# D about 10^40.
LANE_DENOMINATORS = {
    "small": (1, 2, 3, 7, 12),
    "near-2^53": (2 ** 52 + 1, 2 ** 53 - 1, 2 ** 53 + 1),
    "odd": (2 ** 61 - 1, 3 ** 40),
    "dyadic": (2 ** 54, 2 ** 64, 2 ** 70, 2 ** 130),
    "generators": (1, 2, 3, 12),
}


@st.composite
def lane_phases(draw, den, generators):
    r = PhaseScalar(Fraction(draw(st.integers(-(2 ** 70), 2 ** 70)), den))
    if not generators:
        return r
    return r + parse_phase(draw(st.sampled_from(("g1", "-g2", "3*g1 - 2*g2"))))


@st.composite
def hard_constants(draw):
    """0, a value just below 1, a dyadic, or a midpoint between two
    adjacent doubles in [2^-e, 2^(1-e)), with either parity below it."""
    # zeros and midpoints are the cases the lanes must flag: drawn twice as often
    kind = draw(st.sampled_from(("zero", "midpoint", "zero", "midpoint",
                                 "below_one", "dyadic")))
    if kind == "zero":
        return Fraction(0)
    if kind == "below_one":
        return 1 - Fraction(1, 2 ** draw(st.sampled_from((54, 60, 100))))
    if kind == "dyadic":
        return Fraction(draw(st.integers(0, 2 ** 64 - 1)), 2 ** 64)
    e = draw(st.integers(1, 13))
    k = draw(st.one_of(st.integers(0, 2 ** 52 - 1), st.just(2 ** 52 - 1)))
    return Fraction(2 ** 53 + 2 * k + 1, 2 ** (e + 53))


# (walk below, points per lane, points per chunk) with the widest block
# to draw: the shipped geometry with blocks on both sides of its
# walk/lane crossover, and small ones that put many lane and chunk seams
# into a short block
SHIPPED_LANE_GEOMETRY = (nilseq._LANE_MIN_POINTS, nilseq._LANE_WIDTH, nilseq._LANE_CHUNK)
SMALL_LANE_GEOMETRIES = st.tuples(
    st.tuples(st.integers(1, 8), st.integers(2, 16), st.integers(16, 64)), st.just(120))
LANE_GEOMETRIES = st.one_of(
    st.tuples(st.just(SHIPPED_LANE_GEOMETRY), st.just(2 * nilseq._LANE_MIN_POINTS)),
    SMALL_LANE_GEOMETRIES, SMALL_LANE_GEOMETRIES)


@st.composite
def lane_cases(draw):
    """(p, start, width, geometry) with p(n0) = A and p(n0 + t) = B for
    hard constants A, B and a dyadic gap t, and anything a random R
    makes it elsewhere: in m = n - n0,
    p = A + (B - A) m / t + (m^2 - t m) R(m)."""
    geometry, max_width = draw(LANE_GEOMETRIES)
    width = draw(st.integers(1, max_width))
    family = draw(st.sampled_from(sorted(LANE_DENOMINATORS)))
    den = draw(st.sampled_from(LANE_DENOMINATORS[family]))
    r = [draw(lane_phases(den, family == "generators"))
         for _ in range(draw(st.integers(0, 3)))]
    a, b = draw(hard_constants()), draw(hard_constants())
    t = 2 ** draw(st.integers(0, 6))
    q = [PhaseScalar(a), PhaseScalar((b - a) / t)] + [PhaseScalar.zero()] * len(r)
    for k, c in enumerate(r):
        q[k + 2] = q[k + 2] + c
        q[k + 1] = q[k + 1] + c.scale(Fraction(-t))
    n0 = draw(st.integers(-(2 ** 62), 2 ** 62))
    coeffs = [PhaseScalar.zero()] * len(q)
    for k, c in enumerate(q):
        for m in range(k + 1):
            coeffs[m] = coeffs[m] + c.scale(Fraction(math.comb(k, m) * (-n0) ** (k - m)))
    start = n0 - draw(st.integers(0, width - 1))
    return PhasePolynomial.from_coeffs(coeffs, "monomial"), start, width, geometry


@settings(max_examples=150)
@given(lane_cases())
def test_lane_kernel_is_the_exact_reduction(case):
    p, start, width, (min_points, lane_width, chunk) = case
    with mock.patch.multiple(nilseq, _LANE_MIN_POINTS=min_points,
                             _LANE_WIDTH=lane_width, _LANE_CHUNK=chunk):
        got = phase_block_exact(p, start, start + width)
    want = np.array([p(n).float_mod_1() for n in range(start, start + width)],
                    dtype=np.float64)
    assert got.shape == (width,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


TIE_CONSTANTS = {
    "zero": Fraction(0),
    "tie-to-even-above": Fraction(1, 2) + Fraction(3, 2 ** 54),
    "tie-to-even-below": Fraction(1, 2) + Fraction(1, 2 ** 54),
    "tie-in-1/8": Fraction(1, 8) + Fraction(5, 2 ** 56),
    "just-below-1": 1 - Fraction(1, 2 ** 100),
}
TIE_SLOPES = {
    "generator": "g1",
    "odd-big-D": f"1/{2 ** 61 - 1}",
    "dyadic": f"1/{2 ** 64}",  # exact anchors: the tie sits at Y itself
    "mixed": "1/3 + g2",
}


@pytest.mark.parametrize("slope", sorted(TIE_SLOPES))
@pytest.mark.parametrize("constant", sorted(TIE_CONSTANTS))
def test_lane_kernel_flags_ties_and_wraps(constant, slope):
    # p(n) = c0 + s (n - n0)^2 - s (n - n0) is exactly c0 at n0, 300
    # points into a 1000-point lane: a tie for the midpoints, an exact
    # integer for "zero" (its fixed-point value sits just below 2^128)
    s = parse_phase(TIE_SLOPES[slope])
    c0, n0 = TIE_CONSTANTS[constant], 2 ** 62 - 12345
    coeffs = (PhaseScalar(c0) + s.scale(Fraction(n0 * n0 + n0)),
              s.scale(Fraction(-1 - 2 * n0)), s)
    p = PhasePolynomial.from_coeffs(coeffs, "monomial")
    kernel = PhaseKernel(p)
    start = n0 - 300
    got = kernel.block(start, start + 1000)
    want = np.fromiter(kernel._walk(start, 1000), np.float64, 1000)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[300] == float(c0) == p(n0).float_mod_1()


def test_lane_kernel_matches_the_walk_on_weyl_linear():
    # the three 200,001-point blocks of configs/weyl_linear.json: many
    # lanes and chunks, with the shipped generator
    for h in (1, 2, 3):
        p = PhasePolynomial.from_coeffs(
            (PhaseScalar.zero(), parse_phase("g1").scale(Fraction(h))), "monomial")
        kernel = PhaseKernel(p)
        got = kernel.block(-10 ** 5, 10 ** 5 + 1)
        want = np.fromiter(kernel._walk(-10 ** 5, 200_001), np.float64, 200_001)
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


def _fast_oracle(p, start, stop):
    """phase_block_fast(p, start, stop) from its definition, in Python
    floats.  At degrees 1 and 2: anchors at n = 1 mod B (2^15 and 2^9)
    from exact forward differences of p(n) in Fractions, C(i, j) from
    math.comb, the same adds in the same order, and the same reduction
    x - floor(x).  At every other degree the exact phase, the correctly
    rounded float(p(n) mod 1)."""
    deg = p.degree
    if deg not in (1, 2):
        return [float(p(n).exact_value() % 1) for n in range(start, stop)]
    bsize = 1 << 15 if deg == 1 else 1 << 9
    out, anchor, coeffs = [], None, None
    for n in range(start, stop):
        if anchor != (a := n - (n - 1) % bsize):
            anchor = a
            vals = [p(anchor + k).exact_value() for k in range(deg + 1)]
            coeffs = []
            while vals:
                coeffs.append(float(vals[0] % 1))
                vals = [b - a for a, b in zip(vals, vals[1:])]
        i = n - anchor
        acc = math.comb(i, 1) * coeffs[1]
        acc += coeffs[0]
        for j in range(2, deg + 1):
            acc += math.comb(i, j) * coeffs[j]
        out.append(acc - math.floor(acc))
    return out


def test_phase_block_fast_pinned_bit_for_bit():
    for p, start, stop in _fast_pin_cases():
        got = phase_block_fast(p, start, stop)
        want = np.array(_fast_oracle(p, start, stop), dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
            (p.degree, start)


def test_floor_reduction_has_the_bits_of_mod():
    # the fast route reduces with x - floor(x); it must give np.mod(x, 1.0)
    # bit for bit on every finite double, signed zeros included
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).smallest_normal
    base = np.array([0.0, tiny, 3 * tiny, normal - tiny, normal, 1e-300, 1e-17,
                     0.1, 1 / 3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 1e6, 2.0 ** 31,
                     2.0 ** 51 + 0.5, 2.0 ** 52 - 0.5, 2.0 ** 52, 2.0 ** 52 + 1,
                     2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60, 1e300,
                     np.finfo(np.float64).max])
    rng = np.random.default_rng(20151022)
    exps = np.concatenate([np.arange(-1074, 1024), rng.integers(-60, 60, 20000)])
    scaled = np.ldexp(rng.uniform(1.0, 2.0, exps.size), exps)
    with np.errstate(over="ignore"):  # the neighbour of max is inf
        up = np.nextafter(base, np.inf)
    x = np.concatenate([base, up, np.nextafter(base, -np.inf), scaled])
    x = x[np.isfinite(x)]
    x = np.concatenate([x, -x])
    assert np.array_equal((x - np.floor(x)).view(np.uint64),
                          np.mod(x, 1.0).view(np.uint64))


@settings(max_examples=40)
@given(st.data())
def test_fast_phase_bits_do_not_depend_on_the_cut(data):
    # any cut of a window, and one-point blocks, have the whole window's
    # bits: the anchors are the n = 1 mod B, whatever the range
    p, start, stop = data.draw(st.sampled_from(_fast_pin_cases()))
    whole = phase_block_fast(p, start, stop)
    cuts = sorted(data.draw(st.lists(st.integers(start, stop), max_size=6)))
    bounds = [start, *cuts, stop]
    pieces = np.concatenate([phase_block_fast(p, a, b)
                             for a, b in zip(bounds, bounds[1:])])
    assert np.array_equal(pieces.view(np.uint64), whole.view(np.uint64))
    for n in data.draw(st.lists(st.integers(start, stop - 1), max_size=5)):
        one = phase_block_fast(p, n, n + 1)
        assert one.view(np.uint64)[0] == whole.view(np.uint64)[n - start]


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_poly_exp_point_is_the_block_value(precision):
    # stream(n) is the one-point block, so it has the bits of any block
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/7"), parse_phase("g1"), parse_phase("g2")))
    stream = poly_exp(p, precision)
    whole = stream.evaluate_block(-2500, 2500)
    ns = range(-2500, 2500, 76)
    points = np.array([stream(n) for n in ns])
    assert np.array_equal(points.view(np.uint64),
                          whole[::76].copy().view(np.uint64))


def test_exact_and_fast_blocks_agree():
    # each window crosses anchor blocks at degrees 1 and 2 (2^15 and 2^9
    # points); every other degree, the zero polynomial (degree -1)
    # included, takes the exact kernel, bit for bit
    coeffs = ("1/7", "g1", "g2", "g1 - 2/3", "1/3 - g2", "1/8 + 2*g1")
    for degree, start in itertools.product(
            range(-1, 6), (-3000, 10 ** 12 - 700, -(10 ** 12) - 700)):
        p = PhasePolynomial.from_coeffs([parse_phase(c) for c in coeffs[:degree + 1]])
        assert p.degree == degree
        stop = start + (40000 if degree == 1 else 6000)
        exact = phase_block_exact(p, start, stop)
        fast = phase_block_fast(p, start, stop)
        if degree in (1, 2):
            assert np.max(np.abs(exact - fast)) < 1e-10, (degree, start)
        else:
            assert np.array_equal(fast.view(np.uint64), exact.view(np.uint64)), \
                (degree, start)


def test_fast_path_selected_transparently():
    p = PhasePolynomial.from_coeffs((parse_phase("g1"), parse_phase("g2")))
    fast = poly_exp(p, precision="fast")
    exact = poly_exp(p, precision="exact")
    big_f = fast.evaluate_block(0, 2000)
    big_e = exact.evaluate_block(0, 2000)
    assert np.max(np.abs(big_f - big_e)) < 1e-9


@st.composite
def phase_sums(draw):
    """(terms, modulus, hits, start, stop) for phase_sum_block."""
    m = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                allow_infinity=False)
    terms = draw(st.lists(st.tuples(coeffs, st.integers(0, m - 1),
                                    phase_polys(max_degree=3)), max_size=4))
    # hypothesis draws mostly small integers: half the starts sit past 2^53
    far = st.sampled_from((2 ** 53, 2 ** 60, 2 ** 62 - 50, 50 - 2 ** 62))
    start = draw(st.one_of(
        st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
        st.builds(lambda a, b: a + b, far, st.integers(-50, 50))))
    stop = start + draw(st.integers(min_value=0, max_value=40))
    hits = draw(st.dictionaries(st.integers(start - 5, stop + 5), coeffs,
                                max_size=4))
    return terms, m, hits, start, stop


@given(phase_sums(), st.sampled_from(("exact", "fast")))
def test_phase_sum_block_matches_pointwise_sum(case, precision):
    terms, m, hits, start, stop = case
    got = phase_sum_block(terms, m, hits, precision)(start, stop)
    want = []
    for n in range(start, stop):
        r = n % m
        t = (n - r) // m
        want.append(sum((c * e_phase(p(t).float_mod_1())
                         for c, rc, p in terms if rc == r), 0j)
                    + hits.get(n, 0j))
    assert got.dtype == np.complex128 and got.shape == (stop - start,)
    want = np.array(want, dtype=np.complex128)
    # exact: the same phases, e(x) bits and roundings; fast: phases within
    # 1e-10, so e(.) within 2 pi 1e-10
    if precision == "exact":
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-9)


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_phase_sum_block_bits_do_not_depend_on_the_cut(precision):
    # a complex coefficient: a fused multiply-add in the product would
    # round some points differently in one-point blocks or across a cut
    c = (0.36 + 0.48j) * (0.3 + 0.7j)
    p = PhasePolynomial.from_coeffs((parse_phase("1/7"), parse_phase("g1")))
    stream = SequenceStream(phase_sum_block([(c, 0, p)], 1, {}, precision),
                            bound=abs(c),
                            tag=Tag.nil(1), provenance="modulated")
    whole = stream.evaluate_block(0, 1 << 15)
    cuts = [0, 17, 1000, 1 << 12, 30001, 1 << 15]
    pieces = np.concatenate([stream.evaluate_block(a, b)
                             for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(pieces.view(np.uint64), whole.view(np.uint64))
    one_point = np.array([stream(n) for n in range(0, 1 << 15, 7)])
    assert np.array_equal(one_point.view(np.uint64), whole[::7].copy().view(np.uint64))


def test_phase_sum_block_rejects_unknown_precision():
    with pytest.raises(ValueError):
        phase_sum_block((), 1, {}, "double")


@given(st.integers(min_value=-100, max_value=100))
def test_quadratic_seq_formula(n):
    t = parse_phase("g1")
    s = quadratic_seq(t)
    want = e_phase(t.scale(Fraction(binom_int(n, 2))).float_mod_1())
    assert abs(s(n) - want) < 1e-12
    assert s.tag == Tag.nil(2)


# ------------------------------------------------------------ theta kernel

def test_kappa_frozen_oracle_values():
    assert abs(theta_kappa(0.0, 0.0) - KAPPA_00) < 1e-12
    assert abs(theta_kappa(0.0, 0.5) - KAPPA_0_HALF) < 1e-12
    assert abs(theta_kappa(0.25, 0.0) - KAPPA_QUARTER_0) < 1e-12
    assert abs(theta_kappa(1 / 3, 0.25) - KAPPA_THIRD_QUARTER) < 1e-12
    assert abs(theta_kappa(0.5, -0.5)) < 1e-10


@pytest.mark.parametrize("eps", [0.0, -1e-12, float("nan")])
def test_kappa_rejects_nonpositive_eps(eps):
    # the truncation tail underflows to 0, so it would never drop below eps
    with pytest.raises(ValueError):
        theta_kappa(0.3, 0.2, eps)
    with pytest.raises(ValueError):
        heisenberg_seq(0.3, 0.2, eps)


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
    assert abs(w(0) - KAPPA_00) < 1e-12
    # n = 1 has no quadratic phase yet
    assert abs(w(1) - theta_kappa(alpha % 1.0, beta)) < 1e-12
    assert w.tag == Tag.nil(2)
    assert abs(w.bound - KAPPA_00) < 1e-12
    for n in (2, 3, 17, 400, 10**6 + 7):
        assert abs(w(n)) <= w.bound + 1e-12


def test_heisenberg_quadratic_phase_exact_mod_1():
    # huge n: phase reduction happens in exact rational arithmetic
    alpha, beta = 0.125, 0.375
    w = heisenberg_seq(alpha, beta)
    n = 10**9 + 3
    quad = (Fraction(n * (n - 1), 2) * Fraction(alpha) * Fraction(beta)) % 1
    want = theta_kappa((n * Fraction(alpha)) % 1, n * beta) * e_phase(float(quad))
    assert abs(w(n) - want) < 1e-12


# --------------------------------------------------------------- skew tower

@given(phase_polys(max_degree=3), st.integers(min_value=-60, max_value=60))
def test_tower_iterate_matches_closed_form(p, n):
    try:
        state, stream = furstenberg_orbit(p)
    except DegreeZero:
        assert p.degree < 1
        return
    orbit = state.iterate(n)
    assert orbit[-1] == state.closed_form(n)
    if n >= 0:
        assert state.iterate_float(n) == tuple(x.float_mod_1() for x in orbit)
    want = e_phase(state.closed_form(n).float_mod_1())
    assert abs(stream(n) - want) < 1e-12


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
    block = xi.evaluate_block(-7 * m, 6 * m)       # t = -7..5 in every class
    for r in range(m):
        for t in (-7, -1, 0, 1, 5):
            assert xi(t * m + r) == comps[r](t)
        assert np.array_equal(block[r::m], comps[r].evaluate_block(-7, 6))


@given(st.integers(min_value=-50, max_value=50))
def test_interleave_residue_indexing(n):
    m = 3
    comps = [constant(complex(r + 1)) for r in range(m)]
    xi = interleave(comps, m)
    # n = t m + r with 0 <= r < m, also for negative n
    assert xi(n) == complex(n % m + 1)


def test_interleave_block_matches_scalar():
    m = 4
    polys = [PhasePolynomial.from_coeffs((parse_phase(f"{r}/7"), parse_phase("g1")))
             for r in range(m)]
    xi = interleave([poly_exp(p) for p in polys], m)
    block = xi.evaluate_block(-13, 13)
    # the closed form at n = t m + r: e(p_r(t)) = e(r/7 + g1 t)
    want = [e_phase(polys[n % m]((n - n % m) // m).float_mod_1())
            for n in range(-13, 13)]
    assert np.array_equal(block, np.array(want, dtype=np.complex128))


def test_interleave_arity_checked():
    with pytest.raises(ArityMismatch):
        interleave([constant(1.0)], 2)


def test_interleave_tag_join():
    nil1 = constant(1.0)
    nil3 = poly_exp(PhasePolynomial.from_coeffs(
        (parse_phase("0"), parse_phase("0"), parse_phase("0"), parse_phase("g1"))))
    xi = interleave([nil1, nil3], 2)
    assert xi.tag == Tag.nil(3)
    z = _zero_density_stream()
    mixed = interleave([nil1, z], 2)
    assert mixed.tag == Tag.almost_nil(1)
    assert interleave([z, z], 2).tag == Tag.zero_density()
    assert interleave([nil3, z, nil1], 3).tag == Tag.almost_nil(3)
    assert interleave([nil3, from_function(lambda n: 0j)], 2).tag == Tag.unknown()
