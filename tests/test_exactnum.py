import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import LARGE_ROOT_COMPANION
from nilseqlab.exactnum import (
    DegreeBoundExceeded,
    EntropyReport,
    IntegralPolynomial,
    IntMatrix,
    NonClosedProduct,
    NotInGL,
    NotUnipotent,
    PhasePolynomial,
    PhaseScalar,
    Record,
    binom_int,
    char_poly,
    classify_entropy,
    congruent_mod_1,
    cyclotomic,
    cyclotomic_candidates,
    declare_generator,
    euler_phi,
    fit_phase_polynomial,
    format_phase,
    parse_phase,
    replace,
    unipotent_power_polys,
)

small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def int_matrices(dim):
    return st.lists(
        st.lists(small_ints, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim,
    ).map(IntMatrix.from_rows)


def unimodular(dim, seed):
    """Random product of transvections and sign flips, det = +-1."""
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


# ---------------------------------------------------------------- binomials

def test_binom_small_values():
    assert binom_int(5, 2) == 10
    assert binom_int(0, 0) == 1
    assert binom_int(3, 5) == 0
    assert binom_int(-1, 1) == -1
    assert binom_int(-2, 3) == -4


@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=1, max_value=8))
def test_binom_pascal_identity(n, k):
    assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)


# ----------------------------------------------------------------- matrices

@given(st.integers(min_value=1, max_value=5), st.data())
def test_det_matches_numpy(dim, data):
    m = data.draw(int_matrices(dim))
    arr = np.array(m.rows, dtype=float)
    assert m.det() == round(np.linalg.det(arr))


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6))
def test_inverse_round_trip(dim, seed):
    m = unimodular(dim, seed)
    assert (m @ m.inverse()).is_identity()
    assert (m.inverse() @ m).is_identity()


def test_non_invertible_rejected():
    with pytest.raises(NotInGL):
        IntMatrix.from_rows([[1, 1], [1, 1]]).inverse()
    with pytest.raises(NotInGL):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse()


@given(st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=-6, max_value=6))
def test_integer_powers(dim, seed, n):
    m = unimodular(dim, seed)
    direct = IntMatrix.identity(dim)
    step = m if n >= 0 else m.inverse()
    for _ in range(abs(n)):
        direct = direct @ step
    assert m ** n == direct


@given(st.integers(min_value=2, max_value=4), st.data())
def test_apply_matches_matmul(dim, data):
    m = data.draw(int_matrices(dim))
    x = tuple(data.draw(small_ints) for _ in range(dim))
    expected = tuple(sum(m.rows[i][j] * x[j] for j in range(dim))
                     for i in range(dim))
    assert m.apply(x) == expected


# -------------------------------------------------------- integer polynomials

@given(st.lists(small_ints, min_size=0, max_size=5))
def test_monomial_round_trip(coeffs):
    p = IntegralPolynomial.from_monomial(coeffs)
    mono = p.monomial_coefficients()
    q = sum((Fraction(c) * Fraction(t) ** i for i, c in enumerate(coeffs)
             for t in [3]), Fraction(0))
    assert sum(c * Fraction(3) ** i for i, c in enumerate(mono)) == q


@given(st.lists(small_ints, min_size=1, max_size=5),
       st.integers(min_value=-40, max_value=40))
def test_binomial_basis_integrality(coeffs, t):
    p = IntegralPolynomial.from_binomial(coeffs)
    expected = sum(c * binom_int(t, k) for k, c in enumerate(coeffs))
    assert p(t) == expected


@given(st.lists(small_ints, min_size=1, max_size=4),
       st.lists(small_ints, min_size=1, max_size=4),
       st.integers(min_value=-15, max_value=15))
def test_poly_ring_ops(a, b, t):
    p = IntegralPolynomial.from_binomial(a)
    q = IntegralPolynomial.from_binomial(b)
    assert (p + q)(t) == p(t) + q(t)
    assert (p - q)(t) == p(t) - q(t)
    assert (p * q)(t) == p(t) * q(t)
    assert p.scale(3)(t) == 3 * p(t)


def test_zero_poly_degree():
    assert IntegralPolynomial.from_binomial([]).degree == -1
    assert IntegralPolynomial.from_binomial([0, 0]).degree == -1
    assert IntegralPolynomial.constant(7).degree == 0


def test_from_values_interpolates():
    p = IntegralPolynomial.from_values([0, 1, 4, 9])
    for t in range(-5, 10):
        assert p(t) == t * t


# ----------------------------------------------------------- char polynomials

@given(st.integers(min_value=1, max_value=5), st.data())
def test_char_poly_matches_numpy(dim, data):
    m = data.draw(int_matrices(dim))
    got = char_poly(m).monomial_coefficients()  # low degree first
    want = np.poly(np.array(m.rows, dtype=float))  # high degree first
    assert len(got) == dim + 1
    for c, w in zip(got, reversed(want)):
        assert abs(c - w) < 1e-6


@given(st.integers(min_value=2, max_value=3), st.data())
def test_cayley_hamilton(dim, data):
    m = data.draw(int_matrices(dim))
    coeffs = char_poly(m).monomial_coefficients()  # low degree first
    acc = IntMatrix.from_rows([[0] * dim for _ in range(dim)])
    power = IntMatrix.identity(dim)
    for c in coeffs:
        acc = acc + power.scale(int(c))
        power = power @ m
    assert acc.is_zero()


# ------------------------------------------------------------ cyclotomics

def test_cyclotomic_small_table():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@given(st.integers(min_value=1, max_value=30))
def test_cyclotomic_product_over_divisors(n):
    # prod_{k | n} Phi_k(x) = x^n - 1
    prod = IntegralPolynomial.from_monomial([1])
    for k in range(1, n + 1):
        if n % k == 0:
            prod = prod * IntegralPolynomial.from_monomial(cyclotomic(k))
    want = [-1 if i == 0 else (1 if i == n else 0) for i in range(n + 1)]
    assert list(prod.monomial_coefficients()) == [Fraction(w) for w in want]


def test_euler_phi_values():
    table = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 12: 4, 18: 6, 36: 12}
    for n, v in table.items():
        assert euler_phi(n) == v


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_euler_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_cyclotomic_candidates_sets():
    assert set(cyclotomic_candidates(2)) == {1, 2, 3, 4, 6}
    assert set(cyclotomic_candidates(6)) == {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18}


# ------------------------------------------------------- entropy classifier

def test_shear_is_zero_entropy():
    rep = classify_entropy(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert rep.is_zero_entropy
    assert rep.verdict == "zero"
    assert rep.unipotence_order == 1
    assert rep.entropy is None and rep.nc_lower_bound is None
    assert rep.cyclotomic_orders == (1, 1)


def test_rotation_is_zero_entropy():
    rep = classify_entropy(IntMatrix.from_rows([[0, -1], [1, 0]]))
    assert rep.is_zero_entropy
    assert rep.unipotence_order == 4
    assert rep.cyclotomic_orders == (4,)


def test_fibonacci_square_entropy():
    # golden ratio squared is the expanding eigenvalue
    rep = classify_entropy(IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert rep.verdict == "positive"
    assert not rep.is_zero_entropy
    assert rep.unipotence_order is None
    assert abs(rep.entropy - 0.9624236501192069) < 1e-12
    assert abs(rep.nc_lower_bound - 0.48121182505960347) < 1e-12
    assert abs(rep.nc_lower_bound - rep.entropy / 2) < 1e-15
    # fib (+) fib (+) ...: each repeated root is found once and counted
    # with its multiplicity; pinned to the last bit
    for copies, entropy in [(2, 1.9248473002384139), (3, 2.8872709503576206)]:
        blocks = np.kron(np.eye(copies, dtype=int), [[2, 1], [1, 1]])
        assert classify_entropy(IntMatrix.from_rows(blocks.tolist())).entropy == entropy


_FORCED_RESIDUAL = """
import sys
import mpmath
from nilseqlab.exactnum import IntMatrix, classify_entropy
mpmath.polyval = lambda coeffs, x: mpmath.mpf(1)
try:
    classify_entropy(IntMatrix.from_rows([[2, 1], [1, 1]]))
except ArithmeticError as exc:
    print(sys.flags.optimize, type(exc).__name__)
"""


def test_root_residual_check_raises_also_under_O(monkeypatch):
    """The residual check is an error, not an assert: python -O keeps it."""
    import mpmath

    monkeypatch.setattr(mpmath, "polyval", lambda coeffs, x: mpmath.mpf(1))
    with pytest.raises(ArithmeticError, match="residual"):
        classify_entropy(IntMatrix.from_rows([[2, 1], [1, 1]]))
    proc = subprocess.run([sys.executable, "-O", "-c", _FORCED_RESIDUAL],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["1", "ArithmeticError"], proc.stderr


def _eig_entropy(rows):
    """Independent oracle: sum of log|eigenvalue| > 0 from mpmath's dense
    eigensolver on the integer matrix at 120 digits."""
    import mpmath

    with mpmath.workdps(120):
        ev = mpmath.eig(mpmath.matrix(rows), left=False, right=False)
        return float(mpmath.fsum(mpmath.log(abs(v)) for v in ev if abs(v) > 1))


# Products of random transvections at d = 8 with eigenvalues up to ~10^6.
LARGE_ROOT_PRODUCTS = [
    [[-60537, -40236, -87263, 55844, 11963, 24326, -4354, 19549],
     [-434968, -288569, -625556, 406158, 77645, 174189, -32106, 142061],
     [-4614, -3251, -6730, 4737, 343, 1758, -573, 1721],
     [-20783, -13753, -29859, 19391, 3695, 8331, -1506, 6773],
     [-120707, -79997, -173512, 112773, 21381, 48341, -8871, 39409],
     [-40216, -26679, -57792, 37787, 6811, 16072, -3025, 13216],
     [-437869, -290559, -629761, 409021, 77993, 175318, -32403, 143081],
     [75528, 50110, 108521, -71067, -12633, -30170, 5708, -24861]],
    [[-6187, -50608, 127688, -118225, 16587, -7928, 46259, 36902],
     [3683, 30497, -76751, 71033, -9957, 4684, -27813, -22185],
     [15823, 129868, -327535, 302953, -42485, 19991, -118626, -94614],
     [-17378, -142734, 359958, -332866, 46675, -21893, 130358, 103970],
     [28268, 231614, -584252, 540699, -75844, 35979, -211639, -168813],
     [-27818, -228501, 576178, -532977, 74740, -35181, 208691, 166451],
     [-41546, -341044, 859983, -795760, 111604, -52769, 311520, 248479],
     [3378, 27884, -70236, 64943, -9104, 4232, -25443, -20288]],
]


def test_mixed_block_positive_entropy():
    m = IntMatrix.from_rows([
        [2, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    rep = classify_entropy(m)
    assert rep.verdict == "positive"
    # rotation block contributes nothing to the entropy
    assert abs(rep.entropy - 0.9624236501192069) < 1e-12
    # the root check scales with |r|^deg, so large eigenvalues classify too
    for rows in [LARGE_ROOT_COMPANION, *LARGE_ROOT_PRODUCTS]:
        rep = classify_entropy(IntMatrix.from_rows(rows))
        assert rep.verdict == "positive"
        assert rep.entropy == _eig_entropy(rows), rows


@pytest.mark.parametrize("rows, det", [([[1, 1], [1, 1]], 0),
                                       ([[2, 0], [0, 1]], 2)])
def test_classify_rejects_matrix_outside_gl(rows, det):
    with pytest.raises(NotInGL, match=f"^determinant {det};"):
        classify_entropy(IntMatrix.from_rows(rows))


def test_order_six_companion_zero_entropy():
    rep = classify_entropy(IntMatrix.from_rows([[0, -1], [1, 1]]))
    assert rep.is_zero_entropy
    assert rep.unipotence_order == 6


# ------------------------------------------------------------- power polys

def test_shear_power_polys_linear_entry():
    s = IntMatrix.from_rows([[1, 1], [0, 1]])
    pp = unipotent_power_polys(s, 1)
    assert pp.modulus == 1
    p = pp.entry(0, 0, 1)
    for t in range(-8, 9):
        assert p(t) == t
    for n in range(-20, 21):
        assert pp.power_at(n) == s ** n


@given(st.integers(min_value=-30, max_value=30))
def test_rotation_power_polys_constant(n):
    s = IntMatrix.from_rows([[0, -1], [1, 0]])
    pp = unipotent_power_polys(s, 4)
    assert pp.power_at(n) == s ** n
    r = n % 4
    assert pp.evaluate(r, (n - r) // 4) == s ** n
    # S^4 = I, so every entry polynomial is constant in t
    for i in range(2):
        for j in range(2):
            assert pp.entry(r, i, j).degree <= 0


def test_power_polys_reject_positive_entropy():
    with pytest.raises(NotUnipotent):
        unipotent_power_polys(IntMatrix.from_rows([[2, 1], [1, 1]]), 1)


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=-25, max_value=25))
def test_conjugated_shear_power_polys(seed, n):
    g = unimodular(3, seed)
    shear = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    s = g @ shear @ g.inverse()
    rep = classify_entropy(s)
    assert rep.is_zero_entropy
    pp = unipotent_power_polys(s, rep.unipotence_order)
    assert pp.power_at(n) == s ** n


# ------------------------------------------------------------ phase scalars

def test_parse_phase_exact_decimals():
    assert parse_phase("0.125").rational == Fraction(1, 8)
    assert parse_phase("-0.2").rational == Fraction(-1, 5)
    assert parse_phase("3/7").rational == Fraction(3, 7)
    p = parse_phase("1/3 + 2*g1 - g2")
    assert p.rational == Fraction(1, 3)
    assert dict(p.irr) == {"g1": Fraction(2), "g2": Fraction(-1)}


def test_parse_phase_rejects_junk():
    for bad in ("", "g1 g2", "1//2", "sqrt(2)", "1 +"):
        with pytest.raises(ValueError):
            parse_phase(bad)


@st.composite
def phases(draw):
    r = draw(rationals)
    parts = []
    for g in ("g1", "g2"):
        c = draw(rationals)
        if c:
            parts.append((g, c))
    return PhaseScalar(Fraction(r), tuple(parts))


@given(phases())
def test_format_parse_round_trip(p):
    assert parse_phase(format_phase(p)) == p


@given(phases(), phases())
def test_phase_additive_group(a, b):
    assert a + b == b + a
    assert (a + b) - b == a
    assert a + (-a) == PhaseScalar.zero()


@given(phases(), rationals)
def test_phase_rational_scaling(p, q):
    s = p.scale(q)
    assert s.rational == p.rational * q
    if q:
        assert s.scale(Fraction(1) / q) == p


@given(phases())
def test_reduce_mod_1_congruent(p):
    r = p.reduce_mod_1()
    assert 0 <= r.rational < 1
    assert congruent_mod_1(p, r)
    assert r.irr == p.irr


def test_mul_rational_times_irrational():
    p = parse_phase("1/2 + g1")
    assert p * PhaseScalar.from_rational(Fraction(2)) == parse_phase("1 + 2*g1")


def _assert_not_closed(a, b):
    with pytest.raises(NonClosedProduct):
        a * b
    with pytest.raises(NonClosedProduct):
        b * a


def test_mul_two_irrationals_needs_declaration():
    # No product can be declared, so the square of a generator never closes.
    g1 = PhaseScalar.generator("g1")
    _assert_not_closed(g1, g1)
    _assert_not_closed(g1.scale(Fraction(-2)), g1)


def test_declared_product_of_distinct_generators():
    # Distinct generators, scaled or with rational parts, never close either.
    g1 = PhaseScalar.generator("g1")
    g2 = PhaseScalar.generator("g2")
    _assert_not_closed(g1, g2)
    _assert_not_closed(g1.scale(Fraction(3, 2)), g2.scale(4))
    _assert_not_closed(parse_phase("1/2 + g1"), parse_phase("1/3 - g2"))


def test_conflicting_generator_value_rejected():
    with pytest.raises(ValueError):
        declare_generator("g1", "1.5")
    # identical re-declaration is fine
    declare_generator("g1", "1.414213562373095048801688724209698078570")


def test_float_values_track_declarations():
    p = parse_phase("1/2 + g1")
    assert abs(p.to_float() - (0.5 + math.sqrt(2))) < 1e-15
    assert abs(p.float_mod_1() - ((0.5 + math.sqrt(2)) % 1.0)) < 1e-15
    assert p.exact_value() == Fraction(1, 2) + parse_phase("g1").exact_value()


# --------------------------------------------------------- phase polynomials

@st.composite
def phase_polys(draw):
    deg = draw(st.integers(min_value=0, max_value=4))
    coeffs = tuple(draw(phases()) for _ in range(deg + 1))
    return PhasePolynomial.from_coeffs(coeffs)


@given(phase_polys(), st.integers(min_value=-20, max_value=20))
def test_phase_poly_basis_round_trip(p, n):
    mono = p.monomial_coefficients()
    assert PhasePolynomial.from_coeffs(mono, basis="monomial") == p
    value = PhaseScalar.zero()
    for k, c in enumerate(mono):
        value = value + c.scale(n ** k)
    assert value == p(n)


def test_monomial_and_binomial_constructions_agree():
    # 1/3 + g1 n^2 = 1/3 + g1 C(n, 1) + 2 g1 C(n, 2)
    g1 = PhaseScalar.generator("g1")
    third = PhaseScalar.from_rational(Fraction(1, 3))
    mono = PhasePolynomial.from_coeffs((third, PhaseScalar.zero(), g1), basis="monomial")
    bino = PhasePolynomial.from_coeffs((third, g1, g1.scale(2)))
    assert mono == bino
    assert hash(mono) == hash(bino)


def test_phase_poly_scale_by_zero_is_the_zero_polynomial():
    third = PhaseScalar.from_rational(Fraction(1, 3))
    p = PhasePolynomial.from_coeffs((PhaseScalar.zero(), third, third))
    assert p.scale(0) == PhasePolynomial.zero()
    assert p.scale(0).degree == -1


def test_from_coeffs_rejects_unknown_basis():
    with pytest.raises(ValueError, match="unknown basis 'bogus'"):
        PhasePolynomial.from_coeffs((PhaseScalar.zero(),), basis="bogus")


@given(phase_polys(), phase_polys(), st.integers(min_value=-20, max_value=20))
def test_phase_poly_addition(p, q, n):
    assert (p + q)(n) == p(n) + q(n)
    assert (p - q)(n) == p(n) - q(n)


@given(st.lists(small_ints, min_size=1, max_size=4), phases(),
       st.integers(min_value=-20, max_value=20))
def test_phase_poly_from_integral(coeffs, s, n):
    p = IntegralPolynomial.from_binomial(coeffs)
    pp = PhasePolynomial.from_integral(p, s)
    assert pp(n) == s.scale(Fraction(p(n)))


def test_has_irrational_nonconstant():
    lin = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), PhaseScalar.generator("g1")))
    assert lin.has_irrational_nonconstant()
    const = PhasePolynomial.from_coeffs(
        (PhaseScalar.generator("g1"), PhaseScalar.from_rational(Fraction(1, 2))))
    assert not const.has_irrational_nonconstant()


@given(phase_polys())
def test_fit_recovers_planted_poly(p):
    fit = fit_phase_polynomial(p, degree_bound=p.degree if p.degree >= 0 else 0)
    for n in range(-10, 11):
        assert congruent_mod_1(fit(n), p(n))


def test_fit_detects_degree_overflow():
    g1 = PhaseScalar.generator("g1")

    def cubic(n):
        return g1.scale(Fraction(binom_int(n, 3)))

    with pytest.raises(DegreeBoundExceeded):
        fit_phase_polynomial(cubic, degree_bound=2)


# ---------------------------------------------------------------------------
# records


class _Checked(Record):
    """A record with a default and a __post_init__ check."""

    low: int
    high: int = 10

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError("low above high")


RECORDS = {
    "PhaseScalar": (PhaseScalar, (Fraction(1, 3), (("g1", Fraction(2)),))),
    "IntMatrix": (IntMatrix, (((1, 1), (0, 1)),)),
    "EntropyReport": (EntropyReport, ("zero", 2, 1, (1, 1), None, None)),
    "checked": (_Checked, (3, 7)),
}


@pytest.mark.parametrize("cls, values", RECORDS.values(), ids=RECORDS)
def test_record_contract(cls, values):
    """What the package relied on from frozen dataclasses."""
    names = tuple(cls.__annotations__)
    r = cls(*values)
    # positional, keyword and default binding
    assert tuple(getattr(r, name) for name in names) == values
    by_name = cls(**dict(reversed(list(zip(names, values)))))
    assert by_name == r and repr(by_name) == repr(r) and hash(by_name) == hash(values)
    defaults = [getattr(cls, name) for name in names if name in vars(cls)]
    required = values[:len(names) - len(defaults)]
    assert cls(*required) == cls(*required, *defaults)
    assert cls(*required[:-1], **{names[len(required) - 1]: required[-1]}) == cls(*required)
    # a missing, unknown or repeated argument, or one too many
    with pytest.raises(TypeError, match=f"missing required arguments: {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    # nothing can be assigned or deleted
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, name) for name in names) == values
    # equal only to a record of the same class with equal fields
    twin = type("Twin", (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert r == cls(*values) and not r != cls(*values)
    assert r != twin(*values) and twin(*values) != r
    assert r != values and r.__eq__(values) is NotImplemented
    # the hash of the field tuple, so set and dict orders do not move
    assert hash(r) == hash(values)
    assert repr(r) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    # replace builds a new record through __init__
    assert replace(r) == r and replace(r) is not r
    assert replace(r, **{names[-1]: values[-1]}) == r


def test_record_post_init_runs_on_construction_and_replace():
    r = _Checked(3)
    assert (r.low, r.high) == (3, 10)
    assert repr(r) == "_Checked(low=3, high=10)"
    assert repr(PhaseScalar(Fraction(1, 3))) == "PhaseScalar(rational=Fraction(1, 3), irr=())"
    with pytest.raises(ValueError, match="low above high"):
        _Checked(11)
    with pytest.raises(ValueError, match="low above high"):
        replace(r, low=11)
    with pytest.raises(TypeError, match="unexpected keyword argument 'mid'"):
        replace(r, mid=5)
    assert replace(r, high=4) == _Checked(3, 4)


def test_record_defaults_must_come_last():
    with pytest.raises(TypeError, match="without a default follows one with a default"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
