from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilseqlab.exactnum import (
    IntMatrix,
    PhasePolynomial,
    PhaseScalar,
    congruent_mod_1,
    parse_phase,
)
from nilseqlab.nilseq import (
    Tag,
    e_array,
    e_phase,
    phase_block_exact,
    phase_block_fast,
    tree_fold,
)
from nilseqlab.torus import (
    Character,
    TorusPoint,
    _rational_period,
    character_seq,
    orbit_point,
    weyl_test,
)

SHEAR = IntMatrix.from_rows([[1, 1], [0, 1]])
ROTATION = IntMatrix.from_rows([[0, -1], [1, 0]])
FIB_SQ = IntMatrix.from_rows([[2, 1], [1, 1]])


def point(*specs):
    return TorusPoint.make(tuple(parse_phase(s) for s in specs))


# ------------------------------------------------------------------- orbits

@given(st.integers(min_value=-40, max_value=40))
def test_shear_orbit_closed_form(n):
    x = point("0", "g1")
    y = orbit_point(SHEAR, x, n)
    assert y.coords[0] == parse_phase("g1").scale(n).reduce_mod_1()
    assert y.coords[1] == parse_phase("g1").reduce_mod_1()


@given(st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
def test_orbit_is_group_action(m, n):
    x = point("1/7", "g2")
    a = orbit_point(ROTATION, orbit_point(ROTATION, x, m), n)
    b = orbit_point(ROTATION, x, m + n)
    assert a.coords == b.coords


# -------------------------------------------------------- character streams

def test_shear_character_matches_hand_formula():
    cs = character_seq(SHEAR, point("0", "g1"), Character((1, 0)))
    assert cs.entropy.is_zero_entropy
    assert cs.modulus == 1
    assert cs.stream.tag == Tag.nil(1)
    g1 = parse_phase("g1")
    for n in range(-30, 31):
        want = e_phase(g1.scale(n).float_mod_1())
        assert abs(cs.stream(n) - want) < 1e-12


def test_rotation_character_dual_route():
    x = point("1/3", "g2")
    v = Character((2, 1))
    cs = character_seq(ROTATION, x, v)
    assert cs.modulus == 4
    assert len(cs.residue_polys) == 4
    # every residue polynomial is constant: the orbit is 4-periodic
    for f in cs.residue_polys:
        assert f.degree <= 0
    for n in range(-50, 51):
        direct = e_phase(v.pair(orbit_point(ROTATION, x, n)).float_mod_1())
        assert abs(cs.stream(n) - direct) < 1e-12


def test_character_dimension_checked():
    with pytest.raises(ValueError):
        character_seq(SHEAR, point("0"), Character((1, 0)))
    with pytest.raises(ValueError):
        character_seq(SHEAR, point("0", "g1"), Character((1, 0, 0)))


def test_positive_entropy_character_runs_without_structure():
    x = point("1/5", "1/7")
    v = Character((1, 1))
    cs = character_seq(FIB_SQ, x, v)
    assert cs.modulus is None
    assert cs.residue_polys is None
    assert cs.stream.tag == Tag.unknown()
    for n in range(-10, 11):
        direct = e_phase(v.pair(orbit_point(FIB_SQ, x, n)).float_mod_1())
        assert abs(cs.stream(n) - direct) < 1e-12


def _residue_polys_match_orbit(A, x, v, ns):
    """Count the n at which the residue polynomial agrees mod 1 with the
    exact pairing <v, A^n x> taken from matrix powers."""
    cs = character_seq(A, x, v)
    m = cs.modulus
    return sum(congruent_mod_1(cs.residue_polys[n % m](n // m),
                               v.pair(orbit_point(A, x, n)))
               for n in ns)


def test_verify_polynomial_form_counts_and_rejects():
    checked = _residue_polys_match_orbit(
        SHEAR, point("1/3", "g1"), Character((1, 2)), range(-60, 61))
    assert checked == 121
    assert character_seq(FIB_SQ, point("0", "0"), Character((1, 0))).residue_polys is None


def test_verify_three_dimensional_chain():
    a = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    checked = _residue_polys_match_orbit(
        a, point("g1", "1/2", "g2"), Character((1, 0, 3)), range(-40, 41))
    assert checked == 81


# --------------------------------------------------------------- Weyl means

def brute_mean(p, k, N):
    q = p.scale(k)
    vals = [e_phase(q(n).float_mod_1()) for n in range(-N, N + 1)]
    return sum(vals) / (2 * N + 1)


def test_weyl_rational_period_fold():
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), parse_phase("1/3")), basis="monomial")
    rep = weyl_test(p, [1, 3], [4, 5, 10])
    assert rep.checkpoints == (4, 5, 10)
    h1, h3 = rep.harmonics

    assert h1.method == "periodic-fold"
    assert h1.period == 3
    assert not h1.expect_zero
    # 2*4+1 = 9 covers whole periods, so the mean is the period mean
    assert abs(h1.means[0]) < 1e-15
    for mean, N in zip(h1.means, (4, 5, 10)):
        assert abs(mean - brute_mean(p, 1, N)) < 1e-12

    # 3 * (n/3) is an integer phase, mean exactly 1
    assert h3.period == 1
    assert h3.means == (1 + 0j, 1 + 0j, 1 + 0j)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=0, max_value=25))
def test_weyl_rational_counts_match_brute_force(k, den, N):
    p = PhasePolynomial.from_coeffs(
        (parse_phase("1/2"), PhaseScalar.from_rational(Fraction(1, den))),
        basis="monomial")
    rep = weyl_test(p, [k], [N])
    assert abs(rep.harmonics[0].means[0] - brute_mean(p, k, N)) < 1e-12


def test_weyl_irrational_block_route():
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), parse_phase("g1")), basis="monomial")
    rep = weyl_test(p, [1, 2], [100, 500], precision="exact")
    for h in rep.harmonics:
        assert h.method == "block"
        assert h.period is None
        assert h.expect_zero
        for mean, N in zip(h.means, (100, 500)):
            assert abs(mean - brute_mean(p, h.harmonic, N)) < 1e-9
    # equidistribution: bigger window, smaller mean for this alpha
    assert abs(rep.harmonics[0].means[1]) < abs(rep.harmonics[0].means[0])


def test_weyl_quadratic_irrational():
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), PhaseScalar.zero(), parse_phase("g1")),
        basis="monomial")
    rep = weyl_test(p, [1], [300])
    h = rep.harmonics[0]
    assert h.expect_zero
    assert abs(h.means[0] - brute_mean(p, 1, 300)) < 1e-9


def test_weyl_mixed_rational_irrational_coeffs():
    # constant irrational part does not break equidistribution logic
    p = PhasePolynomial.from_coeffs(
        (parse_phase("g2"), parse_phase("1/4")), basis="monomial")
    rep = weyl_test(p, [1, 4], [6])
    h1, h4 = rep.harmonics
    assert not h1.expect_zero          # nonconstant coefficients all rational
    assert h1.method == "block"        # but the constant makes it non-periodic
    assert h4.method == "block"
    assert abs(h1.means[0] - brute_mean(p, 1, 6)) < 1e-12


def test_weyl_period_longer_than_window_takes_block_route():
    # a period unit of 10007 points would outgrow the 21-point window
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), parse_phase("1/10007")), basis="monomial")
    for precision in ("exact", "fast"):
        h = weyl_test(p, [1], [10], precision=precision).harmonics[0]
        assert h.method == "block"
        assert h.period is None
        assert not h.expect_zero
        assert abs(h.means[0] - brute_mean(p, 1, 10)) < 1e-12
    # a window as wide as the period still folds it
    h = weyl_test(p, [1], [5003]).harmonics[0]
    assert (h.method, h.period) == ("periodic-fold", 10007)
    assert abs(h.means[0]) < 1e-12


def _weyl_whole_window(p, harmonics, checkpoints, precision):
    """weyl_test's means computed from whole arrays: the phases of the
    widest window at once, sliced per checkpoint, or the whole period
    unit with each residue weighted by Python's int * complex product."""
    phases = {"exact": phase_block_exact, "fast": phase_block_fast}[precision]
    cks = sorted(checkpoints)
    n_max = cks[-1]
    out = []
    for k in harmonics:
        q = p.scale(k)
        T = _rational_period(q) if q.is_rational() else None
        means = []
        if T is not None and T <= 2 * n_max + 1:
            unit = e_array(phase_block_exact(q, 0, T))
            for N in cks:
                if (2 * N + 1) % T == 0:
                    means.append(tree_fold(unit) / T)
                    continue
                counts = [(N - rho) // T + (N + rho) // T + 1 for rho in range(T)]
                s = tree_fold(np.array([c * u for c, u in zip(counts, unit.tolist())],
                                       dtype=np.complex128))
                means.append(s / (2 * N + 1))
        else:
            vals = e_array(phases(q, -n_max, n_max + 1))
            for N in cks:
                means.append(tree_fold(vals[n_max - N: n_max + N + 1]) / (2 * N + 1))
        out.append([_bits(m) for m in means])
    return out


def _bits(z):
    return z.real.hex(), z.imag.hex()


WEYL_BLOCK_POLYS = {
    1: ("1/7", "g1"),
    2: ("g2", "g1", "1/3 + g2"),
    3: ("0", "1/5", "2/9", "g1 - g2"),
}


@pytest.mark.parametrize("precision", ["exact", "fast"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_weyl_block_route_keeps_the_whole_window_bits(degree, precision):
    # windows of 2^15 - 1 and 2^15 + 1 points, one whose left end is a
    # piece boundary (16383 = 49151 - 2^15) and a widest one of
    # 3 * 2^15 - 1 points: the pieces cut every window somewhere else
    p = PhasePolynomial.from_coeffs(
        tuple(parse_phase(c) for c in WEYL_BLOCK_POLYS[degree]), basis="monomial")
    cks = [0, 7, 2 ** 14 - 1, 2 ** 14, 3 * 2 ** 14 - 1]
    rep = weyl_test(p, [1, 2], cks, precision=precision)
    assert [h.method for h in rep.harmonics] == ["block", "block"]
    got = [[_bits(m) for m in h.means] for h in rep.harmonics]
    assert got == _weyl_whole_window(p, [1, 2], cks, precision)


@pytest.mark.parametrize("precision", ["exact", "fast"])
@pytest.mark.parametrize("n_max", [3 * 2 ** 14, 2 ** 17 + 5])
def test_weyl_block_route_widest_window_sizes(n_max, precision):
    # 3 * 2^15 + 1 points, and a window of 2^18 + 11 points, on which
    # the degree-1 fast route has two anchor blocks
    p = PhasePolynomial.from_coeffs(
        tuple(parse_phase(c) for c in WEYL_BLOCK_POLYS[1]), basis="monomial")
    cks = [2 ** 14, n_max]
    rep = weyl_test(p, [3], cks, precision=precision)
    got = [[_bits(m) for m in h.means] for h in rep.harmonics]
    assert got == _weyl_whole_window(p, [3], cks, precision)


def test_weyl_periodic_route_keeps_the_whole_period_bits():
    # T = 40009 > 2^15.  N = 3 and 10000 leave most residues with count
    # 0, whose units have negative parts; 20004 and 60013 cover 1 and 3
    # whole periods, and 30000 is partial with counts 1 and 2.  Python's
    # c * u is (c re - 0 im, c im + 0 re), which differs from the real
    # products (c re, c im) only in the sign of a zero; e(x) never
    # returns a -0 component, so no fold of them ends in -0 either way
    # and the means keep their bits.
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), PhaseScalar.zero(),
         PhaseScalar.from_rational(Fraction(1, 40009))), basis="monomial")
    cks = [3, 10000, 20004, 30000, 60013]
    rep = weyl_test(p, [1, 2], cks)
    assert [(h.method, h.period) for h in rep.harmonics] == [
        ("periodic-fold", 40009), ("periodic-fold", 40009)]
    got = [[_bits(m) for m in h.means] for h in rep.harmonics]
    assert got == _weyl_whole_window(p, [1, 2], cks, "exact")


def test_weyl_rejects_negative_checkpoints():
    p = PhasePolynomial.from_coeffs((PhaseScalar.zero(), parse_phase("g1")))
    with pytest.raises(ValueError):
        weyl_test(p, [1], [-3])
    with pytest.raises(ValueError):
        weyl_test(p, [1], [])


def test_weyl_fast_and_exact_agree():
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), parse_phase("g1"), parse_phase("g2")))
    fast = weyl_test(p, [1], [2000], precision="fast")
    exact = weyl_test(p, [1], [2000], precision="exact")
    assert abs(fast.harmonics[0].means[0] - exact.harmonics[0].means[0]) < 1e-9


def test_weyl_default_precision_is_exact():
    p = PhasePolynomial.from_coeffs(
        (PhaseScalar.zero(), parse_phase("g1")), basis="monomial")
    default = weyl_test(p, [1, 2], [100, 2000])
    exact = weyl_test(p, [1, 2], [100, 2000], precision="exact")
    assert [h.means for h in default.harmonics] == \
        [h.means for h in exact.harmonics]


def test_weyl_rejects_unknown_precision():
    p = PhasePolynomial.from_coeffs((PhaseScalar.zero(), parse_phase("g1")))
    with pytest.raises(ValueError, match="unknown precision"):
        weyl_test(p, [1], [10], precision="bogus")
