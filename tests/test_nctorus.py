from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilseqlab.exactnum import (
    IntMatrix,
    NotInGL,
    NotUnipotent,
    PhaseScalar,
    binom_int,
    classify_entropy,
    congruent_mod_1,
    parse_phase,
)
from nilseqlab.nctorus import (
    DimensionMismatch,
    NotCompatible,
    NotUnitVector,
    ThetaMatrix,
    WeylElement,
    WeylWord,
    apply_auto,
    apply_auto_inverse,
    commutator_phase,
    gns_apply,
    iterate_phase_polys,
    state_seq,
    word_identity,
    word_mul,
    word_pow,
)
from nilseqlab.nctorus import _site_pair_value
from nilseqlab.nilseq import Tag, e_phase
from nilseqlab.spectral import SparseVector

from conftest import SQRT2, SQRT3
from nilseqlab.exactnum import declare_generator

declare_generator("g1", SQRT2)
declare_generator("g2", SQRT3)

SHEAR = IntMatrix.from_rows([[1, 1], [0, 1]])
SWAP = IntMatrix.from_rows([[0, 1], [1, 0]])
FIB_SQ = IntMatrix.from_rows([[2, 1], [1, 1]])


def theta2(spec):
    return ThetaMatrix.from_upper(2, {(0, 1): parse_phase(spec)})


THETA_IRR = theta2("g1")
THETA_RAT = theta2("1/4")

exponents2 = st.tuples(st.integers(min_value=-6, max_value=6),
                       st.integers(min_value=-6, max_value=6))


@st.composite
def words2(draw):
    num = draw(st.integers(min_value=-12, max_value=12))
    den = draw(st.integers(min_value=1, max_value=8))
    phase = PhaseScalar.from_rational(Fraction(num, den))
    if draw(st.booleans()):
        phase = phase + parse_phase("g1").scale(draw(st.integers(-3, 3)))
    return WeylWord.make(draw(exponents2), phase)


# ----------------------------------------------------------- theta validity

def test_theta_construction_checks():
    z = PhaseScalar.zero()
    g1 = parse_phase("g1")
    with pytest.raises(ValueError):
        ThetaMatrix(((z, g1), (g1, z)))       # not skew
    with pytest.raises(ValueError):
        ThetaMatrix(((g1, z), (z, z)))        # diagonal nonzero
    with pytest.raises(ValueError):
        ThetaMatrix.from_upper(2, {(1, 0): g1})
    with pytest.raises(ValueError):
        ThetaMatrix.from_upper(2, {(0, 2): g1})
    t = theta2("g1")
    assert t.entry(0, 1) == g1
    assert t.entry(1, 0) == -g1
    assert t.dim == 2


def test_compatibility_is_mod_one():
    # swap conjugation flips the sign of theta, so 2*theta must be integral
    apply_auto(SWAP, WeylWord.make((1, 0)), theta2("1/2"))
    with pytest.raises(NotCompatible):
        apply_auto(SWAP, WeylWord.make((1, 0)), THETA_IRR)
    with pytest.raises(NotCompatible):
        apply_auto(SWAP, WeylWord.make((1, 0)), theta2("1/3"))
    # upper triangular S is compatible with any theta
    apply_auto(SHEAR, WeylWord.make((1, 0)), THETA_IRR)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_auto(IntMatrix.from_rows([[1]]), WeylWord.make((1, 0)), THETA_IRR)
    with pytest.raises(DimensionMismatch):
        WeylElement.from_terms(2, {(1, 0): 1.0, (0, 1, 0): 0.5})


def test_compatible_matrix_outside_gl_maps_forward_only():
    # S' Theta S - Theta = 1 at (0,1), so alpha_S is an endomorphism, but
    # det S = 4 leaves it no inverse
    S = IntMatrix.from_rows([[4, 0], [0, 1]])
    theta = theta2("1/3")
    assert apply_auto(S, WeylWord.make((1, 1)), theta).exponents == (4, 1)
    with pytest.raises(NotInGL):
        apply_auto_inverse(S, WeylWord.make((1, 1)), theta)
    assert apply_auto(S, WeylWord.make((0, 2)), theta).exponents == (0, 2)


# ----------------------------------------------------------------- words

def test_generator_product_order():
    u1 = WeylWord.make((1, 0))
    u2 = WeylWord.make((0, 1))
    fwd = word_mul(u1, u2, THETA_IRR)
    rev = word_mul(u2, u1, THETA_IRR)
    assert fwd.exponents == rev.exponents == (1, 1)
    # u1 u2 is already normal ordered: no phase is picked up
    assert not fwd.phase
    diff = rev.phase - fwd.phase
    assert congruent_mod_1(diff, commutator_phase((0, 1), (1, 0), THETA_IRR))


@given(words2(), words2(), words2())
def test_word_mul_associative(a, b, c):
    lhs = word_mul(word_mul(a, b, THETA_IRR), c, THETA_IRR)
    rhs = word_mul(a, word_mul(b, c, THETA_IRR), THETA_IRR)
    assert lhs.exponents == rhs.exponents
    assert congruent_mod_1(lhs.phase, rhs.phase)


@given(words2())
def test_word_identity_neutral(w):
    e = word_identity(2)
    assert word_mul(e, w, THETA_IRR) == w
    assert word_mul(w, e, THETA_IRR) == w


@given(words2(), st.integers(min_value=-15, max_value=15))
def test_word_pow_matches_repeated_mul(w, q):
    got = word_pow(w, q, THETA_IRR)
    direct = word_identity(2)
    step = w if q >= 0 else word_pow(w, -1, THETA_IRR)
    for _ in range(abs(q)):
        direct = word_mul(direct, step, THETA_IRR)
    assert got.exponents == direct.exponents
    assert congruent_mod_1(got.phase, direct.phase)


@given(words2())
def test_word_inverse(w):
    inv = word_pow(w, -1, THETA_IRR)
    assert word_mul(w, inv, THETA_IRR) == word_identity(2)
    assert word_mul(inv, w, THETA_IRR) == word_identity(2)


@given(exponents2, exponents2)
def test_commutator_antisymmetric(x, y):
    a = commutator_phase(x, y, THETA_IRR)
    b = commutator_phase(y, x, THETA_IRR)
    assert congruent_mod_1(a + b, PhaseScalar.zero())


@given(exponents2, exponents2)
def test_commutator_from_words(x, y):
    # x y x^-1 y^-1 is central with phase commutator_phase(x, y)
    wx, wy = WeylWord.make(x), WeylWord.make(y)
    lhs = word_mul(word_mul(wx, wy, THETA_IRR),
                   word_mul(word_pow(wx, -1, THETA_IRR),
                            word_pow(wy, -1, THETA_IRR), THETA_IRR), THETA_IRR)
    assert lhs.exponents == (0, 0)
    assert congruent_mod_1(lhs.phase, commutator_phase(x, y, THETA_IRR))


# ------------------------------------------- group law at d = 2, 3 and 4
# Oracles: the normal-ordering phase written out by hand, and the
# compatibility test as "S' Theta S - Theta is integral" entry by entry.


def oracle_reorder(x, y, theta):
    """Phase from moving u^y past u^x into normal order: sum_{k<j} x_j y_k theta_jk."""
    acc = PhaseScalar.zero()
    for k in range(theta.dim):
        for j in range(k + 1, theta.dim):
            if x[j] and y[k]:
                acc = acc + theta.entry(j, k).scale(x[j] * y[k])
    return acc


def oracle_compatible(S, theta):
    d = theta.dim
    for j in range(d):
        for k in range(d):
            acc = -theta.entry(j, k)
            for a in range(d):
                for b in range(d):
                    acc = acc + theta.entry(a, b).scale(S.rows[a][j] * S.rows[b][k])
            if not acc.is_integer():
                return False
    return True


def oracle_mul(a, b, theta):
    phase = a.phase + b.phase + oracle_reorder(a.exponents, b.exponents, theta)
    return WeylWord.make([p + q for p, q in zip(a.exponents, b.exponents)], phase)


def oracle_pow(w, q, theta):
    phase = (w.phase.scale(q)
             + oracle_reorder(w.exponents, w.exponents, theta).scale(binom_int(q, 2)))
    return WeylWord.make([q * x for x in w.exponents], phase)


def oracle_auto(S, w, theta):
    out = WeylWord.make([0] * S.dim, w.phase)
    for j, xj in enumerate(w.exponents):
        col = WeylWord.make([row[j] for row in S.rows])
        out = oracle_mul(out, oracle_pow(col, xj, theta), theta)
    return out


def oracle_gns(w, psi, theta):
    out = {}
    for site, c in psi.sites:
        ph = w.phase + oracle_reorder(w.exponents, site, theta)
        nk = tuple(a + b for a, b in zip(w.exponents, site))
        out[nk] = out.get(nk, 0) + c * e_phase(ph.float_mod_1())
    return SparseVector.from_sites(psi.dim, out)


def float_bits(vec):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in vec.sites]


@st.composite
def group_law_cases(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    rational = draw(st.booleans())

    def phase():
        out = PhaseScalar.from_rational(Fraction(draw(st.integers(-6, 6)),
                                                 draw(st.integers(1, 4))))
        if not rational:
            for g in ("g1", "g2"):
                out = out + parse_phase(g).scale(
                    Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
        return out

    theta = ThetaMatrix.from_upper(
        d, {(j, k): phase() for j in range(d) for k in range(j + 1, d)})
    # S in GL(d, Z), entries in [-2, 2]: a signed permutation, then row
    # additions that keep every entry in range
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    rows = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, d - 1),
                                           st.integers(0, d - 1),
                                           st.sampled_from((-1, 1))),
                                 max_size=6)):
        new = [a + c * b for a, b in zip(rows[i], rows[j])]
        if i != j and max(map(abs, new)) <= 2:
            rows[i] = new
    vec = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    a = WeylWord.make(draw(vec), phase())
    b = WeylWord.make(draw(vec), phase())
    psi = SparseVector.from_sites(d, {tuple(draw(vec)): complex(draw(st.integers(-3, 3)), 1)
                                      for _ in range(3)})
    return theta, IntMatrix.from_rows(rows), a, b, draw(st.integers(-9, 9)), psi


@given(group_law_cases())
def test_group_law_matches_normal_ordering_oracle(case):
    theta, S, a, b, q, psi = case
    assert word_mul(a, b, theta) == oracle_mul(a, b, theta)
    assert word_pow(a, q, theta) == oracle_pow(a, q, theta)
    want = (oracle_reorder(a.exponents, b.exponents, theta)
            - oracle_reorder(b.exponents, a.exponents, theta)).reduce_mod_1()
    assert commutator_phase(a.exponents, b.exponents, theta) == want
    got = gns_apply(a, psi, theta)
    assert got == oracle_gns(a, psi, theta)
    assert float_bits(got) == float_bits(oracle_gns(a, psi, theta))
    if not oracle_compatible(S, theta):
        with pytest.raises(NotCompatible):
            apply_auto(S, a, theta)
        return
    assert apply_auto(S, a, theta) == oracle_auto(S, a, theta)
    assert apply_auto(S, apply_auto_inverse(S, a, theta), theta) == a


# ------------------------------------------------------------ automorphisms

@given(words2(), words2())
def test_apply_auto_is_homomorphism(a, b):
    ga = apply_auto(SHEAR, a, THETA_IRR)
    gb = apply_auto(SHEAR, b, THETA_IRR)
    lhs = apply_auto(SHEAR, word_mul(a, b, THETA_IRR), THETA_IRR)
    rhs = word_mul(ga, gb, THETA_IRR)
    assert lhs.exponents == rhs.exponents
    assert congruent_mod_1(lhs.phase, rhs.phase)


@given(words2(), st.integers(min_value=-25, max_value=25))
def test_apply_auto_exponents_follow_matrix(w, n):
    out = w
    step = apply_auto if n >= 0 else apply_auto_inverse
    for _ in range(abs(n)):
        out = step(SHEAR, out, THETA_IRR)
    assert out.exponents == (SHEAR ** n).apply(w.exponents)


@given(words2())
def test_apply_auto_inverse_round_trip(w):
    fwd = apply_auto(SHEAR, w, THETA_IRR)
    assert apply_auto_inverse(SHEAR, fwd, THETA_IRR) == w
    bwd = apply_auto_inverse(SHEAR, w, THETA_IRR)
    assert apply_auto(SHEAR, bwd, THETA_IRR) == w


@given(exponents2, exponents2)
def test_commutator_invariant_under_auto(x, y):
    sx = tuple(SHEAR.apply(x))
    sy = tuple(SHEAR.apply(y))
    assert congruent_mod_1(commutator_phase(sx, sy, THETA_IRR),
                           commutator_phase(x, y, THETA_IRR))


# ----------------------------------------------------------------- elements

@st.composite
def elements2(draw):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(n_terms):
        exps = draw(exponents2)
        re = draw(st.integers(min_value=-4, max_value=4))
        im = draw(st.integers(min_value=-4, max_value=4))
        terms[exps] = complex(re, im) / 4
    return WeylElement.from_terms(2, terms)


def test_trace_reads_identity_coefficient():
    a = WeylElement.from_terms(2, {(0, 0): 2.5 + 1j, (1, 0): 3.0})
    assert a.trace() == 2.5 + 1j
    assert WeylElement.from_terms(2, {(1, 1): 1.0}).trace() == 0j


@given(elements2(), elements2())
def test_trace_is_tracial(a, b):
    ab = a.mul(b, THETA_IRR).trace()
    ba = b.mul(a, THETA_IRR).trace()
    assert abs(ab - ba) < 1e-12


@given(elements2())
def test_trace_positive_on_squares(a):
    val = a.adjoint(THETA_IRR).mul(a, THETA_IRR).trace()
    assert abs(val.imag) < 1e-12
    assert val.real > -1e-12


@given(elements2())
def test_adjoint_involution(a):
    again = a.adjoint(THETA_IRR).adjoint(THETA_IRR)
    assert again.dim == a.dim
    assert len(again.terms) == len(a.terms)
    for (e1, c1), (e2, c2) in zip(again.terms, a.terms):
        assert e1 == e2
        assert abs(c1 - c2) < 1e-12


@given(elements2(), elements2())
def test_element_auto_is_star_homomorphism(a, b):
    lhs = a.mul(b, THETA_IRR).apply_auto(SHEAR, THETA_IRR)
    rhs = a.apply_auto(SHEAR, THETA_IRR).mul(b.apply_auto(SHEAR, THETA_IRR),
                                             THETA_IRR)
    assert lhs.dim == rhs.dim
    la, ra = dict(lhs.terms), dict(rhs.terms)
    assert set(la) == set(ra)
    for k in la:
        assert abs(la[k] - ra[k]) < 1e-12
    star = a.adjoint(THETA_IRR).apply_auto(SHEAR, THETA_IRR)
    star2 = a.apply_auto(SHEAR, THETA_IRR).adjoint(THETA_IRR)
    assert set(dict(star.terms)) == set(dict(star2.terms))


# ---------------------------------------------------------------- GNS space

def test_gns_apply_follows_word_mul():
    # applying u1 to the basis vector at site (0,1) lands on site (1,1)
    # with exactly the phase of the word product u1 * u2
    u1 = WeylWord.make((1, 0))
    psi = SparseVector.basis(2, (0, 1))
    out = gns_apply(u1, psi, THETA_IRR)
    prod = word_mul(u1, WeylWord.make((0, 1)), THETA_IRR)
    assert out.site_dict() == {prod.exponents: e_phase(prod.phase.float_mod_1())}


@given(words2(), exponents2)
def test_gns_apply_composes_like_word_mul(w, site):
    psi = SparseVector.basis(2, site)
    site_word = WeylWord.make(site)
    out = gns_apply(w, psi, THETA_IRR)
    prod = word_mul(w, site_word, THETA_IRR)
    got = out.site_dict()
    assert list(got) == [prod.exponents]
    assert abs(got[prod.exponents] - e_phase(prod.phase.float_mod_1())) < 1e-12


@given(words2())
def test_gns_apply_preserves_norm(w):
    psi = SparseVector.from_sites(2, {(0, 0): 0.6, (2, -1): 0.8j})
    out = gns_apply(w, psi, THETA_IRR)
    assert abs(out.norm() - psi.norm()) < 1e-12


def test_gns_apply_rejects_atomic_vectors():
    psi = SparseVector.from_sites(2, {(0, 0): 1.0})
    withatom = psi.add(SparseVector(
        2, (), (("a0", 0.5 + 0j, (parse_phase("g1"),)),)))
    with pytest.raises(DimensionMismatch):
        gns_apply(WeylWord.make((1, 0)), withatom, THETA_IRR)


# -------------------------------------------------------- state sequences

def brute_state_value(S, theta, u, vec, n):
    total = 0j
    for exps, c in u.terms:
        w = WeylWord.make(exps)
        step = apply_auto if n >= 0 else apply_auto_inverse
        for _ in range(abs(n)):
            w = step(S, w, theta)
        total += c * gns_apply(w, vec, theta).inner(vec)
    return total


def closed_form_state(S, theta, u, vec):
    """n -> rho(alpha^n u) from the residue closed forms, one n at a time:
    the word alpha^n(u) read off iterate_phase_polys, paired with vec."""
    order = classify_entropy(S).unipotence_order
    reports = {exps: iterate_phase_polys(S, theta, exps, order)
               for exps, _ in u.terms}

    def value(n):
        total = 0j
        for exps, c in u.terms:
            wn = reports[exps].word_at(n)
            total += c * _site_pair_value(wn.exponents, vec, theta, wn.phase)
        return total

    return value


def unit_vec():
    return SparseVector.from_sites(2, {(0, 0): 0.6, (1, 1): 0.8})


def test_state_seq_matches_brute_force_zero_entropy():
    u = WeylElement.from_terms(2, {(0, 1): 1.0, (1, 0): 0.5j})
    vec = unit_vec()
    stream = state_seq(SHEAR, THETA_IRR, u, vec)
    assert stream.tag.kind == "almost_nil"
    for n in range(-25, 26):
        want = brute_state_value(SHEAR, THETA_IRR, u, vec, n)
        assert abs(stream(n) - want) < 1e-12


def test_state_seq_block_matches_scalar():
    u = WeylElement.from_terms(2, {(0, 1): 1.0})
    stream = state_seq(SHEAR, THETA_IRR, u, unit_vec())
    want = closed_form_state(SHEAR, THETA_IRR, u, unit_vec())
    block = stream.evaluate_block(-700, 700)
    for i, n in enumerate(range(-700, 700)):
        if n % 97 == 0:
            assert abs(block[i] - want(n)) < 1e-12


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_state_seq_point_is_the_block_value(precision):
    # seq_nc_shear's data: stream(n) is the one-point block, so it has the
    # bits of the whole range's block
    u = WeylElement.from_terms(2, {(0, 1): 1.0})
    vec = SparseVector.from_sites(2, {(0, 0): 0.6, (0, 1): 0.8})
    stream = state_seq(SHEAR, THETA_IRR, u, vec, precision=precision)
    whole = stream.evaluate_block(-20, 21)
    points = np.array([stream(n) for n in range(-20, 21)])
    assert np.array_equal(points.view(np.uint64), whole.view(np.uint64))


def test_state_seq_rational_theta_dual_route():
    u = WeylElement.from_terms(2, {(1, 1): 1.0, (0, 0): 0.25})
    vec = unit_vec()
    stream = state_seq(SHEAR, THETA_RAT, u, vec)
    for n in range(-20, 21):
        want = brute_state_value(SHEAR, THETA_RAT, u, vec, n)
        assert abs(stream(n) - want) < 1e-12


@pytest.mark.parametrize("S", [SHEAR, IntMatrix.from_rows([[-1, 1], [0, -1]])])
@pytest.mark.parametrize("start", [2 ** 60 + 1, -(2 ** 62) + 3])
@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_state_seq_block_matches_pointwise_far_from_origin(S, start, precision):
    # past 2^53 a float n is not exact, so the block's residue bounds
    # must come from integer arithmetic
    u = WeylElement.from_terms(2, {(1, 0): 1.0, (0, 1): 0.5j})
    vec = SparseVector.from_sites(2, {(0, 0): 0.6, (1, 0): 0.8})
    stream = state_seq(S, THETA_IRR, u, vec, precision=precision)
    block = stream.evaluate_block(start, start + 8)
    value = closed_form_state(S, THETA_IRR, u, vec)
    want = [value(n) for n in range(start, start + 8)]
    assert np.max(np.abs(block - np.array(want))) < 1e-9
    assert np.min(np.abs(block)) > 0.4


def test_state_seq_positive_entropy_direct_path():
    u = WeylElement.from_terms(2, {(0, 1): 1.0})
    vec = unit_vec()
    stream = state_seq(FIB_SQ, theta2("1/2"), u, vec)
    assert stream.tag == Tag.unknown()
    for n in range(-6, 7):
        want = brute_state_value(FIB_SQ, theta2("1/2"), u, vec, n)
        assert abs(stream(n) - want) < 1e-12


def test_state_seq_requires_unit_vector():
    u = WeylElement.from_terms(2, {(0, 1): 1.0})
    bad = SparseVector.from_sites(2, {(0, 0): 0.6, (1, 1): 0.9})
    with pytest.raises(NotUnitVector):
        state_seq(SHEAR, THETA_IRR, u, bad)


def test_state_seq_fast_path_close_to_exact():
    u = WeylElement.from_terms(2, {(0, 1): 1.0})
    vec = unit_vec()
    exact = state_seq(SHEAR, THETA_IRR, u, vec, precision="exact")
    fast = state_seq(SHEAR, THETA_IRR, u, vec, precision="fast")
    a = exact.evaluate_block(-2000, 2000)
    b = fast.evaluate_block(-2000, 2000)
    assert np.max(np.abs(a - b)) < 1e-9


# ------------------------------------------------------ iterated phase data

def test_iterate_phase_polys_matches_word_iteration():
    rep = iterate_phase_polys(SHEAR, THETA_IRR, (0, 1))
    assert rep.modulus == 1
    w = WeylWord.make((0, 1))
    for n in range(0, 40):
        assert rep.word_at(n).exponents == w.exponents
        assert congruent_mod_1(rep.phase_at(n), w.phase)
        w = apply_auto(SHEAR, w, THETA_IRR)
    w = WeylWord.make((0, 1))
    for n in range(0, -40, -1):
        assert rep.word_at(n).exponents == w.exponents
        assert congruent_mod_1(rep.phase_at(n), w.phase)
        w = apply_auto_inverse(SHEAR, w, THETA_IRR)


def test_iterate_phase_polys_exponent_polys():
    rep = iterate_phase_polys(SHEAR, THETA_IRR, (0, 1))
    # shear sends u2 to words with exponents (n, 1)
    for n in (-9, -1, 0, 1, 2, 31):
        assert rep.exponents_at(n) == (n, 1)


def test_iterate_phase_polys_rejects_positive_entropy():
    with pytest.raises(NotUnipotent):
        iterate_phase_polys(FIB_SQ, theta2("1/2"), (0, 1))


# ------------------------------------------------------------- clock shift
# For theta12 = p/q the q x q clock matrix U = diag(e(p j / q)) and the
# cyclic shift V satisfy U V = e(p/q) V U, the relation word_mul encodes,
# so e(phase) U^a V^b is a finite-dimensional model of the word algebra.


def _clock_shift(word, p, q):
    """e(phase) U^a V^b for the word e(phase) u_1^a u_2^b."""
    a, b = word.exponents
    clock = np.diag([e_phase(p * j * a % q / q) for j in range(q)])
    shift = np.roll(np.eye(q, dtype=np.complex128), b, axis=0)
    return e_phase(word.phase.float_mod_1()) * (clock @ shift)


def test_clock_shift_rational():
    rng = np.random.default_rng(0)
    letters = [WeylWord.make(x) for x in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    for p, q in ((1, 3), (2, 5), (3, 4)):
        theta = theta2(f"{p}/{q}")
        u1, _, u2, _ = (_clock_shift(w, p, q) for w in letters)
        assert np.max(np.abs(u1 @ u2 - e_phase(p / q) * (u2 @ u1))) < 1e-12
        for _ in range(24):
            word, mat = word_identity(2), np.eye(q)
            for k in rng.integers(0, 4, size=rng.integers(1, 9)):
                word = word_mul(word, letters[k], theta)
                mat = mat @ _clock_shift(letters[k], p, q)
            assert np.max(np.abs(_clock_shift(word, p, q) - mat)) < 1e-10
