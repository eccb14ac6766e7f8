import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilseqlab.exactnum import (
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    congruent_mod_1,
    declare_generator,
    parse_phase,
)
from nilseqlab.nilseq import Tag
from nilseqlab.spectral import (
    GPolynomial,
    NotDiagonal,
    ShiftPhaseOperator,
    SparseVector,
    ZeroDensityCertificate,
    bochner_data,
    classify_atoms,
    compact_subspace,
    decompose,
    integer_solutions,
    op_pow,
)

from conftest import SQRT2, SQRT3

declare_generator("g1", SQRT2)
declare_generator("g2", SQRT3)

Z = PhaseScalar.zero()


def mono(coeffs):
    return IntegralPolynomial.from_monomial(coeffs)


def op(shift, phase="0", form=None):
    dim = len(shift)
    f = tuple(parse_phase(s) for s in form) if form else tuple([Z] * dim)
    return ShiftPhaseOperator.make(shift=tuple(shift),
                                   phase=parse_phase(phase), form=f)


small_shift = st.tuples(st.integers(min_value=-3, max_value=3),
                        st.integers(min_value=-3, max_value=3))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def operators(draw):
    shift = draw(small_shift)
    phase = PhaseScalar.from_rational(draw(rationals))
    if draw(st.booleans()):
        phase = phase + parse_phase("g1").scale(draw(rationals))
    form = tuple(
        PhaseScalar.from_rational(draw(rationals)) +
        parse_phase("g2").scale(draw(rationals))
        for _ in range(2))
    return ShiftPhaseOperator.make(shift=shift, phase=phase, form=form)


# ------------------------------------------------------------- operators

@given(operators(), operators(), operators())
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(operators())
def test_identity_and_inverse(w):
    e = ShiftPhaseOperator.identity(2)
    assert w.compose(e) == w
    assert e.compose(w) == w
    assert w.compose(w.inverse()) == e
    assert w.inverse().compose(w) == e


@given(operators(), st.integers(min_value=-40, max_value=40))
def test_op_pow_matches_iterated_compose(w, n):
    direct = ShiftPhaseOperator.identity(2)
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        direct = direct.compose(step)
    assert op_pow(w, n) == direct


@given(operators(), operators())
def test_commutator_phase_from_compose(a, b):
    ab = a.compose(b)
    ba = b.compose(a)
    assert ab.shift == ba.shift
    assert congruent_mod_1(ab.phase - ba.phase, a.commutator_phase(b))
    assert congruent_mod_1(a.commutator_phase(b) + b.commutator_phase(a), Z)


@given(operators(), operators())
def test_compose_matches_sequential_action(a, b):
    vec = SparseVector.from_sites(2, {(0, 0): 0.6, (2, -1): 0.8j})
    combined = vec.apply_operator(a.compose(b))
    stepwise = vec.apply_operator(b).apply_operator(a)
    ca, cs = combined.site_dict(), stepwise.site_dict()
    assert set(ca) == set(cs)
    for k in ca:
        assert abs(ca[k] - cs[k]) < 1e-12


def test_operator_basics():
    w = op((1, 0), phase="1/4", form=("g1", "0"))
    assert w.dim == 2
    assert not w.is_diagonal()
    assert op((0, 0), form=("g1", "g2")).is_diagonal()
    assert w.form_at((3, 5)) == parse_phase("3*g1")


# --------------------------------------------------------------- vectors

def test_vector_construction_and_parts():
    v = SparseVector.from_sites(
        2, {(0, 0): 0.5, (1, 2): -0.5j},
        {"a": (0.5, (parse_phase("g1"),)), "b": (0.5, (parse_phase("1/3"),))})
    assert v.norm_sq() == pytest.approx(1.0)
    assert v.lattice_part().atom_dict() == {}
    assert v.atomic_part().site_dict() == {}
    assert set(v.atom_dict()) == {"a", "b"}
    assert SparseVector.basis(2, (3, 4)).site_dict() == {(3, 4): 1 + 0j}


def test_zero_coefficients_dropped():
    v = SparseVector.from_sites(2, {(0, 0): 0.0, (1, 1): 1.0},
                                {"a": (0.0, (Z,))})
    assert v.site_dict() == {(1, 1): 1 + 0j}
    assert v.atom_dict() == {}


@given(st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_inner_sesquilinear(p, q):
    a = SparseVector.from_sites(2, {(0, 0): 1.0, (1, 0): 1j})
    b = SparseVector.from_sites(2, {(0, 0): 0.5 - 0.5j, (2, 2): 3.0})
    c = SparseVector.from_sites(2, {(1, 0): 2.0})
    lhs = a.scale(p).add(c.scale(q)).inner(b)
    rhs = p * a.inner(b) + q * c.inner(b)
    assert abs(lhs - rhs) < 1e-12
    assert abs(a.inner(b) - b.inner(a).conjugate()) < 1e-12
    assert a.inner(a) == pytest.approx(a.norm_sq())


def test_inner_includes_atoms():
    pa = (parse_phase("g1"),)
    a = SparseVector.from_sites(2, {}, {"x": (0.5, pa)})
    b = SparseVector.from_sites(2, {}, {"x": (2.0, pa)})
    assert a.inner(b) == pytest.approx(1.0)


def test_inner_conflicting_eigenphases_rejected():
    a = SparseVector.from_sites(2, {}, {"x": (1.0, (parse_phase("g1"),))})
    b = SparseVector.from_sites(2, {}, {"x": (1.0, (parse_phase("g2"),))})
    with pytest.raises(ValueError):
        a.inner(b)


def test_apply_operator_hand_case():
    w = op((1, 1), phase="1/8", form=("g1", "0"))
    v = SparseVector.from_sites(2, {(2, 0): 1.0})
    out = v.apply_operator(w)
    # site moves by the shift, phase picks up form at the old site
    want_phase = parse_phase("1/8 + 2*g1")
    assert list(out.site_dict()) == [(3, 1)]
    got = out.site_dict()[(3, 1)]
    assert abs(got - np.exp(2j * np.pi * want_phase.float_mod_1())) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


def test_apply_operator_needs_lattice_only():
    v = SparseVector.from_sites(2, {(0, 0): 0.5},
                                {"a": (0.5, (parse_phase("g1"),))})
    with pytest.raises(NotDiagonal):
        v.apply_operator(op((1, 0)))


# ---------------------------------------------------------- g polynomials

def heisenberg_pair():
    # U shifts, V is diagonal with a linear form: [U, V] central
    U = op((1,), form=("0",))
    V = op((0,), form=("g1",))
    return U, V


def test_gpolynomial_eval_hand_composition():
    U, V = heisenberg_pair()
    g = GPolynomial.make((U, V), (mono([0, 1]), mono([0, 0, 1])))
    assert g.dim == 1
    assert g.degree == 2
    for n in (-5, -1, 0, 1, 2, 7):
        direct = op_pow(U, n).compose(op_pow(V, n * n))
        assert g.eval(n) == direct


def test_shift_polynomial_components():
    a = op((1, 0))
    b = op((-2, 3))
    g = GPolynomial.make((a, b), (mono([0, 1]), mono([1])))
    sx, sy = g.shift_polynomial()
    for n in (-4, 0, 3):
        assert sx(n) == n - 2
        assert sy(n) == 3


def test_atom_phase_poly():
    U, V = heisenberg_pair()
    g = GPolynomial.make((U, V), (mono([0, 1]), mono([0, 0, 1])))
    lam = (parse_phase("1/3"), parse_phase("g2"))
    f = g.atom_phase_poly(lam)
    for n in (-6, -1, 0, 2, 9):
        want = parse_phase("1/3").scale(n) + parse_phase("g2").scale(n * n)
        assert congruent_mod_1(f(n), want)
    with pytest.raises(ValueError):
        g.atom_phase_poly((parse_phase("1/3"),))


def test_apply_and_pairing_consistent():
    U, V = heisenberg_pair()
    g = GPolynomial.make((U, V), (mono([0, 1]), mono([0, 1])))
    u = SparseVector.from_sites(
        1, {(0,): 0.6, (1,): 0.48},
        {"a": (0.64, (parse_phase("g1"), parse_phase("1/5")))})
    v = SparseVector.from_sites(
        1, {(0,): 1.0}, {"a": (1.0, (parse_phase("g1"), parse_phase("1/5")))})
    pair = g.pairing(u, v)
    for n in (-8, -1, 0, 1, 13):
        assert abs(pair(n) - g.apply(u, n).inner(v)) < 1e-12


# ------------------------------------------------------- sectors and hits

def test_compact_subspace_reports_shift_index():
    diag = op((0, 0), form=("g1", "g2"))
    rep = compact_subspace([diag, diag])
    assert rep.lattice_compact and rep.atoms_compact
    assert rep.nonzero_shift_index is None
    rep2 = compact_subspace([diag, op((0, 1))])
    assert not rep2.lattice_compact
    assert rep2.nonzero_shift_index == 1


def test_integer_solutions_exact():
    assert integer_solutions(mono([-4, 0, 1]), 0) == (-2, 2)
    assert integer_solutions(mono([0, 0, 1]), 3) == ()
    assert integer_solutions(mono([0, 2]), 3) == ()
    assert integer_solutions(mono([0]), 0) is None
    assert integer_solutions(mono([0]), 5) == ()
    assert integer_solutions(mono([21, -17, -5, 1]), 0) == (-3, 1, 7)
    assert integer_solutions(mono([-10**6, 1]), 0) == (10**6,)


def test_certificate_window_arithmetic():
    cert = ZeroDensityCertificate(kind="finite-hits", hits=(0, 5),
                                  values=(1 + 0j, -2j))
    assert cert.cesaro_bound(3) == 1.0 / 7
    assert cert.cesaro_bound(5) == 3.0 / 11
    assert cert.cesaro_bound(100) == 3.0 / 201
    assert ZeroDensityCertificate(kind="empty").cesaro_bound(10) == 0.0


# ------------------------------------------------------------- decompose

def test_decompose_diagonal_family():
    V1 = op((0,), form=("g1",))
    V2 = op((0,), phase="1/7", form=("1/3",))
    g = GPolynomial.make((V1, V2), (mono([0, 1]), mono([0, 0, 1])))
    u = SparseVector.from_sites(
        1, {(0,): 0.6, (2,): 0.64},
        {"a": (0.48, (parse_phase("g2"), parse_phase("0")))})
    res = decompose(g, u, u)
    assert res.sector.lattice_compact
    assert res.certificate.kind == "empty"
    origins = {t.origin for t in res.nil_terms}
    assert origins == {"site:(0,)", "site:(2,)", "atom:a"}
    pair = g.pairing(u, u)
    for n in range(-40, 41):
        a_n = pair(n)
        assert abs(res.total_stream.evaluate(n) - a_n) < 1e-12
        assert abs(res.residual_stream.evaluate(n)) == 0.0
    assert res.nil_stream.tag.kind == "nil"


def test_nil_stream_block_matches_pointwise():
    V1 = op((0,), form=("g1",))
    V2 = op((0,), phase="1/7", form=("1/3",))
    g = GPolynomial.make((V1, V2), (mono([0, 1]), mono([0, 0, 1])))
    u = SparseVector.from_sites(
        1, {(0,): 0.6, (2,): 0.64},
        {"a": (0.48, (parse_phase("g2"), parse_phase("0")))})
    nil = decompose(g, u, u).nil_stream
    block = nil.evaluate_block(-3000, 3000)
    pointwise = np.array([nil.evaluate(n) for n in range(-3000, 3000)])
    # same phases and e(x) bits; only the complex multiply-add may round
    # differently between numpy and Python
    assert np.max(np.abs(block - pointwise)) < 1e-15


def test_decompose_cancelling_shifts_stay_compact():
    # shifts of the two generators cancel along n -> the difference
    # generators are diagonal even though each generator moves the lattice
    up = op((1,), form=("g1",))
    down = op((-1,))
    g = GPolynomial.make((up, down), (mono([0, 1]), mono([0, 1])))
    u = SparseVector.basis(1, (0,))
    res = decompose(g, u, u)
    assert res.sector.lattice_compact
    assert res.certificate.kind == "empty"
    assert len(res.nil_terms) == 1
    term = res.nil_terms[0]
    # hand derivation: phase -g1 * n(n+1)/2 in the binomial basis
    want = PhasePolynomial.from_coeffs(
        (Z, -parse_phase("g1"), -parse_phase("g1")))
    for n in range(-15, 16):
        assert congruent_mod_1(term.phase_poly(n), want(n))
        assert abs(res.total_stream.evaluate(n)
                   - g.pairing(u, u)(n)) < 1e-12


def test_decompose_weak_mixing_hits():
    U = op((1,), form=("g1",))
    g = GPolynomial.make((U,), (mono([0, 1]),))
    u = SparseVector.basis(1, (0,))
    res = decompose(g, u, u)
    assert not res.sector.lattice_compact
    assert res.certificate.kind == "finite-hits"
    assert res.certificate.hits == (0,)
    assert res.certificate.values == (1 + 0j,)
    assert res.nil_terms == ()
    assert res.certificate.cesaro_bound(10) == 1.0 / 21
    for n in range(-10, 11):
        want = 1 + 0j if n == 0 else 0j
        assert res.total_stream.evaluate(n) == want
    assert res.residual_stream.tag == Tag.zero_density()


def test_decompose_offset_hit():
    U = op((1,), phase="1/3")
    g = GPolynomial.make((U,), (mono([0, 1]),))
    u = SparseVector.basis(1, (0,))
    v = SparseVector.basis(1, (5,))
    res = decompose(g, u, v)
    assert res.certificate.hits == (5,)
    val = res.certificate.values[0]
    assert abs(abs(val) - 1.0) < 1e-12
    pair = g.pairing(u, v)
    for n in range(-3, 9):
        assert abs(res.total_stream.evaluate(n) - pair(n)) < 1e-12


def test_decompose_quadratic_exponent_hits():
    U = op((1,))
    g = GPolynomial.make((U,), (mono([-4, 0, 1]),))  # shift n^2 - 4
    u = SparseVector.basis(1, (0,))
    res = decompose(g, u, u)
    assert res.certificate.hits == (-2, 2)
    assert res.certificate.values == (1 + 0j, 1 + 0j)


def test_decompose_mixed_atoms_and_hits():
    U = op((1,), form=("g1",))
    g = GPolynomial.make((U,), (mono([0, 1]),))
    lam = (parse_phase("g2"),)
    u = SparseVector.from_sites(1, {(0,): 0.6}, {"a": (0.8, lam)})
    res = decompose(g, u, u)
    assert [t.origin for t in res.nil_terms] == ["atom:a"]
    atom_term = res.nil_terms[0]
    assert atom_term.coeff == pytest.approx(0.64)
    pair = g.pairing(u, u)
    for n in range(-12, 13):
        assert abs(res.total_stream.evaluate(n) - pair(n)) < 1e-12
    # residual mass is the lattice weight at the single hit
    assert res.certificate.hits == (0,)
    assert abs(res.certificate.values[0] - 0.36) < 1e-12


def test_decompose_validates_input():
    U = op((1,))
    g = GPolynomial.make((U,), (mono([0, 1]),))
    u1 = SparseVector.basis(1, (0,))
    u2 = SparseVector.basis(2, (0, 0))
    with pytest.raises(ValueError):
        decompose(g, u1, u2)
    short = SparseVector.from_sites(1, {}, {"a": (1.0, ())})
    with pytest.raises(ValueError):
        decompose(g, short, short)
    ua = SparseVector.from_sites(1, {}, {"a": (1.0, (parse_phase("g1"),))})
    va = SparseVector.from_sites(1, {}, {"a": (1.0, (parse_phase("g2"),))})
    with pytest.raises(ValueError):
        decompose(g, ua, va)


def test_decompose_json_shape():
    U = op((0,), form=("g1",))
    g = GPolynomial.make((U,), (mono([0, 1]),))
    u = SparseVector.basis(1, (0,))
    d = decompose(g, u, u).to_json_dict()
    assert set(d) >= {"nil_terms", "certificate", "sector"}
    assert d["certificate"]["kind"] == "empty"
    assert d["sector"]["lattice_compact"] is True
    assert len(d["nil_terms"]) == 1


# ----------------------------------------------------------- atom classes

def test_classify_atoms_by_rational_difference():
    polys = (mono([0, 1]),)
    atoms = [
        ("a", 0.25, (parse_phase("g1"),)),
        ("b", 0.25, (parse_phase("g1 + 1/2"),)),
        ("c", 0.30, (parse_phase("g2"),)),
        ("d", 0.20, (parse_phase("3/7"),)),
    ]
    part = classify_atoms(atoms, polys)
    groups = {cls.members: cls.mass for cls in part.classes}
    assert ("a", "b") in groups
    assert groups[("a", "b")] == pytest.approx(0.5)
    assert ("c",) in groups and ("d",) in groups
    assert part.w2_mass == pytest.approx(0.5 ** 2 + 0.3 ** 2 + 0.2 ** 2)
    assert part.case == "II"


def test_classify_atoms_empty_is_case_one():
    part = classify_atoms([], (mono([0, 1]),))
    assert part.classes == ()
    assert part.w2_mass == 0
    assert part.case == "I"


def test_classify_atoms_validation():
    with pytest.raises(ValueError):
        classify_atoms([("a", -0.1, (Z,))], (mono([0, 1]),))
    with pytest.raises(ValueError):
        classify_atoms([("a", 0.1, ())], (mono([0, 1]),))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=9))
def test_classify_atoms_rational_translation_invariant(q):
    polys = (mono([0, 1]), mono([0, 0, 1]))
    base = [
        ("a", 0.5, (parse_phase("g1"), parse_phase("1/3"))),
        ("b", 0.5, (parse_phase("g1"), parse_phase("g2"))),
    ]
    shifted = [
        (aid, m, (ph[0] + PhaseScalar.from_rational(q), ph[1]))
        for aid, m, ph in base]
    p1 = classify_atoms(base, polys)
    p2 = classify_atoms(shifted, polys)
    assert [c.members for c in p1.classes] == [c.members for c in p2.classes]


# ------------------------------------------------------------ Bochner data

def test_bochner_diagonal_measure():
    V1 = op((0, 0), form=("g1", "0"))
    V2 = op((0, 0), phase="1/6", form=("0", "g2"))
    u = SparseVector.from_sites(2, {(0, 0): 0.6, (1, -1): 0.8})
    meas = bochner_data([V1, V2], u, u)
    assert meas.total_weight() == pytest.approx(1.0)
    weights = sorted(a.weight.real for a in meas.atoms)
    assert weights == [pytest.approx(0.36), pytest.approx(0.64)]
    polys = (mono([0, 1]), mono([0, 0, 1]))
    g = GPolynomial.make((V1, V2), polys)
    phi = meas.sequence(polys)
    pair = g.pairing(u, u)
    for n in (-9, -2, 0, 1, 4, 11):
        assert abs(phi(n) - pair(n)) < 1e-12


def test_bochner_rejects_shifts():
    with pytest.raises(NotDiagonal):
        bochner_data([op((1, 0))], SparseVector.basis(2, (0, 0)),
                     SparseVector.basis(2, (0, 0)))
