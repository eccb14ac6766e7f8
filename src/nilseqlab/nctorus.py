"""Weyl-word algebra of the noncommutative torus and its automorphisms.

A word e(phase) u_1^{x_1}...u_d^{x_d} acts on the trace GNS space
l2(Z^d) as a spectral.ShiftPhaseOperator, so words multiply, power and
commute by that module's one 2-step nilpotent group law.  An integer
matrix S induces an automorphism sending u_j to the word of its j-th
column exactly when those column images keep the commutation relations
mod 1.  Iterating the automorphism on a word produces, along each
residue class of the unipotence order, integral exponent polynomials
and a phase polynomial of degree at most 2d-1.  Vector states on the
GNS space then give computable sequences rho(alpha^n u).

All phases are PhaseScalar values reduced mod 1; nothing here rounds.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from .exactnum import (
    HELD_OUT,
    IntMatrix,
    IntegralPolynomial,
    NotUnipotent,
    PhasePolynomial,
    PhaseScalar,
    Record,
    classify_entropy,
    congruent_mod_1,
    fit_phase_polynomial,
    unipotent_power_polys,
)
from .nilseq import SequenceStream, Tag, _Orbit, e_phase, from_function, phase_sum_block
from .spectral import (ShiftPhaseOperator, SparseVector, _canon_sites,
                       integer_hits, op_pow)

__all__ = [
    "NotCompatible",
    "DimensionMismatch",
    "NotUnitVector",
    "ThetaMatrix",
    "WeylWord",
    "word_identity",
    "word_mul",
    "word_pow",
    "commutator_phase",
    "apply_auto",
    "apply_auto_inverse",
    "WeylElement",
    "ResiduePhase",
    "PhasePolyReport",
    "iterate_phase_polys",
    "gns_apply",
    "state_seq",
]

# how far a state vector's norm may stand from 1
NORM_TOL = 1e-9


class NotCompatible(ValueError):
    """S'(Theta)S - Theta has a non-integer entry; no automorphism."""


class DimensionMismatch(ValueError):
    pass


class NotUnitVector(ValueError):
    pass


# ---------------------------------------------------------------------------
# commutation data


class ThetaMatrix(Record):
    """Skew-symmetric d x d matrix of PhaseScalar commutation phases."""

    entries: tuple[tuple[PhaseScalar, ...], ...]

    def __post_init__(self):
        d = len(self.entries)
        zero = PhaseScalar.zero()
        for j in range(d):
            if len(self.entries[j]) != d:
                raise DimensionMismatch("theta must be square")
            if self.entries[j][j] != zero:
                raise ValueError("theta diagonal must be zero")
            for k in range(j + 1, d):
                if self.entries[j][k] + self.entries[k][j] != zero:
                    raise ValueError(f"theta not skew-symmetric at ({j},{k})")

    @staticmethod
    def from_upper(d: int, upper: Mapping[tuple[int, int], PhaseScalar]) -> "ThetaMatrix":
        """Build from entries {(j,k): theta_jk} with j < k, 0-based."""
        zero = PhaseScalar.zero()
        rows = [[zero for _ in range(d)] for _ in range(d)]
        for (j, k), val in upper.items():
            if not 0 <= j < k < d:
                raise ValueError(f"need 0 <= j < k < d, got ({j},{k})")
            rows[j][k] = val
            rows[k][j] = -val
        return ThetaMatrix(tuple(tuple(r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, j: int, k: int) -> PhaseScalar:
        return self.entries[j][k]


# ---------------------------------------------------------------------------
# words


class WeylWord(Record):
    """e(phase) u_1^{x_1} ... u_d^{x_d}, phase kept reduced mod 1."""

    phase: PhaseScalar
    exponents: tuple[int, ...]

    @staticmethod
    def make(exponents: Sequence[int],
             phase: PhaseScalar | None = None) -> "WeylWord":
        if phase is None:
            phase = PhaseScalar.zero()
        return WeylWord(phase.reduce_mod_1(), tuple(int(x) for x in exponents))

    @property
    def dim(self) -> int:
        return len(self.exponents)


def word_identity(d: int) -> WeylWord:
    return WeylWord.make([0] * d)


def _word_op(x: Sequence[int], phase: PhaseScalar,
             theta: ThetaMatrix) -> ShiftPhaseOperator:
    """e(phase) u^x on the GNS space: delta_k -> e(phase + L_x(k)) delta_{x+k}.

    L_x[k] = sum_{j>k} x_j theta_jk is the phase of moving u^k past u^x
    into normal order, so operator products are word products.
    """
    d = theta.dim
    form = [sum((theta.entries[j][k].scale(x[j])
                 for j in range(k + 1, d) if x[j]), PhaseScalar.zero())
            for k in range(d)]
    return ShiftPhaseOperator.make(x, phase, form)


def _as_word(op: ShiftPhaseOperator) -> WeylWord:
    return WeylWord(op.phase.reduce_mod_1(), op.shift)


def word_mul(a: WeylWord, b: WeylWord, theta: ThetaMatrix) -> WeylWord:
    if a.dim != b.dim or a.dim != theta.dim:
        raise DimensionMismatch("word/theta dimensions differ")
    return _as_word(_word_op(a.exponents, a.phase, theta).compose(
        _word_op(b.exponents, b.phase, theta)))


def word_pow(w: WeylWord, q: int, theta: ThetaMatrix) -> WeylWord:
    """w^q in closed form, valid for every integer q."""
    if w.dim != theta.dim:
        raise DimensionMismatch("word/theta dimensions differ")
    return _as_word(op_pow(_word_op(w.exponents, w.phase, theta), q))


def commutator_phase(x: Sequence[int], y: Sequence[int],
                     theta: ThetaMatrix) -> PhaseScalar:
    """c with u^x u^y = e(c) u^y u^x."""
    zero = PhaseScalar.zero()
    return _word_op(x, zero, theta).commutator_phase(
        _word_op(y, zero, theta)).reduce_mod_1()


@functools.lru_cache(maxsize=64)
def _check_compatible(S: IntMatrix, theta: ThetaMatrix):
    """The column images u^{S e_j} and a call giving S^-1, once alpha_S is
    known to exist: when the images keep u_j u_k = e(theta_jk) u_k u_j
    mod 1.  Their commutator phase is (S' Theta S)_jk, so this tests that
    S' Theta S - Theta is integral.  S^-1 waits for the first backward
    step, since a compatible S need not be invertible to map forward."""
    d = theta.dim
    if S.dim != d:
        raise DimensionMismatch("matrix and theta dimensions differ")
    zero = PhaseScalar.zero()
    images = tuple(_word_op([S.rows[i][j] for i in range(d)], zero, theta)
                   for j in range(d))
    for j in range(d):
        for k in range(j + 1, d):
            c = images[j].commutator_phase(images[k])
            if not congruent_mod_1(c, theta.entries[j][k]):
                raise NotCompatible(
                    f"S'(Theta)S - Theta not integral at ({j},{k})")
    return images, functools.cache(S.inverse)


def apply_auto(S: IntMatrix, w: WeylWord, theta: ThetaMatrix) -> WeylWord:
    """Automorphism sending u_j to the word with exponents = column j of S:
    the product of the column images' powers, times e(w.phase)."""
    images, _ = _check_compatible(S, theta)
    if w.dim != S.dim:
        raise DimensionMismatch("word/matrix dimensions differ")
    powers = [op_pow(image, xj) for image, xj in zip(images, w.exponents) if xj]
    op = (functools.reduce(ShiftPhaseOperator.compose, powers) if powers
          else ShiftPhaseOperator.identity(S.dim))
    return WeylWord((op.phase + w.phase).reduce_mod_1(), op.shift)


def apply_auto_inverse(S: IntMatrix, w: WeylWord, theta: ThetaMatrix) -> WeylWord:
    """The inverse automorphism: exponents map by S^-1, phase balances."""
    _, inverse = _check_compatible(S, theta)
    y = inverse().apply(w.exponents)
    forward = apply_auto(S, WeylWord.make(y), theta)
    return WeylWord((w.phase - forward.phase).reduce_mod_1(), tuple(y))


# ---------------------------------------------------------------------------
# finite combinations


class WeylElement(Record):
    """Finitely supported sum of words; no zero coefficients stored."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_terms(dim: int,
                   mapping: Mapping[Sequence[int], complex]) -> "WeylElement":
        return WeylElement(dim, _canon_sites(dim, mapping, DimensionMismatch))

    @staticmethod
    def from_word(w: WeylWord) -> "WeylElement":
        return WeylElement.from_terms(
            w.dim, {w.exponents: e_phase(w.phase.float_mod_1())})

    def trace(self) -> complex:
        zero = tuple([0] * self.dim)
        for exps, c in self.terms:
            if exps == zero:
                return c
        return 0j

    def scale(self, z: complex) -> "WeylElement":
        return WeylElement.from_terms(self.dim,
                                      {e: c * z for e, c in self.terms})

    def add(self, other: "WeylElement") -> "WeylElement":
        if self.dim != other.dim:
            raise DimensionMismatch("element dimensions differ")
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return WeylElement.from_terms(self.dim, d)

    def mul(self, other: "WeylElement", theta: ThetaMatrix) -> "WeylElement":
        if self.dim != other.dim:
            raise DimensionMismatch("element dimensions differ")
        out: dict[tuple[int, ...], complex] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                w = word_mul(WeylWord.make(ea), WeylWord.make(eb), theta)
                key = w.exponents
                out[key] = out.get(key, 0) + ca * cb * e_phase(w.phase.float_mod_1())
        return WeylElement.from_terms(self.dim, out)

    def adjoint(self, theta: ThetaMatrix) -> "WeylElement":
        """(e(phi) u^x)* = e(-phi) (u^x)^-1 = word_pow(u^x, -1) with e(-phi)."""
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms:
            w = word_pow(WeylWord.make(e), -1, theta)
            key = w.exponents
            out[key] = out.get(key, 0) + c.conjugate() * e_phase(w.phase.float_mod_1())
        return WeylElement.from_terms(self.dim, out)

    def apply_auto(self, S: IntMatrix, theta: ThetaMatrix) -> "WeylElement":
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms:
            w = apply_auto(S, WeylWord.make(e), theta)
            key = w.exponents
            out[key] = out.get(key, 0) + c * e_phase(w.phase.float_mod_1())
        return WeylElement.from_terms(self.dim, out)


# ---------------------------------------------------------------------------
# iterated automorphism phases


class ResiduePhase(Record):
    """alpha^{tm+r}(u^rho) = e(phase_poly(t)) u^{exponent_polys(t)}."""

    residue: int
    phase_poly: PhasePolynomial
    exponent_polys: tuple[IntegralPolynomial, ...]


class PhasePolyReport(Record):
    """alpha^n(u^rho) in closed form: one ResiduePhase per residue mod m."""

    modulus: int
    dim: int
    base_exponents: tuple[int, ...]
    residues: tuple[ResiduePhase, ...]
    degree_bound: int

    def split(self, n: int) -> tuple[int, int]:
        r = n % self.modulus
        return (n - r) // self.modulus, r

    def phase_at(self, n: int) -> PhaseScalar:
        t, r = self.split(n)
        return self.residues[r].phase_poly(t).reduce_mod_1()

    def exponents_at(self, n: int) -> tuple[int, ...]:
        t, r = self.split(n)
        return tuple(p(t) for p in self.residues[r].exponent_polys)

    def word_at(self, n: int) -> WeylWord:
        return WeylWord(self.phase_at(n), self.exponents_at(n))


def iterate_phase_polys(S: IntMatrix, theta: ThetaMatrix,
                        rho: Sequence[int],
                        m: int | None = None) -> PhasePolyReport:
    """Closed form of alpha^n(u^rho) along residue classes mod m.

    Exponent polynomials come from the closed-form unipotent powers of
    S applied to rho; the phase polynomial per residue is fitted from
    word iteration at degree bound 2d-1 and verified on held-out
    points, so a wrong bound surfaces as DegreeBoundExceeded rather
    than silent error.
    """
    _check_compatible(S, theta)
    d = S.dim
    rho = tuple(int(x) for x in rho)
    if len(rho) != d:
        raise DimensionMismatch("exponent vector has wrong length")
    if m is None:
        report = classify_entropy(S)
        if not report.is_zero_entropy:
            raise NotUnipotent("matrix has positive entropy; no closed form")
        m = report.unipotence_order
    pp = unipotent_power_polys(S, m)
    bound = 2 * d - 1
    # alpha^n(u^rho) for every n the fits and cross-checks read
    words = [WeylWord.make(rho)]
    while len(words) < m * (bound + 1 + HELD_OUT):
        words.append(apply_auto(S, words[-1], theta))
    residues = []
    for r in range(m):
        exps = []
        for i in range(d):
            acc = IntegralPolynomial.constant(0)
            for j in range(d):
                if rho[j]:
                    acc = acc + pp.entry(r, i, j).scale(rho[j])
            exps.append(acc)

        def phase_eval(t: int, _r=r) -> PhaseScalar:
            return words[t * m + _r].phase

        poly = fit_phase_polynomial(phase_eval, bound)
        # exponent cross-check on the same sample range the fit used
        for t in range(bound + 1 + HELD_OUT):
            w = words[t * m + r]
            got = tuple(p(t) for p in exps)
            if w.exponents != got:
                raise AssertionError(
                    f"exponent closed form disagrees at t={t}, r={r}")
        residues.append(ResiduePhase(residue=r, phase_poly=poly,
                                     exponent_polys=tuple(exps)))
    return PhasePolyReport(modulus=m, dim=d, base_exponents=rho,
                           residues=tuple(residues), degree_bound=bound)


# ---------------------------------------------------------------------------
# GNS representation of the trace


def gns_apply(w: WeylWord, psi: SparseVector, theta: ThetaMatrix) -> SparseVector:
    """Left multiplication by w on l2(Z^d): delta_rho -> e(...) delta_{x+rho}."""
    if psi.dim != theta.dim or w.dim != theta.dim:
        raise DimensionMismatch("word/vector/theta dimensions differ")
    if psi.atoms:
        raise DimensionMismatch("GNS vectors are lattice-only")
    return psi.apply_operator(_word_op(w.exponents, w.phase, theta))


def _site_pair_value(x: tuple[int, ...], w: SparseVector, theta: ThetaMatrix,
                     extra_phase: PhaseScalar) -> complex:
    """<e(extra) u^x w, w> over the lattice, exact phases."""
    w_dict = w.site_dict()
    lands = [(site, c, w_dict[nk]) for site, c in w.sites
             if (nk := tuple(a + b for a, b in zip(x, site))) in w_dict]
    if not lands:
        return 0j
    op = _word_op(x, extra_phase, theta)
    total = 0j
    for site, c, v in lands:
        ph = op.phase + op.form_at(site)
        total += c * e_phase(ph.float_mod_1()) * v.conjugate()
    return total


def state_seq(S: IntMatrix, theta: ThetaMatrix, u: WeylElement,
              w: SparseVector, precision: str = "exact") -> SequenceStream:
    """rho(alpha^n u) = <pi(alpha^n u) w, w> for the vector state at w.

    For zero-entropy S the sequence comes from the residue closed
    forms: constant-exponent residues contribute phase-polynomial
    modulations, nonconstant ones contribute only on a finite hit set,
    which is exactly the nilsequence-plus-zero-density shape, so the
    stream is tagged AlmostNil.  Positive entropy falls back to direct
    word iteration with an Unknown tag.
    """
    _check_compatible(S, theta)
    d = theta.dim
    if u.dim != d or w.dim != d:
        raise DimensionMismatch("element/vector/theta dimensions differ")
    if w.atoms:
        raise DimensionMismatch("GNS vectors are lattice-only")
    if abs(w.norm() - 1.0) > NORM_TOL:
        raise NotUnitVector(f"norm {w.norm()!r} not within {NORM_TOL} of 1")

    entropy = classify_entropy(S)

    if not entropy.is_zero_entropy:
        step = functools.partial(apply_auto, S, theta=theta)
        step_back = functools.partial(apply_auto_inverse, S, theta=theta)
        orbits = {exps: _Orbit(WeylWord.make(exps), step, step_back)
                  for exps, _ in u.terms}

        def ev_direct(n: int) -> complex:
            total = 0j
            for exps, c in u.terms:
                wn = orbits[exps](n)
                total += c * _site_pair_value(wn.exponents, w, theta,
                                              wn.phase)
            return total

        return from_function(
            ev_direct, bound=float(sum(abs(c) for _, c in u.terms)),
            tag=Tag.unknown(),
            provenance=f"nc-torus state sequence (dim {d}, positive entropy)")

    reports = {exps: iterate_phase_polys(S, theta, exps, entropy.unipotence_order)
               for exps, _ in u.terms}
    m = next(iter(reports.values())).modulus if reports else 1

    # per residue, constant exponents give a pure phase modulation;
    # nonconstant ones hit a finite n set found exactly
    max_deg = 1
    mod_terms = []       # (coeff complex, residue, phase_poly)
    hit_values: dict[int, complex] = {}
    for exps, c in u.terms:
        rep = reports[exps]
        for rp in rep.residues:
            max_deg = max(max_deg, rp.phase_poly.degree)
            if all(p.is_constant() for p in rp.exponent_polys):
                xbar = tuple(p(0) for p in rp.exponent_polys)
                base = _site_pair_value(xbar, w, theta, PhaseScalar.zero())
                if base != 0:
                    mod_terms.append((c * base, rp.residue, rp.phase_poly))
                continue
            t_hits = {t for ku, _ in w.sites for kv, _ in w.sites
                      for t in integer_hits(rp.exponent_polys,
                                            [b - a for a, b in zip(ku, kv)])}
            for t in t_hits:
                n = t * m + rp.residue
                wn = rep.word_at(n)
                val = c * _site_pair_value(wn.exponents, w, theta, wn.phase)
                if val != 0:
                    hit_values[n] = hit_values.get(n, 0) + val

    bound = float(sum(abs(c) for _, c in u.terms))
    return SequenceStream(
        phase_sum_block(mod_terms, m, hit_values, precision),
        bound=bound, tag=Tag.almost_nil(max_deg),
        provenance=f"nc-torus state sequence (dim {d}, modulus {m})")
