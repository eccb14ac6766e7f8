"""Weyl-word algebra of the noncommutative torus and its automorphisms.

Words e(phase) u_1^{x_1}...u_d^{x_d} multiply with an exact phase
correction from the commutation data, an integer matrix S compatible
with that data induces an automorphism sending u_j to the word of its
j-th column, and iterating the automorphism on a word produces, along
each residue class of the unipotence order, integral exponent
polynomials and a phase polynomial of degree at most 2d-1.  Vector
states on the trace GNS space then give computable sequences
rho(alpha^n u).

All phases are PhaseScalar values reduced mod 1; nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .exactnum import (
    HELD_OUT,
    IntMatrix,
    IntegralPolynomial,
    NotUnipotent,
    PhasePolynomial,
    PhaseScalar,
    binom_int,
    classify_entropy,
    fit_phase_polynomial,
    unipotent_power_polys,
)
from .nilseq import SequenceStream, Tag, e_phase, from_function, phase_sum_block
from .spectral import SparseVector, integer_hits

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


@dataclass(frozen=True)
class ThetaMatrix:
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


def _check_compatible(S: IntMatrix, theta: ThetaMatrix) -> None:
    d = theta.dim
    if S.dim != d:
        raise DimensionMismatch("matrix and theta dimensions differ")
    key = (S.rows, theta.entries)
    if key in _COMPAT_CACHE:
        return
    # (S' Theta S)_{jk} - theta_{jk} must be an integer for all j,k
    for j in range(d):
        for k in range(d):
            acc = -theta.entries[j][k]
            for a in range(d):
                saj = S.rows[a][j]
                if saj == 0:
                    continue
                for b in range(d):
                    sbk = S.rows[b][k]
                    if sbk == 0:
                        continue
                    acc = acc + theta.entries[a][b].scale(saj * sbk)
            if not acc.is_integer():
                raise NotCompatible(
                    f"S'(Theta)S - Theta not integral at ({j},{k})")
    _COMPAT_CACHE.add(key)


_COMPAT_CACHE: set = set()


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class WeylWord:
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


def _reorder_phase(x: Sequence[int], y: Sequence[int],
                   theta: ThetaMatrix) -> PhaseScalar:
    """Phase from moving u^y past u^x into normal order: sum_{k<j} x_j y_k theta_jk."""
    acc = PhaseScalar.zero()
    for k in range(theta.dim):
        yk = y[k]
        if yk == 0:
            continue
        for j in range(k + 1, theta.dim):
            if x[j] == 0:
                continue
            acc = acc + theta.entries[j][k].scale(x[j] * yk)
    return acc


def word_mul(a: WeylWord, b: WeylWord, theta: ThetaMatrix) -> WeylWord:
    if a.dim != b.dim or a.dim != theta.dim:
        raise DimensionMismatch("word/theta dimensions differ")
    phase = a.phase + b.phase + _reorder_phase(a.exponents, b.exponents, theta)
    exps = tuple(xa + xb for xa, xb in zip(a.exponents, b.exponents))
    return WeylWord(phase.reduce_mod_1(), exps)


def word_pow(w: WeylWord, q: int, theta: ThetaMatrix) -> WeylWord:
    """w^q in closed form, valid for every integer q."""
    if w.dim != theta.dim:
        raise DimensionMismatch("word/theta dimensions differ")
    q = int(q)
    c = _reorder_phase(w.exponents, w.exponents, theta)
    phase = w.phase.scale(q) + c.scale(binom_int(q, 2))
    return WeylWord(phase.reduce_mod_1(), tuple(q * x for x in w.exponents))


def commutator_phase(x: Sequence[int], y: Sequence[int],
                     theta: ThetaMatrix) -> PhaseScalar:
    """c with u^x u^y = e(c) u^y u^x."""
    return (_reorder_phase(x, y, theta) - _reorder_phase(y, x, theta)).reduce_mod_1()


def apply_auto(S: IntMatrix, w: WeylWord, theta: ThetaMatrix) -> WeylWord:
    """Automorphism sending u_j to the word with exponents = column j of S."""
    _check_compatible(S, theta)
    if w.dim != S.dim:
        raise DimensionMismatch("word/matrix dimensions differ")
    d = S.dim
    out = WeylWord.make([0] * d, w.phase)
    for j in range(d):
        xj = w.exponents[j]
        if xj == 0:
            continue
        col = WeylWord.make([S.rows[i][j] for i in range(d)])
        out = word_mul(out, word_pow(col, xj, theta), theta)
    return out


def apply_auto_inverse(S: IntMatrix, w: WeylWord, theta: ThetaMatrix) -> WeylWord:
    """The inverse automorphism: exponents map by S^-1, phase balances."""
    _check_compatible(S, theta)
    Sinv = S.inverse()
    y = Sinv.apply(w.exponents)
    forward = apply_auto(S, WeylWord.make(y), theta)
    return WeylWord((w.phase - forward.phase).reduce_mod_1(), tuple(y))


# ---------------------------------------------------------------------------
# finite combinations


@dataclass(frozen=True)
class WeylElement:
    """Finitely supported sum of words; no zero coefficients stored."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_terms(dim: int,
                   mapping: Mapping[Sequence[int], complex]) -> "WeylElement":
        items = []
        for exps, c in mapping.items():
            exps = tuple(int(x) for x in exps)
            if len(exps) != dim:
                raise DimensionMismatch(f"exponent vector {exps} has wrong length")
            c = complex(c)
            if c != 0:
                items.append((exps, c))
        items.sort(key=lambda kv: kv[0])
        return WeylElement(dim, tuple(items))

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


class _WordOrbit:
    """alpha^n(w0) with cached two-sided iteration."""

    def __init__(self, S: IntMatrix, theta: ThetaMatrix, w0: WeylWord):
        _check_compatible(S, theta)
        self._S = S
        self._theta = theta
        self._fwd = [w0]          # indices 0, 1, 2, ...
        self._bwd = [w0]          # indices 0, -1, -2, ...

    def __call__(self, n: int) -> WeylWord:
        n = int(n)
        if n >= 0:
            while len(self._fwd) <= n:
                self._fwd.append(
                    apply_auto(self._S, self._fwd[-1], self._theta))
            return self._fwd[n]
        while len(self._bwd) <= -n:
            self._bwd.append(
                apply_auto_inverse(self._S, self._bwd[-1], self._theta))
        return self._bwd[-n]


@dataclass(frozen=True)
class ResiduePhase:
    """alpha^{tm+r}(u^rho) = e(phase_poly(t)) u^{exponent_polys(t)}."""

    residue: int
    phase_poly: PhasePolynomial
    exponent_polys: tuple[IntegralPolynomial, ...]


@dataclass(frozen=True)
class PhasePolyReport:
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
    orbit = _WordOrbit(S, theta, WeylWord.make(rho))
    bound = 2 * d - 1
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
            return orbit(t * m + _r).phase

        poly = fit_phase_polynomial(phase_eval, bound)
        # exponent cross-check on the same sample range the fit used
        for t in range(bound + 1 + HELD_OUT):
            w = orbit(t * m + r)
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
    out: dict[tuple[int, ...], complex] = {}
    for site, c in psi.sites:
        ph = w.phase + _reorder_phase(w.exponents, site, theta)
        nk = tuple(a + b for a, b in zip(w.exponents, site))
        out[nk] = out.get(nk, 0) + c * e_phase(ph.float_mod_1())
    return SparseVector.from_sites(psi.dim, out)


def _site_pair_value(x: tuple[int, ...], w_sites, w_dict, theta: ThetaMatrix,
                     extra_phase: PhaseScalar) -> complex:
    """<e(extra) u^x psi, psi> over the lattice, exact phases."""
    total = 0j
    for site, c in w_sites:
        nk = tuple(a + b for a, b in zip(x, site))
        if nk not in w_dict:
            continue
        ph = extra_phase + _reorder_phase(x, site, theta)
        total += c * e_phase(ph.float_mod_1()) * w_dict[nk].conjugate()
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

    w_sites = w.sites
    w_dict = w.site_dict()
    entropy = classify_entropy(S)

    if not entropy.is_zero_entropy:
        orbits = {exps: _WordOrbit(S, theta, WeylWord.make(exps))
                  for exps, _ in u.terms}

        def ev_direct(n: int) -> complex:
            total = 0j
            for exps, c in u.terms:
                wn = orbits[exps](n)
                total += c * _site_pair_value(wn.exponents, w_sites, w_dict,
                                              theta, wn.phase)
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
                base = _site_pair_value(xbar, w_sites, w_dict, theta,
                                        PhaseScalar.zero())
                if base != 0:
                    mod_terms.append((c * base, rp.residue, rp.phase_poly))
                continue
            t_hits = {t for ku, _ in w_sites for kv, _ in w_sites
                      for t in integer_hits(rp.exponent_polys,
                                            [b - a for a, b in zip(ku, kv)])}
            for t in t_hits:
                n = t * m + rp.residue
                wn = rep.word_at(n)
                val = c * _site_pair_value(wn.exponents, w_sites, w_dict,
                                           theta, wn.phase)
                if val != 0:
                    hit_values[n] = hit_values.get(n, 0) + val

    bound = float(sum(abs(c) for _, c in u.terms))
    return SequenceStream(
        phase_sum_block(mod_terms, m, hit_values, precision),
        bound=bound, tag=Tag.almost_nil(max_deg),
        provenance=f"nc-torus state sequence (dim {d}, modulus {m})")
