"""Orbits and character sequences of integer toral automorphisms.

For a zero-entropy matrix the orbit phases along each residue class of
the unipotence order are integral-polynomial combinations of the initial
coordinates, so every character sequence e(<v, A^n x>) is assembled
exactly as an interleaving of polynomial phase sequences and carries a
Nil tag by construction.  Positive-entropy matrices still give orbits
and sequences, but no structure is claimed.

The Weyl test measures two-sided averages of e(k p(n)).  Rational
polynomials are folded over one exact period; otherwise the averages are
computed from blockwise-anchored phases.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exactnum import (
    EntropyReport,
    IntMatrix,
    PhasePolynomial,
    PhaseScalar,
    Record,
    classify_entropy,
    unipotent_power_polys,
)
from .nilseq import (
    SequenceStream,
    Tag,
    _TreeFold,
    e_phase,
    from_function,
    interleave,
    poly_exp,
)

__all__ = [
    "TorusPoint",
    "Character",
    "orbit_point",
    "CharacterSequence",
    "character_seq",
    "WeylHarmonic",
    "WeylReport",
    "weyl_test",
]


class TorusPoint(Record):
    """Point of the d-torus with exact coordinates in [0, 1)."""

    coords: tuple[PhaseScalar, ...]

    @staticmethod
    def make(coords: Sequence[PhaseScalar]) -> "TorusPoint":
        return TorusPoint(tuple(c.reduce_mod_1() for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)


class Character(Record):
    """Integer frequency vector v, pairing x -> e(<v, x>)."""

    vector: tuple[int, ...]

    def pair(self, x: TorusPoint) -> PhaseScalar:
        acc = PhaseScalar.zero()
        for vi, xi in zip(self.vector, x.coords):
            acc = acc + xi.scale(vi)
        return acc.reduce_mod_1()


def orbit_point(A: IntMatrix, x: TorusPoint, n: int) -> TorusPoint:
    """A^n x mod 1, exact; negative n uses the exact integer inverse."""
    M = A ** n
    coords = []
    for row in M.rows:
        acc = PhaseScalar.zero()
        for a, xi in zip(row, x.coords):
            acc = acc + xi.scale(a)
        coords.append(acc.reduce_mod_1())
    return TorusPoint(tuple(coords))


class CharacterSequence(Record):
    """a_n = e(<v, A^n x>) together with what is known about it.

    For zero entropy, residue_polys[r] is the phase polynomial f_r with
    a_{t m + r} = e(f_r(t)) and the stream is their interleaving (hence
    exactly a nilsequence); otherwise residue_polys is None and the
    stream evaluates through matrix powers with an Unknown tag.
    """

    stream: SequenceStream
    entropy: EntropyReport
    modulus: int | None
    residue_polys: tuple[PhasePolynomial, ...] | None


def character_seq(A: IntMatrix, x: TorusPoint, v: Character,
                  precision: str = "exact") -> CharacterSequence:
    if A.dim != x.dim or A.dim != len(v.vector):
        raise ValueError("dimension mismatch between matrix, point, character")
    report = classify_entropy(A)
    if not report.is_zero_entropy:
        def ev(n: int) -> complex:
            return e_phase(v.pair(orbit_point(A, x, n)).float_mod_1())

        stream = from_function(ev, bound=1.0, tag=Tag.unknown(),
                               provenance=f"character(dim={A.dim}, positive entropy)")
        return CharacterSequence(stream=stream, entropy=report,
                                 modulus=None, residue_polys=None)
    m = report.unipotence_order
    pp = unipotent_power_polys(A, m)
    polys = []
    for r in range(m):
        f_r = PhasePolynomial.zero()
        for i in range(A.dim):
            if v.vector[i] == 0:
                continue
            for j in range(A.dim):
                coeff = x.coords[j].scale(v.vector[i])
                f_r = f_r + PhasePolynomial.from_integral(pp.entry(r, i, j), coeff)
        polys.append(f_r)
    components = [poly_exp(f, precision) for f in polys]
    stream = interleave(components, m)
    return CharacterSequence(stream=stream, entropy=report, modulus=m,
                             residue_polys=tuple(polys))


# ---------------------------------------------------------------------------
# Weyl equidistribution averages


class WeylHarmonic(Record):
    """Two-sided Weyl means of one harmonic k at each checkpoint."""

    harmonic: int
    expect_zero: bool
    method: str                       # "periodic-fold" | "block"
    period: int | None
    means: tuple[complex, ...]        # two-sided means per checkpoint


class WeylReport(Record):
    """The Weyl means of every tested harmonic at the same checkpoints."""

    checkpoints: tuple[int, ...]
    harmonics: tuple[WeylHarmonic, ...]


def _rational_period(p: PhasePolynomial) -> int:
    """T with p(n + T) = p(n) mod 1 for all n; p must be rational."""
    T = 1
    for c in p.monomial_coefficients():
        T = math.lcm(T, c.rational.denominator)
    return T


# points evaluated at a time: bounds the memory, not the bits
_PIECE = 1 << 15


def weyl_test(p: PhasePolynomial, harmonics: Sequence[int],
              checkpoints: Sequence[int], precision: str = "exact") -> WeylReport:
    """Two-sided averages (1/(2N+1)) sum_{|n|<=N} e(k p(n)).

    expect_zero follows the equidistribution criterion: some nonconstant
    monomial coefficient of k p is irrational.  Rational k p is folded
    over an exact period: when the window covers whole periods the mean
    IS the one-period mean, by the same arithmetic; otherwise residue
    rho of the period has weight (N - rho)//T + (N + rho)//T + 1, its
    count of points in the window.  A period longer than the widest
    window goes the block route, so no harmonic evaluates more than
    2 max(checkpoints) + 1 points.  Each route takes its values from
    nilseq.poly_exp(k p), exact for the fold and in `precision` for the
    block route; both give each point the same bits however the window
    is cut.

    Both routes evaluate _PIECE points at a time, once for all
    checkpoints, and every sum is a tree_fold fed piece by piece
    (nilseq._TreeFold), which gives the bits of tree_fold over the whole
    array: memory is a few pieces, whatever N or T.
    """
    poly_exp(p, precision)  # ValueError for an unknown precision
    cks = sorted(int(k) for k in checkpoints)
    if not cks or cks[0] < 0:
        raise ValueError("need nonnegative checkpoints")
    n_max = cks[-1]
    out = []
    for k in harmonics:
        q = p.scale(k)
        expect = q.has_irrational_nonconstant()
        T = _rational_period(q) if q.is_rational() else None
        if T is not None and T <= 2 * n_max + 1:
            values = poly_exp(q).evaluate_block
            period = _TreeFold()
            partial = {N: _TreeFold() for N in cks if (2 * N + 1) % T}
            for lo in range(0, T, _PIECE):
                hi = min(lo + _PIECE, T)
                unit = values(lo, hi)
                period.feed(unit)
                rho = np.arange(lo, hi, dtype=np.int64)
                weighted = np.empty_like(unit)
                for N, fold in partial.items():
                    counts = (N - rho) // T + (N + rho) // T + 1
                    # real products; Python's c * u also adds 0 * the
                    # other part, which moves only the sign of a zero,
                    # and e(x) has no -0 part, so the sums are the same
                    np.multiply(counts, unit.real, out=weighted.real)
                    np.multiply(counts, unit.imag, out=weighted.imag)
                    fold.feed(weighted)
            period_mean = period.total() / T
            means = [partial[N].total() / (2 * N + 1) if N in partial
                     else period_mean for N in cks]
            out.append(WeylHarmonic(harmonic=k, expect_zero=expect,
                                    method="periodic-fold", period=T,
                                    means=tuple(means)))
        else:
            values = poly_exp(q, precision).evaluate_block
            folds = [_TreeFold() for _ in cks]
            for lo in range(-n_max, n_max + 1, _PIECE):
                hi = min(lo + _PIECE, n_max + 1)
                vals = values(lo, hi)
                for N, fold in zip(cks, folds):
                    # the overlap of [lo, hi) with the window [-N, N]
                    a, b = max(lo, -N), min(hi, N + 1)
                    if a < b:
                        fold.feed(vals[a - lo: b - lo])
            out.append(WeylHarmonic(harmonic=k, expect_zero=expect,
                                    method="block", period=None,
                                    means=tuple(fold.total() / (2 * N + 1)
                                                for N, fold in zip(cks, folds))))
    return WeylReport(checkpoints=tuple(cks), harmonics=tuple(out))
