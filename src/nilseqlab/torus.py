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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactnum import (
    EntropyReport,
    IntMatrix,
    PhasePolynomial,
    PhaseScalar,
    classify_entropy,
    congruent_mod_1,
    unipotent_power_polys,
)
from .nilseq import (
    SequenceStream,
    Tag,
    e_array,
    e_phase,
    interleave,
    phase_block_exact,
    phase_block_fast,
    poly_exp,
)
from .mobius import tree_fold

__all__ = [
    "MismatchAt",
    "TorusPoint",
    "Character",
    "orbit_point",
    "CharacterSequence",
    "character_seq",
    "verify_polynomial_form",
    "WeylHarmonic",
    "WeylReport",
    "weyl_test",
]


class MismatchAt(AssertionError):
    """Polynomial route and matrix-power route disagreed at some n."""

    def __init__(self, n: int, message: str = ""):
        self.n = n
        super().__init__(message or f"routes disagree at n={n}")


@dataclass(frozen=True)
class TorusPoint:
    """Point of the d-torus with exact coordinates in [0, 1)."""

    coords: tuple[PhaseScalar, ...]

    @staticmethod
    def make(coords: Sequence[PhaseScalar]) -> "TorusPoint":
        return TorusPoint(tuple(c.reduce_mod_1() for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Character:
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


@dataclass(frozen=True)
class CharacterSequence:
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


def _direct_character_eval(A: IntMatrix, x: TorusPoint, v: Character):
    def ev(n: int) -> complex:
        return e_phase(v.pair(orbit_point(A, x, n)).float_mod_1())
    return ev


def character_seq(A: IntMatrix, x: TorusPoint, v: Character,
                  precision: str = "exact") -> CharacterSequence:
    if A.dim != x.dim or A.dim != len(v.vector):
        raise ValueError("dimension mismatch between matrix, point, character")
    report = classify_entropy(A)
    if not report.is_zero_entropy:
        stream = SequenceStream(
            evaluate=_direct_character_eval(A, x, v), bound=1.0,
            tag=Tag.unknown(),
            provenance=f"character(dim={A.dim}, positive entropy)",
        )
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


def verify_polynomial_form(A: IntMatrix, x: TorusPoint, v: Character,
                           ns: Sequence[int]) -> int:
    """Check the polynomial route against matrix powers at each n.

    Both sides are exact scalars; any discrepancy raises MismatchAt.
    Returns the number of points checked.
    """
    cs = character_seq(A, x, v)
    if cs.residue_polys is None:
        raise ValueError("matrix has positive entropy, no polynomial form")
    m = cs.modulus
    for n in ns:
        r = n % m
        t = (n - r) // m
        poly_val = cs.residue_polys[r](t)
        direct = v.pair(orbit_point(A, x, n))
        if not congruent_mod_1(poly_val, direct):
            raise MismatchAt(n)
    return len(ns)


# ---------------------------------------------------------------------------
# Weyl equidistribution averages


@dataclass(frozen=True)
class WeylHarmonic:
    harmonic: int
    expect_zero: bool
    method: str                       # "periodic-fold" | "block"
    period: int | None
    means: tuple[complex, ...]        # two-sided means per checkpoint

    def abs_means(self) -> tuple[float, ...]:
        return tuple(abs(s) for s in self.means)


@dataclass(frozen=True)
class WeylReport:
    checkpoints: tuple[int, ...]
    harmonics: tuple[WeylHarmonic, ...]


def _rational_period(p: PhasePolynomial) -> int:
    """T with p(n + T) = p(n) mod 1 for all n; p must be rational."""
    mono = p.to_monomial()
    T = 1
    for c in mono.coeffs:
        T = math.lcm(T, c.rational.denominator)
    return T


def weyl_test(p: PhasePolynomial, harmonics: Sequence[int],
              checkpoints: Sequence[int], precision: str = "fast") -> WeylReport:
    """Two-sided averages (1/(2N+1)) sum_{|n|<=N} e(k p(n)).

    expect_zero follows the equidistribution criterion: some nonconstant
    monomial coefficient of k p is irrational.  Rational k p is folded
    over an exact period: when the window covers whole periods the mean
    IS the one-period mean, by the same arithmetic.
    """
    cks = sorted(int(k) for k in checkpoints)
    if not cks or cks[0] < 0:
        raise ValueError("need nonnegative checkpoints")
    out = []
    for k in harmonics:
        q = p.scale(k)
        expect = q.has_irrational_nonconstant()
        if q.is_rational():
            T = _rational_period(q)
            unit = e_array(phase_block_exact(q, 0, T))
            period_mean = tree_fold(unit) / T
            means = []
            for N in cks:
                total_count = 2 * N + 1
                if total_count % T == 0:
                    means.append(period_mean)
                    continue
                counts = [( (N - rho) // T ) - math.ceil((-N - rho) / T) + 1 for rho in range(T)]
                s = tree_fold(np.array([c * u for c, u in zip(counts, unit.tolist())],
                                       dtype=np.complex128))
                means.append(s / total_count)
            out.append(WeylHarmonic(harmonic=k, expect_zero=expect,
                                    method="periodic-fold", period=T,
                                    means=tuple(means)))
        else:
            n_max = cks[-1]
            phases_fn = phase_block_fast if precision == "fast" else phase_block_exact
            phases = phases_fn(q, -n_max, n_max + 1)
            vals = e_array(phases)
            means = []
            for N in cks:
                window = vals[n_max - N: n_max + N + 1]
                means.append(tree_fold(window) / (2 * N + 1))
            out.append(WeylHarmonic(harmonic=k, expect_zero=expect,
                                    method="block", period=None,
                                    means=tuple(means)))
    return WeylReport(checkpoints=tuple(cks), harmonics=tuple(out))
