"""Bounded sequence streams with provenance-tracked structure tags.

A stream pairs an evaluator n -> complex with a sup bound and a tag
saying what is actually known about the sequence: Nil(k) for an exact
k-step nilsequence built by a closed construction, ZeroDensity for a
sequence whose two-sided Cesaro averages of |a_n| vanish, AlmostNil for
nilsequence + zero-density, Unknown otherwise.  Tags only propagate
along operations that provably preserve them; nothing ever upgrades a
tag heuristically.

Constructors: polynomial phase exponentials, the quadratic sequence,
theta-kernel sequences on the Heisenberg side, iterated skew products
realizing binomial phase polynomials, and interleavings along residue
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactnum import (
    PhasePolynomial,
    PhaseScalar,
    binom_int,
)

__all__ = [
    "ArityMismatch",
    "DegreeZero",
    "Tag",
    "SequenceStream",
    "constant",
    "indicator",
    "from_function",
    "e_phase",
    "e_array",
    "E_ABS_ERROR",
    "exp_nonpos",
    "EXP_REL_ERROR",
    "poly_exp",
    "quadratic_seq",
    "theta_kappa",
    "heisenberg_seq",
    "SkewProductState",
    "furstenberg_orbit",
    "interleave",
    "deinterleave",
    "PhaseKernel",
    "phase_block_exact",
    "phase_block_fast",
]


class ArityMismatch(ValueError):
    """Interleaving arity does not divide the data as required."""


class DegreeZero(ValueError):
    """A construction that needs a nonconstant polynomial got a constant."""


TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# e(x) = exp(2 pi i x), from correctly rounded + - * and rint only
#
# No libm call and no BLAS: every operation below is a single IEEE
# double operation, so the bits of e(x) are the same on every machine
# (libm builds of sin/cos differ in the last bit between SIMD variants).
# x = m + (j + r)/4 with m, j integers and |r| <= 1/2, found exactly:
# x - rint(x), the scaling by 4 and t - rint(t) are all exact.  Then
# e(x) = i^j (cos(pi r/2) + i sin(pi r/2)), and the two quarter-turn
# functions are Taylor polynomials in r^2 with pi/2 folded into the
# coefficients (round-to-nearest doubles of the exact values).  The
# truncation error at |r| = 1/2 is 4.6e-17 (sin) and 2.0e-18 (cos).
# Adding the worst case of every rounding to it gives 2.17e-16, so each
# component of e(x) is within 2.2e-16 of the true value at the exact
# double x; the largest error seen against mpmath is 1.9e-16.

# i^j for j mod 4.  The products in a complex multiply by 0 and +-1 are
# exact, so fused or unfused, the result bits are the same.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)
_QUARTER_TURNS_ARRAY = np.array(_QUARTER_TURNS, dtype=np.complex128)

E_ABS_ERROR = 2.2e-16
"""Documented bound on |component of e(x) - exact value| for any finite x."""


def _quarter_cos_sin(r):
    """(cos(pi r/2), sin(pi r/2)) for |r| <= 1/2.

    r is a Python float or a float64 array; both run the same sequence
    of roundings, so the scalar and array entry points agree bit for bit.
    Coefficients: (-1)^k (pi/2)^(2k+1) / (2k+1)!, k = 0..7, for sin and
    (-1)^k (pi/2)^(2k) / (2k)!, k = 0..8, for cos, inlined as literals
    because the scalar path runs once per point in the exact routes.
    """
    r2 = r * r
    s = r * (1.5707963267948966 + r2 * (-0.6459640975062463 + r2 * (
        0.07969262624616705 + r2 * (-0.004681754135318688 + r2 * (
            0.00016044118478735983 + r2 * (-3.598843235212085e-06 + r2 * (
                5.692172921967927e-08 + r2 * -6.688035109811468e-10)))))))
    c = 1.0 + r2 * (-1.2337005501361697 + r2 * (0.25366950790104803 + r2 * (
        -0.02086348076335296 + r2 * (0.0009192602748394266 + r2 * (
            -2.5202042373060607e-05 + r2 * (4.710874778818172e-07 + r2 * (
                -6.386603083791852e-09 + r2 * 6.565963114979473e-11)))))))
    return c, s


_E_CHUNK = 1 << 14  # bounds the kernel's temporaries; no effect on the bits


def e_array(x) -> np.ndarray:
    """e(x) elementwise for a float64 array of any shape."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for a in range(0, flat_x.size, _E_CHUNK):
        xs = flat_x[a: a + _E_CHUNK]
        t = (xs - np.rint(xs)) * 4.0
        j = np.rint(t)
        c, s = _quarter_cos_sin(t - j)
        dst = flat_out[a: a + _E_CHUNK]
        dst.real = c
        dst.imag = s
        dst *= _QUARTER_TURNS_ARRAY[j.astype(np.intp) & 3]
    return out


def e_phase(x: float) -> complex:
    """e(x) = exp(2 pi i x) for one real x; bit-identical to e_array."""
    x = float(x)
    t = (x - round(x)) * 4.0
    j = round(t)
    c, s = _quarter_cos_sin(t - j)
    return complex(c, s) * _QUARTER_TURNS[j & 3]


@dataclass(frozen=True)
class Tag:
    kind: str  # "nil" | "zero_density" | "almost_nil" | "unknown"
    step: int | None = None

    @staticmethod
    def nil(step: int) -> "Tag":
        if step < 1:
            raise ValueError("nil step must be >= 1")
        return Tag("nil", int(step))

    @staticmethod
    def zero_density() -> "Tag":
        return Tag("zero_density")

    @staticmethod
    def almost_nil(step: int | None = None) -> "Tag":
        return Tag("almost_nil", step)

    @staticmethod
    def unknown() -> "Tag":
        return Tag("unknown")

    def __str__(self) -> str:
        if self.kind == "nil":
            return f"Nil(step {self.step})"
        return {"zero_density": "ZeroDensity", "almost_nil": "AlmostNil",
                "unknown": "Unknown"}[self.kind]


def _join_step(a: Tag, b: Tag) -> int | None:
    steps = [t.step for t in (a, b) if t.step is not None]
    return max(steps) if steps else None


def _tag_add(a: Tag, b: Tag) -> Tag:
    kinds = {a.kind, b.kind}
    if "unknown" in kinds:
        return Tag.unknown()
    if kinds == {"nil"}:
        return Tag("nil", _join_step(a, b))
    if kinds == {"zero_density"}:
        return Tag.zero_density()
    # any mix of nil / zero_density / almost_nil stays almost nil
    return Tag("almost_nil", _join_step(a, b))


def _tag_mul(a: Tag, b: Tag, a_bounded: bool, b_bounded: bool) -> Tag:
    # bounded times zero-density is zero-density, whatever the factor is
    if a.kind == "zero_density" and b_bounded:
        return Tag.zero_density()
    if b.kind == "zero_density" and a_bounded:
        return Tag.zero_density()
    kinds = {a.kind, b.kind}
    if "unknown" in kinds:
        return Tag.unknown()
    if kinds == {"nil"}:
        return Tag("nil", _join_step(a, b))
    return Tag("almost_nil", _join_step(a, b))


@dataclass(frozen=True)
class SequenceStream:
    """Lazy two-sided sequence with bound, tag, and provenance.

    `block`, when provided, must agree with `evaluate` pointwise and is
    the vectorized path used by the averaging routines.
    """

    evaluate: Callable[[int], complex]
    bound: float | None
    tag: Tag
    provenance: str
    block: Callable[[int, int], np.ndarray] | None = None

    def __call__(self, n: int) -> complex:
        return self.evaluate(n)

    def evaluate_block(self, start: int, stop: int) -> np.ndarray:
        if self.block is not None:
            return self.block(start, stop)
        return np.array([self.evaluate(n) for n in range(start, stop)],
                        dtype=np.complex128)

    # algebra ------------------------------------------------------------

    def add(self, other: "SequenceStream") -> "SequenceStream":
        bound = None if self.bound is None or other.bound is None else self.bound + other.bound
        ev_a, ev_b = self.evaluate, other.evaluate

        def block(start: int, stop: int) -> np.ndarray:
            return self.evaluate_block(start, stop) + other.evaluate_block(start, stop)

        return SequenceStream(
            evaluate=lambda n: ev_a(n) + ev_b(n),
            bound=bound,
            tag=_tag_add(self.tag, other.tag),
            provenance=f"({self.provenance} + {other.provenance})",
            block=block,
        )

    def mul(self, other: "SequenceStream") -> "SequenceStream":
        bound = None if self.bound is None or other.bound is None else self.bound * other.bound
        ev_a, ev_b = self.evaluate, other.evaluate

        def block(start: int, stop: int) -> np.ndarray:
            return self.evaluate_block(start, stop) * other.evaluate_block(start, stop)

        return SequenceStream(
            evaluate=lambda n: ev_a(n) * ev_b(n),
            bound=bound,
            tag=_tag_mul(self.tag, other.tag,
                         self.bound is not None, other.bound is not None),
            provenance=f"({self.provenance} * {other.provenance})",
            block=block,
        )

    def conj(self) -> "SequenceStream":
        ev = self.evaluate

        def block(start: int, stop: int) -> np.ndarray:
            return np.conj(self.evaluate_block(start, stop))

        return replace(self, evaluate=lambda n: ev(n).conjugate(),
                       provenance=f"conj({self.provenance})", block=block)

    def shift(self, s: int) -> "SequenceStream":
        ev = self.evaluate

        def block(start: int, stop: int) -> np.ndarray:
            return self.evaluate_block(start + s, stop + s)

        return replace(self, evaluate=lambda n: ev(n + s),
                       provenance=f"shift({self.provenance}, {s})", block=block)

    def scale(self, c: complex) -> "SequenceStream":
        ev = self.evaluate
        bound = None if self.bound is None else self.bound * abs(c)

        def block(start: int, stop: int) -> np.ndarray:
            return c * self.evaluate_block(start, stop)

        return replace(self, evaluate=lambda n: c * ev(n), bound=bound,
                       provenance=f"({c!r} * {self.provenance})", block=block)


def constant(c: complex) -> SequenceStream:
    c = complex(c)
    return SequenceStream(
        evaluate=lambda n: c, bound=abs(c), tag=Tag.nil(1),
        provenance=f"const({c!r})",
        block=lambda start, stop: np.full(stop - start, c, dtype=np.complex128),
    )


def indicator(at: int = 0, value: complex = 1.0) -> SequenceStream:
    """A single spike: zero-density by inspection."""
    value = complex(value)

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        if start <= at < stop:
            out[at - start] = value
        return out

    return SequenceStream(
        evaluate=lambda n: value if n == at else 0j,
        bound=abs(value), tag=Tag.zero_density(),
        provenance=f"indicator(n={at})", block=block,
    )


def from_function(f: Callable[[int], complex], bound: float | None = None,
                  tag: Tag | None = None, provenance: str = "adhoc") -> SequenceStream:
    return SequenceStream(evaluate=f, bound=bound,
                          tag=tag if tag is not None else Tag.unknown(),
                          provenance=provenance)


# ---------------------------------------------------------------------------
# polynomial phase evaluation: one exact kernel, plus a float route


class PhaseKernel:
    """Exact tabulation of p(n) mod 1 by forward differences.

    In the binomial basis p(n) = sum_i b_i C(n, i), and the exact values
    of the b_i are put over one common denominator D, b_i = B_i / D with
    integers B_i.  As Delta^j C(n, i) = C(n, i - j), the integers
    D Delta^j p(n) = sum_{i >= j} B_i C(n, i - j) mod D form the
    difference table of p at n, and a step n -> n + 1 adds to each row
    the row below it (Knuth, TAOCP vol. 2, 4.6.4).  All of it is integer
    arithmetic mod D.  The one rounding is a_0 / D, and Python's int/int
    division is correctly rounded, so every phase is the same float as
    float(p(n) mod 1) taken exactly.
    """

    def __init__(self, p: PhasePolynomial):
        values = [c.exact_value() for c in p.to_binomial().coeffs] or [Fraction(0)]
        self.denominator = math.lcm(*(v.denominator for v in values))
        self.numerators = tuple(v.numerator * (self.denominator // v.denominator)
                                for v in values)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def differences(self, n: int) -> list[int]:
        """D Delta^j p(n) mod D for j = 0..degree."""
        B, D = self.numerators, self.denominator
        return [sum(B[i] * binom_int(n, i - j) for i in range(j, len(B))) % D
                for j in range(len(B))]

    def _walk(self, start: int, count: int):
        D = self.denominator
        a = self.differences(start)
        rows = range(self.degree)
        for _ in range(count):
            yield a[0] / D
            for j in rows:
                s = a[j] + a[j + 1]
                a[j] = s - D if s >= D else s

    def block(self, start: int, stop: int) -> np.ndarray:
        """p(n) mod 1 for n in [start, stop)."""
        count = max(stop - start, 0)
        return np.fromiter(self._walk(start, count), np.float64, count)


def phase_block_exact(p: PhasePolynomial, start: int, stop: int) -> np.ndarray:
    """Phases p(n) mod 1 for n in [start, stop), each reduced exactly."""
    return PhaseKernel(p).block(start, stop)


def phase_block_fast(p: PhasePolynomial, start: int, stop: int) -> np.ndarray:
    """Blockwise float evaluation of p(n) mod 1, exactly re-anchored.

    Per-step recurrences in doubles compound error like n^degree, so
    instead each block of B values is anchored exactly: the forward
    differences of p at the block start come from the exact kernel,
    reduced mod 1, then the block is the float combination
    sum_j frac(diff_j) C(i, j) for i = 0..B-1.  Dropping integer parts
    of the differences only shifts values by integers at integer i.  B
    is chosen so C(B, degree) stays below 2^18, which caps the absolute
    phase error near 1e-10 uniformly; nothing accumulates across blocks.
    """
    count = stop - start
    if count <= 0:
        return np.zeros(0, dtype=np.float64)
    kernel = PhaseKernel(p)
    deg, D = kernel.degree, kernel.denominator
    if deg == 0:
        return np.full(count, kernel.differences(start)[0] / D, dtype=np.float64)
    bsize = max(4, min(1 << 18, int(2.0 ** (18.0 / deg))))
    # row j holds C(i, j), exact in float64 at these sizes
    table = np.empty((deg + 1, bsize), dtype=np.float64)
    table[0] = 1.0
    idx = np.arange(bsize, dtype=np.float64)
    for j in range(1, deg + 1):
        table[j] = table[j - 1] * (idx - (j - 1)) / j
    out = np.empty(count, dtype=np.float64)
    pos = 0
    while pos < count:
        b = min(bsize, count - pos)
        coeffs = [a / D for a in kernel.differences(start + pos)]
        # fixed-order elementwise sum, not a BLAS matvec: the kernel a
        # BLAS build picks (and its FMA use) must not reach the bits
        acc = table[1, :b] * coeffs[1]
        acc += coeffs[0]
        for j in range(2, deg + 1):
            acc += table[j, :b] * coeffs[j]
        out[pos: pos + b] = np.mod(acc, 1.0)
        pos += b
    return out


def poly_exp(p: PhasePolynomial, precision: str = "exact") -> SequenceStream:
    """The sequence e(p(n)).

    A phase polynomial of degree k is realized on a k-step manifold, so
    the tag is Nil(max(degree, 1)).  precision picks the block path:
    "exact" reduces each phase as a rational plus generator combination,
    "fast" runs the compensated difference table.
    """
    if precision not in ("exact", "fast"):
        raise ValueError(f"unknown precision {precision!r}")
    phases = phase_block_exact if precision == "exact" else phase_block_fast

    def block(start: int, stop: int) -> np.ndarray:
        return e_array(phases(p, start, stop))

    step = max(p.degree, 1)
    return SequenceStream(
        evaluate=lambda n: e_phase(p(n).float_mod_1()),
        bound=1.0,
        tag=Tag.nil(step),
        provenance=f"poly_exp(deg={p.degree}, {precision})",
        block=block,
    )


def quadratic_seq(t: PhaseScalar, precision: str = "exact") -> SequenceStream:
    """e(n(n-1)/2 * t) = e(C(n,2) t), a 2-step sequence."""
    p = PhasePolynomial.from_coeffs([PhaseScalar.zero(), PhaseScalar.zero(), t])
    stream = poly_exp(p, precision)
    return replace(stream, provenance=f"quadratic(t)", tag=Tag.nil(2))


# ---------------------------------------------------------------------------
# theta kernel and Heisenberg-type sequences


# exp(x) for x <= 0, from correctly rounded + - * and rint and an exact
# ldexp, so the Gaussian weights are the same bits on every machine (libm
# builds of exp differ in the last bit).  x = k ln 2 + r with k = rint(x /
# ln 2), |r| <= ln 2 / 2; k ln 2 is subtracted in two parts, the high
# part having 21 trailing zero bits so k * _LN2_HI is exact.  exp(r) is
# its Taylor polynomial to degree 13 (truncation below 5e-18 relative),
# with round-to-nearest coefficients 1/j!.  With every rounding at its
# worst the relative error stays below 2.5e-16 while e^x is a normal
# double (x >= -708); the largest seen against mpmath is 1.6e-16.

_LN2_HI = 0.6931471803691238
_LN2_LO = 1.9082149292705877e-10
_EXP_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(13, -1, -1))

EXP_REL_ERROR = 2.5e-16
"""Documented bound on |exp_nonpos(x) / e^x - 1| for -708 <= x <= 0."""


def exp_nonpos(x: float) -> float:
    """e^x for x <= 0, bit-identical on every IEEE-754 machine."""
    if x < -746.0:  # e^x is below half the least subnormal
        return 0.0
    k = round(x * 1.4426950408889634)
    r = (x - k * _LN2_HI) - k * _LN2_LO
    acc = 0.0
    for c in _EXP_TAYLOR:
        acc = acc * r + c
    return math.ldexp(acc, k)


def _theta_truncation(eps: float) -> int:
    K = 2
    while True:
        tail = 2.0 * exp_nonpos(-math.pi * (K - 1) ** 2) / (1.0 - exp_nonpos(-TWO_PI * (K - 1)))
        if tail < eps:
            return K
        K += 1


def theta_kappa(s: float, t: float, eps: float = 1e-12) -> complex:
    """kappa(s, t) = sum_k exp(-pi (t+k)^2) e(k s), truncated so the
    dropped Gaussian tail is below eps."""
    K = _theta_truncation(eps)
    center = round(t)
    total = 0j
    for k in range(-center - K, -center + K + 1):
        y = t + k
        total += exp_nonpos(-math.pi * (y * y)) * e_phase(k * s)
    return total


def heisenberg_seq(alpha: float, beta: float, eps: float = 1e-12) -> SequenceStream:
    """omega_n = kappa(n alpha, n beta) * e(n(n-1)/2 * alpha beta).

    The quadratic phase is reduced mod 1 in exact rational arithmetic on
    the binary representations of alpha and beta, so no precision is
    lost to the size of n(n-1)/2.
    """
    fa, fb = Fraction(alpha), Fraction(beta)
    fab = fa * fb
    bound = float(abs(theta_kappa(0.0, 0.0, eps)))

    def ev(n: int) -> complex:
        quad = float((Fraction(n * (n - 1), 2) * fab) % 1)
        return theta_kappa(_frac_mod1(n * fa), n * fb, eps) * e_phase(quad)

    return SequenceStream(
        evaluate=ev, bound=bound, tag=Tag.nil(2),
        provenance=f"heisenberg(alpha={alpha!r}, beta={beta!r})",
    )


def _frac_mod1(x: Fraction) -> float:
    return float(x % 1)


# ---------------------------------------------------------------------------
# skew products over the circle rotation


@dataclass(frozen=True)
class SkewProductState:
    """Tower map (y_1, ..., y_k) -> (y_1 + alpha, y_2 + y_1, ...).

    Iterating from the solved initial point makes the last coordinate
    equal C(n,k) alpha + C(n,k-1) x_1 + ... + C(n,1) x_{k-1} + x_k, the
    binomial closed form of the input polynomial.
    """

    alpha: PhaseScalar
    points: tuple[PhaseScalar, ...]

    @property
    def dim(self) -> int:
        return len(self.points)

    def closed_form(self, n: int) -> PhaseScalar:
        k = self.dim
        acc = self.alpha.scale(binom_int(n, k))
        for j, x in enumerate(self.points, start=1):
            acc = acc + x.scale(binom_int(n, k - j))
        return acc.reduce_mod_1()

    def iterate(self, n: int) -> tuple[PhaseScalar, ...]:
        """n-fold iteration (n may be negative), coordinates mod 1."""
        y = [p.reduce_mod_1() for p in self.points]
        if n >= 0:
            for _ in range(n):
                new = [(y[0] + self.alpha).reduce_mod_1()]
                for j in range(1, len(y)):
                    new.append((y[j] + y[j - 1]).reduce_mod_1())
                y = new
        else:
            for _ in range(-n):
                prev = [(y[0] - self.alpha).reduce_mod_1()]
                for j in range(1, len(y)):
                    prev.append((y[j] - prev[j - 1]).reduce_mod_1())
                y = prev
        return tuple(y)

    def iterate_float(self, n: int) -> tuple[float, ...]:
        """Coordinates of iterate(n) as floats, each correctly rounded.

        The tower is a difference table: the last coordinate is the
        closed form q(n) and y_{k-j}(n) = Delta^j q(n), with alpha as the
        constant top row.  So the orbit is read off the exact integer
        differences of q at n, with no iteration and no float error.
        """
        if n < 0:
            raise ValueError("float path iterates forward only")
        kernel = PhaseKernel(PhasePolynomial((*reversed(self.points), self.alpha)))
        diffs = kernel.differences(n)[: self.dim]
        return tuple(a / kernel.denominator for a in reversed(diffs))


def furstenberg_orbit(p: PhasePolynomial) -> tuple[SkewProductState, SequenceStream]:
    """Realize e(p(n)) as the last coordinate of a skew-product orbit.

    Writing p in the binomial basis p(n) = sum_j b_j C(n, j) of degree
    k >= 1, the tower parameter is alpha = b_k (equals k! times the
    leading monomial coefficient) and the initial coordinates are
    x_j = b_{k-j}.  Constant polynomials have no tower: DegreeZero.
    """
    pb = p.to_binomial()
    k = pb.degree
    if k < 1:
        raise DegreeZero("polynomial must have degree >= 1")
    coeffs = pb.coeffs
    alpha = coeffs[k]
    points = tuple(coeffs[k - j] for j in range(1, k + 1))
    state = SkewProductState(alpha=alpha, points=points)
    stream = poly_exp(pb)
    return state, replace(stream, provenance=f"furstenberg(deg={k})", tag=Tag.nil(k))


# ---------------------------------------------------------------------------
# interleaving along residue classes


def interleave(components: Sequence[SequenceStream], m: int) -> SequenceStream:
    """xi with xi(t m + r) = components[r](t) for 0 <= r < m.

    Joining preserves structure: all-Nil gives Nil at the largest step,
    all-ZeroDensity stays ZeroDensity, any mix of the structured kinds
    is AlmostNil, and anything Unknown poisons the join.
    """
    if m < 1 or len(components) != m:
        raise ArityMismatch(f"need exactly m={m} components, got {len(components)}")
    comps = tuple(components)

    kinds = {c.tag.kind for c in comps}
    steps = [c.tag.step for c in comps if c.tag.step is not None]
    step = max(steps) if steps else None
    if "unknown" in kinds:
        tag = Tag.unknown()
    elif kinds == {"nil"}:
        tag = Tag("nil", step)
    elif kinds == {"zero_density"}:
        tag = Tag.zero_density()
    else:
        tag = Tag("almost_nil", step)

    bounds = [c.bound for c in comps]
    bound = None if any(b is None for b in bounds) else max(bounds)

    def ev(n: int) -> complex:
        r = n % m
        return comps[r].evaluate((n - r) // m)

    def block(start: int, stop: int) -> np.ndarray:
        out = np.empty(stop - start, dtype=np.complex128)
        for r in range(m):
            first = start + ((r - start) % m)
            if first >= stop:
                continue
            t_lo = (first - r) // m
            t_hi = (stop - 1 - r) // m + 1
            out[first - start:: m] = comps[r].evaluate_block(t_lo, t_hi)
        return out

    return SequenceStream(
        evaluate=ev, bound=bound, tag=tag,
        provenance=f"interleave(m={m}: {', '.join(c.provenance for c in comps)})",
        block=block,
    )


def deinterleave(xi: SequenceStream, m: int) -> tuple[SequenceStream, ...]:
    """Components eta_r(t) = xi(t m + r); restriction to a residue class
    preserves all three structured tags."""
    if m < 1:
        raise ArityMismatch(f"modulus must be positive, got {m}")
    out = []
    for r in range(m):
        def ev(t: int, r: int = r) -> complex:
            return xi.evaluate(t * m + r)

        def block(start: int, stop: int, r: int = r) -> np.ndarray:
            if stop <= start:
                return np.zeros(0, dtype=np.complex128)
            parent = xi.evaluate_block(start * m + r, (stop - 1) * m + r + 1)
            return parent[::m]

        out.append(SequenceStream(
            evaluate=ev, bound=xi.bound, tag=xi.tag,
            provenance=f"deinterleave({xi.provenance}, m={m}, r={r})",
            block=block,
        ))
    return tuple(out)
