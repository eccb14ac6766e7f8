"""Bounded sequence streams with provenance-tracked structure tags.

A stream pairs a block evaluator, [start, stop) -> complex values, with
a sup bound and a tag saying what is actually known about the sequence:
Nil(k) for an exact k-step nilsequence built by a closed construction,
ZeroDensity for a sequence whose two-sided Cesaro averages of |a_n|
vanish, AlmostNil for nilsequence + zero-density, Unknown otherwise.
Tags only propagate along operations that provably preserve them;
nothing ever upgrades a tag heuristically.

Constructors: polynomial phase exponentials, the quadratic sequence,
theta-kernel sequences on the Heisenberg side, iterated skew products
realizing binomial phase polynomials, and interleavings along residue
classes.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .exactnum import (
    PhasePolynomial,
    PhaseScalar,
    Record,
    binom_int,
    replace,
)

__all__ = [
    "ArityMismatch",
    "DegreeZero",
    "Tag",
    "SequenceStream",
    "constant",
    "from_function",
    "e_phase",
    "e_array",
    "E_ABS_ERROR",
    "tree_fold",
    "exp_nonpos",
    "EXP_REL_ERROR",
    "poly_exp",
    "phase_sum_block",
    "quadratic_seq",
    "theta_kappa",
    "heisenberg_seq",
    "SkewProductState",
    "furstenberg_orbit",
    "interleave",
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


# Taylor coefficients of sin(pi r/2), (-1)^k (pi/2)^(2k+1) / (2k+1)!,
# k = 0..7, and of cos(pi r/2), (-1)^k (pi/2)^(2k) / (2k)!, k = 0..8
_SIN_COEFFS = (1.5707963267948966, -0.6459640975062463, 0.07969262624616705,
               -0.004681754135318688, 0.00016044118478735983,
               -3.598843235212085e-06, 5.692172921967927e-08,
               -6.688035109811468e-10)
_COS_COEFFS = (1.0, -1.2337005501361697, 0.25366950790104803,
               -0.02086348076335296, 0.0009192602748394266,
               -2.5202042373060607e-05, 4.710874778818172e-07,
               -6.386603083791852e-09, 6.565963114979473e-11)


def _quarter_cos_sin(r: float) -> tuple[float, float]:
    """(cos(pi r/2), sin(pi r/2)) for one float |r| <= 1/2.

    The coefficients are unpacked into locals and the polynomials written
    out, because this runs once per point in the exact routes; `e_array`
    runs the same roundings in the same order, so the two agree bit for
    bit.
    """
    s0, s1, s2, s3, s4, s5, s6, s7 = _SIN_COEFFS
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _COS_COEFFS
    r2 = r * r
    s = r * (s0 + r2 * (s1 + r2 * (s2 + r2 * (s3 + r2 * (s4 + r2 * (
        s5 + r2 * (s6 + r2 * s7)))))))
    c = c0 + r2 * (c1 + r2 * (c2 + r2 * (c3 + r2 * (c4 + r2 * (c5 + r2 * (
        c6 + r2 * (c7 + r2 * c8)))))))
    return c, s


def _horner(coeffs: tuple[float, ...], r2: np.ndarray, acc: np.ndarray) -> None:
    """acc = coeffs[0] + r2 (coeffs[1] + r2 (...)), in place, with the
    roundings of the expression in _quarter_cos_sin."""
    np.multiply(r2, coeffs[-1], out=acc)
    for k in coeffs[-2:0:-1]:
        np.add(k, acc, out=acc)
        np.multiply(r2, acc, out=acc)
    np.add(coeffs[0], acc, out=acc)


# points per pass of e_array: its scratch is four float64 arrays this long
_E_CHUNK = 1 << 14


def e_array(x) -> np.ndarray:
    """e(x) elementwise for a float64 array of any shape."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    # the reduction and both polynomials write into scratch made once a
    # call, not into a new array a step
    scratch = np.empty((4, min(flat_x.size, _E_CHUNK)))
    for a in range(0, flat_x.size, _E_CHUNK):
        xs = flat_x[a: a + _E_CHUNK]
        t, j, r2, acc = scratch[:, :xs.size]
        dst = flat_out[a: a + xs.size]
        np.rint(xs, out=t)
        np.subtract(xs, t, out=t)
        np.multiply(t, 4.0, out=t)
        np.rint(t, out=j)
        np.subtract(t, j, out=t)            # t is now r
        np.multiply(t, t, out=r2)
        _horner(_SIN_COEFFS, r2, acc)
        np.multiply(t, acc, out=dst.imag)
        _horner(_COS_COEFFS, r2, acc)
        dst.real = acc
        dst *= _QUARTER_TURNS_ARRAY[j.astype(np.intp) & 3]
    return out


def e_phase(x: float) -> complex:
    """e(x) = exp(2 pi i x) for one real x; bit-identical to e_array."""
    x = float(x)
    t = (x - round(x)) * 4.0
    j = round(t)
    c, s = _quarter_cos_sin(t - j)
    return complex(c, s) * _QUARTER_TURNS[j & 3]


# ---------------------------------------------------------------------------
# fixed-tree summation


class _TreeFold:
    """tree_fold of a sequence fed in pieces of any lengths, bit for bit.

    A pairing level of tree_fold adds elements 2i and 2i + 1 and carries
    an odd last element to the end of the next level, so it maps X ++ Y
    to level(X) ++ level(Y) whenever len(X) is even.  The levels can
    therefore run as the values arrive: each level holds back at most the
    one value still waiting for its partner and passes its pairs up.
    The state is one value a level, whatever the length or the way it is
    cut; `total` adds the held-back values from the lowest level up, as
    tree_fold carries its odd tails.  Nothing is padded: a zero added as
    a missing partner would move the tree, and with it the bits.
    """

    def __init__(self):
        self._held: list[complex | None] = []

    def _push(self, level: int, x: complex) -> None:
        """One value arriving at a level."""
        held = self._held
        while level < len(held) and held[level] is not None:
            x = held[level] + x
            held[level] = None
            level += 1
        if level == len(held):
            held.append(x)
        else:
            held[level] = x

    def feed(self, values: np.ndarray) -> None:
        """The next values of the sequence; they are only read."""
        a = np.asarray(values, dtype=np.complex128)
        held = self._held
        level = 0
        while a.size:
            if level == len(held):
                held.append(None)
            if held[level] is not None:
                self._push(level, complex(a[0]))
                a = a[1:]
            if a.size % 2:
                held[level] = complex(a[-1])
                a = a[:-1]
            a = a[0::2] + a[1::2]
            level += 1

    def total(self) -> complex:
        carry = None
        for x in self._held:
            if x is not None:
                carry = x if carry is None else x + carry
        return 0j if carry is None else carry


def tree_fold(values: np.ndarray) -> complex:
    """Sum through a fixed binary tree: repeatedly add element pairs,
    an odd last element carried to the end of the next level.

    The tree shape depends only on the length, never on how the values
    were produced, so any segment-parallel evaluation that fills the
    same array reduces to bitwise the same total.
    """
    fold = _TreeFold()
    fold.feed(values)
    return fold.total()


class Tag(Record):
    """What is known of a sequence: its kind, and the step of a nilsequence."""

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


class SequenceStream(Record):
    """Lazy two-sided sequence with bound, tag, and provenance.

    `evaluate_block(start, stop)` is the one evaluator: the values at
    n in [start, stop) as a complex128 array.  `stream(n)` is the
    one-point block, so it is the value every block gives at n: in
    either precision a phase depends on (p, n) alone, never on where a
    range is cut.
    """

    evaluate_block: Callable[[int, int], np.ndarray]
    bound: float | None
    tag: Tag
    provenance: str

    def __call__(self, n: int) -> complex:
        return complex(self.evaluate_block(n, n + 1)[0])

    def add(self, other: "SequenceStream") -> "SequenceStream":
        bound = None if self.bound is None or other.bound is None else self.bound + other.bound

        def block(start: int, stop: int) -> np.ndarray:
            return self.evaluate_block(start, stop) + other.evaluate_block(start, stop)

        return SequenceStream(block, bound=bound, tag=_tag_add(self.tag, other.tag),
                              provenance=f"({self.provenance} + {other.provenance})")


def constant(c: complex) -> SequenceStream:
    c = complex(c)
    return SequenceStream(
        lambda start, stop: np.full(stop - start, c, dtype=np.complex128),
        bound=abs(c), tag=Tag.nil(1), provenance=f"const({c!r})")


def from_function(f: Callable[[int], complex], bound: float | None = None,
                  tag: Tag | None = None, provenance: str = "adhoc") -> SequenceStream:
    """The stream of a per-point formula f(n), evaluated point by point."""
    def block(start: int, stop: int) -> np.ndarray:
        return np.array([f(n) for n in range(start, stop)], dtype=np.complex128)

    return SequenceStream(block, bound=bound,
                          tag=tag if tag is not None else Tag.unknown(),
                          provenance=provenance)


# ---------------------------------------------------------------------------
# polynomial phase evaluation: one exact kernel, plus a float route at
# degrees 1 and 2


# Blocks shorter than this are walked point by point: below it, setting
# up the lanes costs more than it saves (measured crossover, see README).
_LANE_MIN_POINTS = 256
# Points per lane pass: bounds the lane temporaries, not the bits.  At
# 2^13 the four-limb temporaries of a pass (about 1 MB) stay in cache
# and below the heap size glibc trims back after each pass (measured
# against 2^12, 2^14 and 2^15; see README).
_LANE_CHUNK = 1 << 13
# Points per lane: a prefix sum over it of values below 2^53 (one mod D
# row) or 2^32 (one 32-bit limb) must stay below 2^64.
_LANE_WIDTH = 1 << 10
# Cap on a fixed-point lane's anchor error, in units of 2^-128: it must
# stay below 2^64 for _round_fixed, and the share of points it flags
# grows with it.  Only degrees above 5 need lanes shorter than 1024.
_LANE_SPREAD_CAP = 1 << 48
_U64_MAX = np.uint64(2 ** 64 - 1)
_LIMB = np.uint64(32)
_LIMB_MASK = np.uint64(2 ** 32 - 1)


def _round_fixed(hi: np.ndarray, lo: np.ndarray, spread: int):
    """Nearest doubles to Y / 2^128 with Y = hi 2^64 + lo, and a mask of
    the points where the true value may round elsewhere.

    The true value lies in [Y, Y + spread) (units of 2^-128, spread
    below 2^64).  For hi >= 2^53 the 53-bit significand sits in hi:
    with s = bitlength(hi) - 53 it is m = hi >> s, and the value rounds
    up exactly when the remainder reaches the midpoint 2^(s-1) 2^64.
    A point is unsure when the interval may hold a midpoint (a tie or a
    value on its far side), when it runs past 2^128 (the value wraps to
    near 0), or when hi < 2^53 (the value is below 2^-11).
    """
    # (hi | 2^53) >> 11 converts to float64 exactly; its biased exponent
    # is 1011 + bitlength(hi), so s = exponent - 1064 (s = 1 for hi < 2^53)
    top = ((hi | np.uint64(1 << 53)) >> np.uint64(11)).astype(np.float64)
    shift = (top.view(np.uint64) >> np.uint64(52)) - np.uint64(1064)
    m = hi >> shift
    half = np.uint64(1) << (shift - np.uint64(1))
    rem = hi - (m << shift)
    # (m + up) 2^(s - 64): the scale is the double with biased exponent s + 959
    scale = ((shift + np.uint64(959)) << np.uint64(52)).view(np.float64)
    values = (m + (rem >= half)).astype(np.float64) * scale
    reaches_next_hi = lo > _U64_MAX - np.uint64(spread)
    unsure = hi < np.uint64(1 << 53)
    unsure |= (rem == half) & (lo == 0)                            # midpoint at Y
    unsure |= reaches_next_hi & (rem == half - np.uint64(1))       # midpoint above Y
    unsure |= reaches_next_hi & (hi == _U64_MAX)                   # wrap past 1
    return values, unsure


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

    Long blocks run the same table in numpy lanes (`_lanes`), each lane
    anchored at an exact table; every phase is still the float a_0 / D,
    bit for bit.
    """

    def __init__(self, p: PhasePolynomial):
        values = [c.exact_value() for c in p.coeffs] or [Fraction(0)]
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

    def _spread(self, width: int) -> int:
        """Bound on the anchor error after width - 1 steps: the error of
        row 0 after i steps is sum_j C(i, j) eps_j with each eps_j < 1."""
        return sum(math.comb(width - 1, j) for j in range(self.degree + 1))

    def _lanes(self, anchors: list[list[int]], width: int):
        """a_0 / D at width consecutive points from each anchor table, in
        point order, with the mask of points the caller must redo exactly
        (None when there are none).

        Row j of the table after i steps is its anchor plus the prefix
        sum of row j + 1 over the first i steps, so each row is one
        cumulative sum along the lane, from the constant last row up.
        D < 2^53: the rows are reduced mod D, and a_0 / D is a quotient
        of two exact doubles, correctly rounded like int / int.  Larger
        D: row j is anchored at Y_j = floor(2^128 a_j / D) and runs mod
        2^128 in four 32-bit limbs, carried after each row.  After i
        steps the true 2^128 a_0 / D lies in [Y_0, Y_0 + sum_j C(i, j)),
        which _round_fixed rounds or flags.
        """
        D, lanes = self.denominator, len(anchors)
        if D < 1 << 53:
            # rows x limbs (one, mod D) x lanes
            table = np.array(anchors, dtype=np.uint64).T[:, None, :]
        else:
            fixed = b"".join(((a << 128) // D).to_bytes(16, "little")
                             for row in anchors for a in row)
            table = (np.frombuffer(fixed, dtype="<u4").astype(np.uint64)
                     .reshape(lanes, self.degree + 1, 4).transpose(1, 2, 0))
        row = np.broadcast_to(table[-1][:, :, None], table.shape[1:] + (width,))
        for anchor in table[-2::-1]:
            nxt = np.empty(row.shape, dtype=np.uint64)
            nxt[:, :, 0] = 0
            np.cumsum(row[:, :, :-1], axis=2, out=nxt[:, :, 1:])
            nxt += anchor[:, :, None]
            if D < 1 << 53:
                nxt %= np.uint64(D)
            else:
                for k in range(3):
                    nxt[k + 1] += nxt[k] >> _LIMB
                    nxt[k] &= _LIMB_MASK
                nxt[3] &= _LIMB_MASK
            row = nxt
        row = row.reshape(row.shape[0], -1)
        if D < 1 << 53:
            return row[0].astype(np.float64) / float(D), None
        return _round_fixed((row[3] << _LIMB) | row[2], (row[1] << _LIMB) | row[0],
                            self._spread(width))

    def block(self, start: int, stop: int) -> np.ndarray:
        """p(n) mod 1 for n in [start, stop)."""
        count = max(stop - start, 0)
        if self.degree == 0:
            return np.full(count, self.numerators[0] % self.denominator
                           / self.denominator, dtype=np.float64)
        if count < _LANE_MIN_POINTS:
            return np.fromiter(self._walk(start, count), np.float64, count)
        D, width = self.denominator, min(count, _LANE_WIDTH)
        while D >= 1 << 53 and width > 2 and self._spread(width) > _LANE_SPREAD_CAP:
            width //= 2
        # anchor of the next lane: the table jumps width points at once,
        # D Delta^j p(n + w) = sum_{i >= j} C(w, i - j) D Delta^i p(n)
        jump = [math.comb(width, k) for k in range(self.degree + 1)]
        a = self.differences(start)
        out = np.empty(count, dtype=np.float64)
        step = max(_LANE_CHUNK // width, 1) * width
        for pos in range(0, count, step):
            n = min(count - pos, step)
            anchors = []
            for _ in range(-(-n // width)):
                anchors.append(a)
                a = [sum(c * x for c, x in zip(jump, a[j:])) % D for j in range(len(a))]
            values, unsure = self._lanes(anchors, width)
            out[pos: pos + n] = values[:n]
            if unsure is None:
                continue
            redo = np.flatnonzero(unsure[:n])
            if 8 * redo.size > n:  # mostly tiny or tied phases: walk
                out[pos: pos + n] = np.fromiter(self._walk(start + pos, n), np.float64, n)
            else:
                for k in redo.tolist():
                    out[pos + k] = self.differences(start + pos + k)[0] / D
        return out


def phase_block_exact(p: PhasePolynomial, start: int, stop: int) -> np.ndarray:
    """Phases p(n) mod 1 for n in [start, stop), each reduced exactly."""
    return PhaseKernel(p).block(start, stop)


def phase_block_fast(p: PhasePolynomial, start: int, stop: int) -> np.ndarray:
    """Blockwise float evaluation of p(n) mod 1 at degrees 1 and 2;
    every other degree is PhaseKernel(p).block, with exact bits.

    Per-step recurrences in doubles compound error like n^degree, so
    instead each block of B values is anchored exactly: the forward
    differences of p at the block's anchor come from the exact kernel,
    reduced mod 1, then the block is the float combination
    sum_j frac(diff_j) C(i, j) for i = 0..B-1.  Dropping integer parts
    of the differences only shifts values by integers at integer i.
    B (_FAST_BLOCK) is 2^15 at degree 1 and 2^9 at degree 2, so C(B, 2)
    stays below 2^18, which caps the absolute phase error near 1e-10
    uniformly; nothing accumulates across blocks.  From degree 3 on the
    blocks this bound allows are so short that re-anchoring costs more
    than the exact kernel, which is why those degrees take it.

    The anchors are the n = 1 mod B, whatever the range, so a phase is
    a function of (p, n) alone: any cut of a range, and each one-point
    block, gives the same bits.  The offset 1 is correlate's: its
    segments start at 1 + i 2^15, and B divides 2^15.  A point is a
    fixed-order elementwise sum of its anchor's coefficients times
    C(i, j) from one memo per degree.  The sum is at least 0, so
    acc - floor(acc) is exact and has the bits of np.mod(acc, 1.0).
    """
    kernel = PhaseKernel(p)
    deg, D = kernel.degree, kernel.denominator
    if deg not in _FAST_BLOCK:
        return kernel.block(start, stop)
    rows = _binomial_rows(deg)
    bsize = rows.shape[1]
    out = np.empty(max(stop - start, 0), dtype=np.float64)
    pos = start
    while pos < stop:
        anchor = pos - (pos - 1) % bsize
        i0, i1 = pos - anchor, min(anchor + bsize, stop) - anchor
        coeffs = [a / D for a in kernel.differences(anchor)]
        # fixed-order elementwise sum, not a BLAS matvec: the kernel a
        # BLAS build picks (and its FMA use) must not reach the bits
        acc = rows[0, i0:i1] * coeffs[1]
        acc += coeffs[0]
        if deg == 2:
            acc += rows[1, i0:i1] * coeffs[2]
        part = out[pos - start: anchor + i1 - start]
        np.floor(acc, out=part)
        np.subtract(acc, part, out=part)
        pos = anchor + i1
    return out


# points per fast block, by the degrees the fast route keeps
_FAST_BLOCK = {1: 1 << 15, 2: 1 << 9}


@functools.cache
def _binomial_rows(deg: int) -> np.ndarray:
    """Row j - 1 holds C(i, j) for i in [0, _FAST_BLOCK[deg]) and
    j = 1..deg, exact in float64.  Built once a degree and shared, so
    read-only."""
    idx = np.arange(_FAST_BLOCK[deg], dtype=np.float64)
    rows = idx[None, :] if deg == 1 else np.stack((idx, idx * (idx - 1) / 2))
    rows.flags.writeable = False
    return rows


def _phase_route(precision: str) -> Callable[[PhasePolynomial, int, int], np.ndarray]:
    """phase_block_exact or phase_block_fast, by precision name.

    The module names are read at call time, so a wrapper installed on
    either one sees every block of the stream that this call builds.
    """
    if precision == "exact":
        return phase_block_exact
    if precision == "fast":
        return phase_block_fast
    raise ValueError(f"unknown precision {precision!r}")


def poly_exp(p: PhasePolynomial, precision: str = "exact") -> SequenceStream:
    """The sequence e(p(n)).

    A phase polynomial of degree k is realized on a k-step manifold, so
    the tag is Nil(max(degree, 1)).  precision picks the block path:
    "exact" reduces each phase exactly (PhaseKernel), "fast" runs the
    anchored float blocks of phase_block_fast at degrees 1 and 2 and the
    exact kernel at every other degree.
    """
    phases = _phase_route(precision)

    def block(start: int, stop: int) -> np.ndarray:
        return e_array(phases(p, start, stop))

    return SequenceStream(block, bound=1.0, tag=Tag.nil(max(p.degree, 1)),
                          provenance=f"poly_exp(deg={p.degree}, {precision})")


def _complex_times(c: complex, z: np.ndarray) -> np.ndarray:
    """c * z, each real product, difference and sum rounded on its own.

    This is CPython's scalar c * z.  numpy's complex multiply fuses them
    in its SIMD loops and not in its scalar tail, so its bits would
    depend on the CPU and on where a block is cut.
    """
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = c.real * z.real - c.imag * z.imag
    out.imag = c.real * z.imag + c.imag * z.real
    return out


def phase_sum_block(terms: Sequence[tuple[complex, int, PhasePolynomial]],
                    modulus: int, hits: Mapping[int, complex],
                    precision: str = "exact") -> Callable[[int, int], np.ndarray]:
    """Block evaluator of a nilsequence plus a finitely supported part.

    The value at n = t * modulus + r is the sum of c * e(p(t)) over the
    terms (c, r, p) of residue r, plus hits.get(n, 0).  This is the
    shape rho(alpha^n u) takes for a zero-entropy automorphism, and the
    shape of a decomposition.  The terms are added into zeros in order,
    then the hits; the residue bounds are integer arithmetic, so they
    hold at any n.  precision picks the phase route as in poly_exp.
    """
    phases = _phase_route(precision)
    terms, m, hits = tuple(terms), int(modulus), dict(hits)

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        for c, r, p in terms:
            # n = t m + r in [start, stop) for t in [t0, t1)
            t0 = -((start - r) // -m)
            t1 = (stop - 1 - r) // m + 1
            if t1 > t0:
                out[t0 * m + r - start:: m] += _complex_times(c, e_array(phases(p, t0, t1)))
        for n, val in hits.items():
            if start <= n < stop:
                out[n - start] += val
        return out

    return block


def quadratic_seq(t: PhaseScalar, precision: str = "exact") -> SequenceStream:
    """e(n(n-1)/2 * t) = e(C(n,2) t), a 2-step sequence."""
    p = PhasePolynomial.from_coeffs([PhaseScalar.zero(), PhaseScalar.zero(), t])
    stream = poly_exp(p, precision)
    return replace(stream, provenance="quadratic(t)", tag=Tag.nil(2))


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
    if not eps > 0:  # the tail underflows to 0 and never drops below eps
        raise ValueError(f"eps must be > 0, got {eps!r}")
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

    return from_function(ev, bound=bound, tag=Tag.nil(2),
                         provenance=f"heisenberg(alpha={alpha!r}, beta={beta!r})")


def _frac_mod1(x: Fraction) -> float:
    return float(x % 1)


# ---------------------------------------------------------------------------
# skew products over the circle rotation


class SkewProductState(Record):
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
    k = p.degree
    if k < 1:
        raise DegreeZero("polynomial must have degree >= 1")
    coeffs = p.coeffs
    alpha = coeffs[k]
    points = tuple(coeffs[k - j] for j in range(1, k + 1))
    state = SkewProductState(alpha=alpha, points=points)
    stream = poly_exp(p)
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
    tag = functools.reduce(_tag_add, (c.tag for c in comps))
    bounds = [c.bound for c in comps]
    bound = None if any(b is None for b in bounds) else max(bounds)

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
        block, bound=bound, tag=tag,
        provenance=f"interleave(m={m}: {', '.join(c.provenance for c in comps)})")
