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
import operator
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


# points evaluated at a time by every streamed sum (correlate, weyl and
# seq); bounds memory, never bits
BLOCK = 1 << 14

# points per pass of e_array: its scratch is three float64 rows this long
_E_CHUNK = 1 << 14


class _EScratch:
    """The scratch rows of e(x), made once by a stream that evaluates
    block after block and passed to each of its calls (_e_array), so
    that no call makes its own; they grow to the longest pass asked
    for, at most _E_CHUNK points."""

    def __init__(self):
        self._rows = np.empty((3, 0))

    def rows(self, n: int) -> np.ndarray:
        """Three float64 rows of at least min(n, _E_CHUNK) points."""
        if self._rows.shape[1] < min(n, _E_CHUNK):
            self._rows = np.empty((3, min(n, _E_CHUNK)))
        return self._rows


def e_array(x) -> np.ndarray:
    """e(x) elementwise for a float64 array of any shape."""
    return _e_array(x, _EScratch())


def _e_array(x, scratch: _EScratch) -> np.ndarray:
    """e_array(x), computed in the rows of scratch; x is only read."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    # the reduction, both polynomials and the quarter turn write into
    # the output and the three scratch rows, not into a new array a step
    rows = scratch.rows(flat_x.size)
    for a in range(0, flat_x.size, _E_CHUNK):
        xs = flat_x[a: a + _E_CHUNK]
        t, r2, acc = rows[:, :xs.size]
        dst = flat_out[a: a + xs.size]
        j = dst.view(np.float64)[:xs.size]  # the output is free until sin
        np.rint(xs, out=t)
        np.subtract(xs, t, out=t)
        np.multiply(t, 4.0, out=t)
        np.rint(t, out=j)
        np.subtract(t, j, out=t)            # t is now r
        np.multiply(t, t, out=r2)
        _horner(_SIN_COEFFS, r2, acc)
        np.multiply(t, acc, out=acc)
        q = t.view(np.intp)                 # t and j are free after this
        np.copyto(q, j, casting="unsafe")
        np.bitwise_and(q, 3, out=q)
        dst.imag = acc
        _horner(_COS_COEFFS, r2, acc)
        dst.real = acc
        turn = rows[1:].reshape(-1)[: 2 * xs.size].view(np.complex128)
        # q is in 0..3; the default mode="raise" would buffer `out`
        np.take(_QUARTER_TURNS_ARRAY, q, out=turn, mode="clip")
        dst *= turn
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


def _fold_power_of_two(a: np.ndarray) -> complex:
    """tree_fold of a power-of-two number of values."""
    while a.size > 8:
        a = a[0::2] + a[1::2]
    if a.size == 8:
        # the last three levels in Python complex, which adds as numpy
        # does, for less than a numpy call a level
        v0, v1, v2, v3, v4, v5, v6, v7 = a.tolist()
        return ((v0 + v1) + (v2 + v3)) + ((v4 + v5) + (v6 + v7))
    while a.size > 1:
        a = a[0::2] + a[1::2]
    return complex(a[0])


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

    Level j holds a value exactly when bit j of the count fed so far is
    set.  So a piece of 2^k values fed at a count that 2^k divides meets
    no held value below level k: it is summed whole, level by level with
    no bookkeeping, and its one total arrives at level k.
    """

    def __init__(self):
        self._held: list[complex | None] = []
        self._count = 0

    def _push(self, level: int, x: complex) -> None:
        """One value arriving at a level."""
        held = self._held
        held.extend([None] * (level - len(held)))
        while level < len(held) and held[level] is not None:
            x = held[level] + x
            held[level] = None
            level += 1
        if level == len(held):
            held.append(x)
        else:
            held[level] = x

    def append(self, x: complex) -> None:
        """The next value of the sequence."""
        self._count += 1
        self._push(0, x)

    def feed(self, values: np.ndarray) -> None:
        """The next values of the sequence; they are only read."""
        a = np.asarray(values, dtype=np.complex128)
        n, count = a.size, self._count
        self._count += n
        if n > 1 and n & (n - 1) == 0 and count & (n - 1) == 0:
            self._push(n.bit_length() - 1, _fold_power_of_two(a))
            return
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
    n in [start, stop) as a new complex128 array, which the caller may
    overwrite (`correlate` multiplies it in place).  `stream(n)` is the
    one-point block, so it is the value every block gives at n: in
    either precision a phase depends on (p, n) alone, never on where a
    range is cut.  So the streamed sums (correlate, weyl, seq) ask for
    BLOCK points at a time, which bounds their memory and sets none of
    their bits; correlate's SEGMENT sets the shape of its sums.  A
    stream may keep scratch from block to block (e(x)'s rows), so one
    stream is evaluated by one thread at a time.
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


class _Orbit:
    """x_n = forward^n(x0), or backward^-n(x0) for n < 0, read at any n by
    stepping from the last n read.  Only (n, x_n) is held, so memory is
    one point whatever n, and reading n in order costs a step a point."""

    def __init__(self, x0, forward: Callable, backward: Callable):
        self._forward = forward
        self._backward = backward
        self._at = (0, x0)

    def __call__(self, n: int):
        k, x = self._at
        for _ in range(k, n):
            x = self._forward(x)
        for _ in range(n, k):
            x = self._backward(x)
        self._at = (n, x)
        return x


# ---------------------------------------------------------------------------
# polynomial phase evaluation: one exact kernel


# Blocks shorter than this are walked point by point: below it, setting
# up the lanes costs more than it saves (measured crossover, see README).
_LANE_MIN_POINTS = 256
# Points per lane pass: bounds the lane temporaries, not the bits (2^12
# and 2^14 measured slower; see README).
_LANE_CHUNK = 1 << 13
# Points per lane, at most; D < 2^53 takes shorter lanes when it must,
# so that no lane sum of values below D passes 2^64 (see README).
_LANE_WIDTH = 1 << 12
# Cap on a fixed-point lane's anchor error, in units of 2^-128: twice it
# must stay below 2^64, and the share of points _round_fixed flags grows
# with it.  Only degrees above 4 need lanes shorter than 4096.
_LANE_SPREAD_CAP = 1 << 48


def _round_fixed(hi: np.ndarray, lo: np.ndarray, spread: int, out: np.ndarray) -> np.ndarray:
    """Nearest doubles to values known to lie in [Z - spread, Z), units
    of 2^-128, Z = hi 2^64 + lo, written to out; returns the mask of the
    points that may round elsewhere.  hi is overwritten.

    A point is sure when hi >= 2^54 and lo >= 2 spread: the value lies
    strictly between hi 2^64 and (hi + 1) 2^64, where, with two or more
    bits of hi below the 53-bit significand, no double and no midpoint
    between two doubles lies.  So it rounds as hi | 1 does, bit 0 being a
    sticky bit: one uint64 -> float64 cast, which rounds to nearest (the
    tests pin it), and an exact scaling.  Unsure: values below 2^-10, and
    values whose interval may reach a tie or a wrap past 1.
    """
    unsure = lo < np.uint64(2 * spread)
    unsure |= hi < np.uint64(1 << 54)
    hi |= np.uint64(1)
    np.multiply(hi, 2.0 ** -64, out=out)
    return unsure


@functools.lru_cache(maxsize=8)
def _lane_top(a: int, D: int, width: int) -> np.ndarray:
    """i a for i in [0, width) (words x 1 x width, read-only): the prefix
    sum along a lane of a table's last row a, the same at every n.  For
    D >= 2^53, i Y mod 2^128 with Y = floor(2^128 a / D), the low word of
    Y split in 32-bit halves so that no product overflows.  A function of
    its integers, so the blocks of one stream share it."""
    i = np.arange(width, dtype=np.uint64)
    if D < 1 << 53:
        top = (i * np.uint64(a))[None, None]
    else:
        y = (a << 128) // D
        mid = i * np.uint64((y >> 32) & 0xFFFFFFFF)
        low = i * np.uint64(y & 0xFFFFFFFF)
        top = np.empty((2, 1, width), dtype=np.uint64)
        np.add(mid << np.uint64(32), low, out=top[0, 0])
        np.multiply(i, np.uint64(y >> 64), out=top[1, 0])
        top[1, 0] += mid >> np.uint64(32)
        top[1, 0] += top[0, 0] < low
    top.flags.writeable = False
    return top


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

    def _at(self, a: list[int], i: int) -> float:
        """a_0 / D i steps on from the table a: sum_j C(i, j) a_j mod D."""
        a0, c = a[0], 1
        for j in range(1, len(a)):
            c = c * (i - j + 1) // j
            a0 += c * a[j]
        return a0 % self.denominator / self.denominator

    def _spread(self, width: int) -> int:
        """Bound on the anchor error after width - 1 steps: the error of
        row 0 after i steps is sum_j C(i, j) eps_j with each eps_j < 1."""
        return sum(math.comb(width - 1, j) for j in range(self.degree + 1))

    def _table(self, anchors: list[list[int]], spread: int) -> np.ndarray:
        """Exact tables (lanes x rows) as uint64 words, rows x words x
        lanes: for D < 2^53 the rows mod D, else the two words, low first,
        of Y_j = floor(2^128 a_j / D), spread added to Y_0."""
        D = self.denominator
        if D < 1 << 53:
            return np.array(anchors, dtype=np.uint64).T[:, None, :]
        words = b"".join((((a << 128) // D + (j == 0) * spread) % (1 << 128))
                         .to_bytes(16, "little")
                         for row in anchors for j, a in enumerate(row))
        return (np.frombuffer(words, dtype="<u8").astype(np.uint64)
                .reshape(len(anchors), -1, 2).transpose(1, 2, 0))

    def _lanes(self, table: np.ndarray, top: np.ndarray, spread: int,
               row: np.ndarray, out: np.ndarray) -> np.ndarray | None:
        """a_0 / D along the lanes anchored at table (rows 0 to degree - 1,
        from _table), written to out in point order, with the mask of the
        points to redo exactly (None if none); row is scratch.

        Row j after i steps is its anchor plus the prefix sum of row j + 1
        over the first i steps: from top (the last row's) down, one
        cumsum a row.  D < 2^53: mod D, and a_0 / D is a quotient of two
        exact doubles, rounded like int / int.  Larger D: mod 2^128 in two
        words; a low word's prefix sum wraps once per carry, exactly where
        it decreases, and an add carries where the new low word is below
        the anchor's.  After i steps 2^128 a_0 / D lies in
        [Y_0, Y_0 + sum_j C(i, j)), below row 0 + spread.
        """
        D, fixed = self.denominator, table.shape[1] == 2
        run = top
        for j, anchor in enumerate(table[::-1]):
            if j:  # the exclusive prefix sum of the row above
                run = np.empty(row.shape, dtype=np.uint64)
                run[:, :, 0] = 0
                np.cumsum(row[:, :, :-1], axis=2, out=run[:, :, 1:])
                if fixed:
                    lo = run[0]
                    run[1, :, 1:] += np.cumsum(lo[:, 1:] < lo[:, :-1], axis=1,
                                               dtype=np.uint64)
            np.add(run, anchor[:, :, None], out=row)
            if fixed:
                row[1] += row[0] < anchor[0][:, None]
            else:
                row %= np.uint64(D)
        row = row.reshape(row.shape[0], -1)
        if fixed:
            return _round_fixed(row[1], row[0], spread, out)
        np.divide(row[0], float(D), out=out)
        return None

    def block(self, start: int, stop: int) -> np.ndarray:
        """p(n) mod 1 for n in [start, stop)."""
        count = max(stop - start, 0)
        if self.degree == 0:
            return np.full(count, self.numerators[0] % self.denominator
                           / self.denominator, dtype=np.float64)
        if count < _LANE_MIN_POINTS:
            return np.fromiter(self._walk(start, count), np.float64, count)
        D, width = self.denominator, min(count, _LANE_WIDTH)
        fixed = D >= 1 << 53
        while width > 2 and (self._spread(width) > _LANE_SPREAD_CAP if fixed
                             else width * D >= 1 << 63):
            width //= 2
        lanes = -(-count // width)
        # whole lanes, cut at stop on return; made first, so that the
        # temporaries are freed above it in the heap
        out = np.empty(lanes * width, dtype=np.float64)
        # the exact table at each lane's start, jumped width points at a
        # time: D Delta^j p(n + w) = sum_{i >= j} C(w, i - j) D Delta^i p(n)
        jump = [math.comb(width, k) for k in range(self.degree + 1)]
        anchors = [self.differences(start)]
        for _ in range(lanes - 1):
            a = anchors[-1]
            anchors.append([sum(map(operator.mul, jump, a[j:])) % D for j in range(len(a))])
        spread = self._spread(width) if fixed else 0
        table = self._table([a[:-1] for a in anchors], spread)
        top = _lane_top(anchors[0][-1], D, width)
        if fixed:  # a lane's first point is its anchor, off by less than 1
            anchor_unsure = _round_fixed(table[0, 1].copy(), table[0, 0], spread,
                                         np.empty(lanes))
        per_pass = max(_LANE_CHUNK // width, 1)
        scratch = np.empty((table.shape[1], per_pass, width), dtype=np.uint64)
        for first in range(0, lanes, per_pass):
            part = table[:, :, first: first + per_pass]
            pos, m = first * width, part.shape[2]
            n = min(count - pos, m * width)  # the pass's points below stop
            # most lanes starting unsure means tiny or tied phases (dyadic
            # D): the pass is walked, and no lane is run
            if fixed and 2 * np.count_nonzero(anchor_unsure[first: first + m]) > m:
                out[pos: pos + n] = np.fromiter(self._walk(start + pos, n), np.float64, n)
                continue
            unsure = self._lanes(part, top, spread, scratch[:, :m], out[pos: pos + m * width])
            if unsure is not None:
                redo = np.flatnonzero(unsure[:n]) + pos
                out[redo] = [self._at(anchors[k // width], k % width) for k in redo.tolist()]
        return out[:count]


def phase_block_exact(p: PhasePolynomial | PhaseKernel, start: int,
                      stop: int) -> np.ndarray:
    """Phases p(n) mod 1 for n in [start, stop), each reduced exactly; a
    stream passes p's PhaseKernel, made once, rather than p."""
    kernel = p if isinstance(p, PhaseKernel) else PhaseKernel(p)
    return kernel.block(start, stop)


# the name of the float route that precision "fast" once selected
phase_block_fast = phase_block_exact


def _check_precision(precision: str) -> None:
    """precision is a label that streams record; both give exact bits."""
    if precision not in ("exact", "fast"):
        raise ValueError(f"unknown precision {precision!r}")


def poly_exp(p: PhasePolynomial, precision: str = "exact") -> SequenceStream:
    """The sequence e(p(n)).

    A phase polynomial of degree k is realized on a k-step manifold, so
    the tag is Nil(max(degree, 1)).  Blocks call phase_block_exact by its
    module name, with p's PhaseKernel, so a wrapper installed there sees
    every one, and compute e(x) in scratch rows the stream keeps;
    precision is only recorded in the provenance.
    """
    _check_precision(precision)
    kernel, scratch = PhaseKernel(p), _EScratch()

    def block(start: int, stop: int) -> np.ndarray:
        return _e_array(phase_block_exact(kernel, start, stop), scratch)

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
    hold at any n.  precision is a label, checked as in poly_exp.
    """
    _check_precision(precision)
    terms = tuple((c, r, PhaseKernel(p)) for c, r, p in terms)
    m, hits, scratch = int(modulus), dict(hits), _EScratch()

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        for c, r, kernel in terms:
            # n = t m + r in [start, stop) for t in [t0, t1)
            t0 = -((start - r) // -m)
            t1 = (stop - 1 - r) // m + 1
            if t1 > t0:
                out[t0 * m + r - start:: m] += _complex_times(
                    c, _e_array(phase_block_exact(kernel, t0, t1), scratch))
        for n, val in hits.items():
            if start <= n < stop:
                out[n - start] += val
        return out

    return block


def quadratic_seq(t: PhaseScalar) -> SequenceStream:
    """e(n(n-1)/2 * t) = e(C(n,2) t), a 2-step sequence."""
    p = PhasePolynomial.from_coeffs([PhaseScalar.zero(), PhaseScalar.zero(), t])
    stream = poly_exp(p)
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


@functools.lru_cache(maxsize=16)
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
        return theta_kappa(float(n * fa % 1), n * fb, eps) * e_phase(quad)

    return from_function(ev, bound=bound, tag=Tag.nil(2),
                         provenance=f"heisenberg(alpha={alpha!r}, beta={beta!r})")


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
        y0 = tuple(p.reduce_mod_1() for p in self.points)
        return _Orbit(y0, self._step, self._step_back)(n)

    def _step(self, y: tuple[PhaseScalar, ...]) -> tuple[PhaseScalar, ...]:
        return tuple((yj + prev).reduce_mod_1() for yj, prev in zip(y, (self.alpha, *y)))

    def _step_back(self, y: tuple[PhaseScalar, ...]) -> tuple[PhaseScalar, ...]:
        prev = [self.alpha]
        for yj in y:
            prev.append((yj - prev[-1]).reduce_mod_1())
        return tuple(prev[1:])

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
