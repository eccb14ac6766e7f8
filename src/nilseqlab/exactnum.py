"""Exact arithmetic kernel.

Integer matrices, integral polynomials held in the binomial basis
C(t,0), C(t,1), ..., scalars of the form rational + sum of rational
multiples of declared irrational generators, and polynomials with such
coefficients.  Everything here is immutable and side-effect free except
for the process-wide generator registry, which `declare_generator` adds
to and `reset_generators` clears (the CLI clears it at the start of each
run), and `write_atomic`, the one file writer of the package.  `Record`
is the frozen base of every record class in the package.

The binomial basis is the natural one for power iterates of unipotent
matrices: an integer matrix U with (U - I)^d = 0 satisfies
U^t = sum_j C(t,j) (U - I)^j for every integer t, so entries of matrix
powers are integral polynomials with integer binomial coefficients.
PhasePolynomial is held in the same basis.  Each change of basis is
written once below (forward differences, and one cached table each way)
and shared by both polynomial classes; monomial coefficients are exposed
exactly, for display and for rationality tests.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
from fractions import Fraction
from itertools import count, zip_longest
from typing import BinaryIO, Callable, Iterable, Sequence

__all__ = [
    "Record",
    "replace",
    "NotInGL",
    "NotUnipotent",
    "NonClosedProduct",
    "DegreeBoundExceeded",
    "binom_int",
    "IntMatrix",
    "IntegralPolynomial",
    "char_poly",
    "euler_phi",
    "cyclotomic",
    "EntropyReport",
    "classify_entropy",
    "PowerPolys",
    "unipotent_power_polys",
    "PhaseScalar",
    "declare_generator",
    "reset_generators",
    "parse_phase",
    "format_phase",
    "PhasePolynomial",
    "fit_phase_polynomial",
    "congruent_mod_1",
    "write_atomic",
]


class NotInGL(ValueError):
    """Matrix is not invertible over the integers (determinant not +-1)."""


class NotUnipotent(ValueError):
    """S^m - I is not nilpotent, so no polynomial power formula exists."""


class NonClosedProduct(ValueError):
    """Product of two scalars that both have irrational parts."""


class DegreeBoundExceeded(ValueError):
    """A fitted polynomial failed verification at held-out points."""


def binom_int(t: int, k: int) -> int:
    """C(t, k) for any integer t, including negative t.  Exact."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= t - i
    return num // math.factorial(k)


# ---------------------------------------------------------------------------
# immutable records

_set = object.__setattr__
_MISSING = object()                 # a field with no default


class Record:
    """Base of the package's immutable value records.

    A subclass derives from Record directly and lists its fields as
    annotations, in order; a class attribute is that field's default,
    and fields with a default come last.  It gets what a frozen
    dataclass would give it, with no code generated at import: an
    __init__ taking the fields by position or by name, which raises
    TypeError on a missing, unknown or repeated argument and then calls
    __post_init__ if the class defines one; attributes that cannot be
    assigned or deleted; equality with a record of the same class whose
    fields are equal; the hash of the tuple of field values; and the
    repr ClassName(field=value, ...).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every field in order, holding its default or _MISSING
        template = {name: vars(cls).get(name, _MISSING) for name in cls.__annotations__}
        names = tuple(template)
        required = sum(value is _MISSING for value in template.values())
        defaults = tuple(template.values())[required:]
        if any(value is _MISSING for value in defaults):
            raise TypeError(f"{cls.__qualname__}: a field without a default "
                            f"follows one with a default")
        # tails[k]: the defaults of the fields after the first k, for a
        # call with k positional arguments and no keywords
        tails = {k: defaults[k - required:] for k in range(required, len(names) + 1)}
        cls._shape = (names, tails, getattr(cls, "__post_init__", None), template)

    def __init__(self, *args, **kwargs):
        names, tails, post_init, _ = self._shape
        tail = tails.get(len(args))
        if kwargs or tail is None:
            fields = _bind(self, args, kwargs)
        else:
            # the call's own empty keyword dict becomes the instance dict,
            # filled in field order: equality and hash read it whole, and
            # attribute reads stay as fast as a dataclass's
            fields, args, i = kwargs, args + tail, 0
            for name in names:
                fields[name] = args[i]
                i += 1
        _set(self, "__dict__", fields)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


def _bind(record: Record, args: tuple, kwargs: dict) -> dict:
    """The fields, in order, of a call with keywords or with too few or
    too many positional arguments; TypeError where a def with the same
    parameters would raise it."""
    names, tails, _, template = record._shape
    fields = template.copy()
    if args:
        fields.update(zip(names, args))
    fields.update(kwargs)
    if len(args) > len(names):
        problem = f"takes {len(names)} positional arguments but {len(args)} were given"
    elif len(fields) > len(names):
        unknown = next(name for name in kwargs if name not in template)
        problem = f"got an unexpected keyword argument {unknown!r}"
    elif args and not kwargs.keys().isdisjoint(names[:len(args)]):
        repeated = next(name for name in names if name in kwargs)
        problem = f"got multiple values for argument {repeated!r}"
    else:
        missing = [name for name in names[:min(tails)] if fields[name] is _MISSING]
        if not missing:
            return fields
        problem = f"missing required arguments: {', '.join(map(repr, missing))}"
    raise TypeError(f"{record.__class__.__qualname__}() {problem}")


def replace(record: Record, /, **changes) -> Record:
    """A copy of record with the named fields changed.  It is built
    through __init__, so __post_init__ checks the new values."""
    return record.__class__(**{**record.__dict__, **changes})


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(Record):
    """Square integer matrix, held as a tuple of integer rows."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        d = len(tup)
        if d == 0 or any(len(r) != d for r in tup):
            raise ValueError("matrix must be square and nonempty")
        return IntMatrix(tup)

    @staticmethod
    def identity(d: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        d = self.dim
        cols = tuple(zip(*other.rows))
        return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dim)

    def det(self) -> int:
        return (-1) ** self.dim * _faddeev_leverrier(self)[0][0]

    def inverse(self) -> "IntMatrix":
        """Exact inverse, defined only for determinant +-1."""
        (c0, *_), M = _faddeev_leverrier(self)
        if c0 not in (1, -1):
            dt = (-1) ** self.dim * c0
            raise NotInGL(f"determinant {dt}, matrix has no integer inverse")
        return M.scale(-c0)  # S M_d = -c_0 I, and 1 / c_0 = c_0

    def __pow__(self, n: int) -> "IntMatrix":
        base = self if n >= 0 else self.inverse()
        e = abs(n)
        result = IntMatrix.identity(self.dim)
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# integral polynomials (binomial basis)


def _trim(seq: Sequence) -> tuple:
    out = list(seq)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _forward_differences(values: Sequence) -> list:
    """Delta^j f(0) for j < len(values), from f(0), f(1), ...: the
    binomial coefficients of the polynomial through those values."""
    diffs, out = list(values), []
    while diffs:
        out.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return out


@functools.cache
def _binomial_in_monomials(j: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(t, j), low degree first."""
    poly = [Fraction(1)]
    for i in range(j):
        # times (t - i) / (i + 1)
        poly = [(a - i * b) / (i + 1)
                for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    return tuple(poly)


@functools.cache
def _monomial_in_binomials(k: int) -> tuple[int, ...]:
    """Binomial coefficients of t^k, low degree first (j! S(k, j))."""
    return tuple(_forward_differences([t ** k for t in range(k + 1)]))


def _rebase(coeffs: Sequence, table: Callable[[int], tuple], mul: Callable, zero) -> list:
    """sum_j coeffs[j] * table(j): coefficients moved to the other basis,
    where table(j) is the j-th basis element written in that basis."""
    out = [zero] * len(coeffs)
    for j, c in enumerate(coeffs):
        for k, a in enumerate(table(j)):
            out[k] = out[k] + mul(c, a)
    return out


class IntegralPolynomial(Record):
    """Polynomial taking integer values on integers.

    Stored in the binomial basis: p(t) = sum_j coeffs[j] * C(t, j) with
    integer coeffs.  The zero polynomial has an empty coefficient tuple.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def from_binomial(coeffs: Iterable[int]) -> "IntegralPolynomial":
        return IntegralPolynomial(_trim([int(c) for c in coeffs]))

    @staticmethod
    def from_values(values: Sequence[int]) -> "IntegralPolynomial":
        """Interpolate from values at t = 0, 1, ..., len(values)-1."""
        return IntegralPolynomial.from_binomial(_forward_differences(values))

    @staticmethod
    def from_monomial(coeffs: Sequence[int]) -> "IntegralPolynomial":
        """Build from integer monomial coefficients (low degree first)."""
        return IntegralPolynomial.from_binomial(
            _rebase(coeffs, _monomial_in_binomials, operator.mul, 0))

    @staticmethod
    def constant(c: int) -> "IntegralPolynomial":
        return IntegralPolynomial.from_binomial([c])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        return sum(c * binom_int(t, j) for j, c in enumerate(self.coeffs))

    def __add__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        return IntegralPolynomial.from_binomial(
            [x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntegralPolynomial":
        return IntegralPolynomial.from_binomial([c * x for x in self.coeffs])

    def __mul__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntegralPolynomial(())
        n = self.degree + other.degree
        vals = [self(t) * other(t) for t in range(n + 1)]
        return IntegralPolynomial.from_values(vals)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def monomial_coefficients(self) -> tuple[Fraction, ...]:
        """Exact monomial coefficients, low degree first."""
        return _trim(_rebase(self.coeffs, _binomial_in_monomials, operator.mul, Fraction(0)))


# ---------------------------------------------------------------------------
# characteristic polynomial and entropy classification


def _faddeev_leverrier(S: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Monomial coefficients c_0..c_d of det(xI - S), low degree first,
    and the last matrix M_d of the Faddeev-LeVerrier recursion.

    M_1 = I, c_{d-k} = -tr(S M_k) / k, M_{k+1} = S M_k + c_{d-k} I; every
    division is exact over the integers.  Cayley-Hamilton gives
    S M_d = -c_0 I, so det S = (-1)^d c_0 and M_d is (-1)^(d+1) adj S.
    """
    d = S.dim
    coeffs = [0] * d + [1]
    M = IntMatrix.identity(d)
    for k in range(1, d + 1):
        SM = S @ M
        tr = sum(SM.rows[i][i] for i in range(d))
        if tr % k:
            raise ArithmeticError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        coeffs[d - k] = -tr // k
        if k < d:
            M = SM + IntMatrix.identity(d).scale(coeffs[d - k])
    return coeffs, M


def char_poly(S: IntMatrix) -> IntegralPolynomial:
    """Characteristic polynomial det(xI - S), monic, exact.

    Computed by the Faddeev-LeVerrier recursion; monomial coefficients
    (which are integers here) are available through
    monomial_coefficients().
    """
    return IntegralPolynomial.from_monomial(_faddeev_leverrier(S)[0])


def euler_phi(k: int) -> int:
    n, result, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_divmod_z(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Division in Z[x] assuming den is monic.  Low degree first."""
    num = list(num)
    den = list(den)
    q = [0] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        coef = num[-1]
        q[shift] = coef
        for i, dc in enumerate(den):
            num[shift + i] -= coef * dc
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_gcd_monic(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q, low degree first.  [1] when coprime."""
    def norm(p: Sequence[Fraction]) -> list[Fraction]:
        p = list(p)
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        if p[-1] not in (0, 1):
            lead = p[-1]
            p = [c / lead for c in p]
        return p

    a, b = norm([Fraction(c) for c in a]), norm([Fraction(c) for c in b])
    while len(b) > 1:
        _, r = _poly_divmod_z(a, b)
        a, b = b, norm(r)
    return a if b[0] == 0 else [Fraction(1)]


@functools.cache
def cyclotomic(k: int) -> tuple[int, ...]:
    """Coefficients of the k-th cyclotomic polynomial, low degree first."""
    # x^k - 1 divided by the product of cyclotomics of proper divisors
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod_z(num, list(cyclotomic(d)))
            if any(rem):
                raise ArithmeticError(f"x^{k} - 1 leaves a remainder mod Phi_{d}")
    return tuple(num)


def cyclotomic_candidates(d: int) -> list[int]:
    """All k with euler_phi(k) <= d; only these can divide a degree-d
    characteristic polynomial through a cyclotomic factor."""
    # phi(k) >= sqrt(k/2), so k <= 2 d^2 suffices as a scan bound
    return [k for k in range(1, 2 * d * d + 2) if euler_phi(k) <= d]


class EntropyReport(Record):
    """Classification of the automorphism induced by an integer matrix.

    verdict is "zero" or "positive".  For "zero", unipotence_order m is
    the least common multiple of the orders of the cyclotomic factors,
    so S^m is unipotent; cyclotomic_orders lists the factors with
    multiplicity.  For "positive", entropy is sum of log|eigenvalue|
    over eigenvalues outside the unit circle and nc_lower_bound is half
    of it (the bound available for the noncommutative extension).
    """

    verdict: str
    dim: int
    unipotence_order: int | None = None
    cyclotomic_orders: tuple[int, ...] | None = None
    entropy: float | None = None
    nc_lower_bound: float | None = None

    @property
    def is_zero_entropy(self) -> bool:
        return self.verdict == "zero"


def classify_entropy(S: IntMatrix) -> EntropyReport:
    """Decide zero vs positive entropy for the toral automorphism of S.

    Zero entropy holds exactly when the characteristic polynomial is a
    product of cyclotomic polynomials (no eigenvalue off the unit circle
    is possible otherwise for a monic integer polynomial).  The test is
    exact integer polynomial division.  The positive-entropy value is
    numeric: Yun's gcd chain splits the non-cyclotomic part exactly into
    squarefree factors by multiplicity k, the roots of each factor are
    found once at 60 digits, and each root r with |r| > 1 adds k log|r|.
    Every root r of a factor sum_i c_i x^i must leave a residual below
    1e-30 * sum_i |c_i| |r|^i, the magnitude Horner's rule adds up at r,
    or ArithmeticError is raised.
    """
    d = S.dim
    remainder, _ = _faddeev_leverrier(S)  # det S = (-1)^d c_0
    if remainder[0] not in (1, -1):
        dt = (-1) ** d * remainder[0]
        raise NotInGL(f"determinant {dt}; not an automorphism of the torus")
    orders: list[int] = []
    for k in cyclotomic_candidates(d):
        ck = list(cyclotomic(k))
        while len(remainder) >= len(ck):
            q, rem = _poly_divmod_z(remainder, ck)
            if any(rem):
                break
            orders.append(k)
            remainder = q if any(q) else [0]
    if len(remainder) == 1:
        m = math.lcm(*orders)
        if not ((S ** m - IntMatrix.identity(d)) ** d).is_zero():
            raise ArithmeticError("cyclotomic factorization did not force unipotence")
        return EntropyReport(
            verdict="zero", dim=d, unipotence_order=m,
            cyclotomic_orders=tuple(sorted(orders)),
        )
    # positive entropy: Yun's gcd chain f_{k+1} = gcd(f_k, f_k') over the
    # non-cyclotomic part; s_k = f_k / f_{k+1} holds each root of
    # multiplicity > k once, so s_{k-1} / s_k holds those of multiplicity
    # exactly k and every root is found once, on a squarefree polynomial
    import mpmath  # only here: the zero-entropy verdict is pure integer algebra

    with mpmath.workdps(60):
        h, tol = mpmath.mpf(0), mpmath.mpf(10) ** (-30)
        f, s_prev = [Fraction(c) for c in remainder], None
        for k in count():
            f_next = _poly_gcd_monic(f, [i * c for i, c in enumerate(f)][1:] or [0])
            s, _ = _poly_divmod_z(f, f_next)
            part = _poly_divmod_z(s_prev, s)[0] if k else [1]
            if len(part) > 1:
                poly_hi = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(part)]
                abs_hi = [abs(c) for c in poly_hi]
                for r in mpmath.polyroots(poly_hi, maxsteps=200, extraprec=120):
                    # residual against the magnitude Horner's rule adds up at r
                    mod, val = abs(r), mpmath.polyval(poly_hi, r)
                    if not abs(val) < tol * mpmath.polyval(abs_hi, mod):
                        raise ArithmeticError(
                            f"root {r} leaves residual {val} at 60 digits")
                    if mod > 1:
                        h += k * mpmath.log(mod)
            if len(s) == 1:
                break
            f, s_prev = f_next, s
        h_float = float(h)
    return EntropyReport(
        verdict="positive", dim=d,
        entropy=h_float, nc_lower_bound=h_float / 2.0,
    )


# ---------------------------------------------------------------------------
# polynomial power formulas for quasi-unipotent matrices


class PowerPolys(Record):
    """Matrices of integral polynomials P_r with P_r(t) = S^(t*m + r).

    Valid for every integer t, negative included: with D = S^m - I
    nilpotent, S^(t*m) = (I + D)^t = sum_{j<d} C(t,j) D^j holds as a
    polynomial identity in t.
    """

    modulus: int
    mats: tuple[tuple[tuple[IntegralPolynomial, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.mats[0])

    def entry(self, r: int, i: int, j: int) -> IntegralPolynomial:
        return self.mats[r][i][j]

    def evaluate(self, r: int, t: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(p(t) for p in row) for row in self.mats[r]))

    def power_at(self, n: int) -> IntMatrix:
        """S^n through the polynomial formulas (n = t*m + r, 0 <= r < m)."""
        r = n % self.modulus
        t = (n - r) // self.modulus
        return self.evaluate(r, t)


def unipotent_power_polys(S: IntMatrix, m: int) -> PowerPolys:
    """Polynomial formulas for all powers of S given S^m unipotent."""
    d = S.dim
    D = (S ** m) - IntMatrix.identity(d)
    dpows = [IntMatrix.identity(d)]
    for _ in range(d - 1):
        dpows.append(dpows[-1] @ D)
    if not (dpows[-1] @ D).is_zero():
        raise NotUnipotent(f"(S^{m} - I)^{d} != 0")
    mats = []
    for r in range(m):
        Sr = S ** r
        terms = [dp @ Sr for dp in dpows]
        mat = tuple(
            tuple(
                IntegralPolynomial.from_binomial([terms[j].rows[i][k] for j in range(d)])
                for k in range(d)
            )
            for i in range(d)
        )
        mats.append(mat)
    return PowerPolys(modulus=m, mats=tuple(mats))


# ---------------------------------------------------------------------------
# phase scalars over declared irrational generators


_GENERATOR_VALUES: dict[str, Fraction] = {}

_GID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)  # accepts "a/b" and decimal strings exactly
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def declare_generator(gid: str, value) -> "PhaseScalar":
    """Register an irrational generator with its numeric stand-in.

    The value is stored exactly (decimal strings are converted without
    rounding); rational independence from 1 and the other generators is
    assumed, not checked.  Re-declaring with the same value is a no-op;
    a conflicting value is an error.
    """
    if not _GID_RE.match(gid):
        raise ValueError(f"bad generator id {gid!r}")
    val = _to_fraction(value)
    if gid in _GENERATOR_VALUES and _GENERATOR_VALUES[gid] != val:
        raise ValueError(f"generator {gid!r} already declared with a different value")
    _GENERATOR_VALUES[gid] = val
    return PhaseScalar(Fraction(0), ((gid, Fraction(1)),))


def reset_generators() -> None:
    """Forget all declarations, as in a fresh process."""
    _GENERATOR_VALUES.clear()


class PhaseScalar(Record):
    """rational + sum of rational multiples of declared generators.

    Addition, negation, and scaling by rationals are closed.  A product
    is defined only when either operand is rational; two irrational
    operands raise NonClosedProduct.  reduce_mod_1 normalizes only the
    rational part into [0, 1); mod-1 congruence therefore means the
    difference is a plain integer.
    """

    rational: Fraction
    irr: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def from_rational(q) -> "PhaseScalar":
        return PhaseScalar(_to_fraction(q))

    @staticmethod
    def zero() -> "PhaseScalar":
        return PhaseScalar(Fraction(0))

    @staticmethod
    def generator(gid: str) -> "PhaseScalar":
        if gid not in _GENERATOR_VALUES:
            raise ValueError(f"generator {gid!r} was never declared")
        return PhaseScalar(Fraction(0), ((gid, Fraction(1)),))

    @staticmethod
    def _build(rational: Fraction, parts: dict[str, Fraction]) -> "PhaseScalar":
        irr = tuple(sorted((g, c) for g, c in parts.items() if c != 0))
        return PhaseScalar(rational, irr)

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        parts = dict(self.irr)
        for g, c in other.irr:
            parts[g] = parts.get(g, Fraction(0)) + c
        return PhaseScalar._build(self.rational + other.rational, parts)

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __neg__(self) -> "PhaseScalar":
        return PhaseScalar(-self.rational, tuple((g, -c) for g, c in self.irr))

    def scale(self, q) -> "PhaseScalar":
        q = _to_fraction(q)
        if q == 0:
            return PhaseScalar.zero()
        return PhaseScalar(self.rational * q, tuple((g, c * q) for g, c in self.irr))

    def __mul__(self, other: "PhaseScalar") -> "PhaseScalar":
        if self.is_rational():
            return other.scale(self.rational)
        if other.is_rational():
            return self.scale(other.rational)
        raise NonClosedProduct(f"product of two irrational scalars "
                               f"{format_phase(self)!r} * {format_phase(other)!r}")

    def reduce_mod_1(self) -> "PhaseScalar":
        return PhaseScalar(self.rational % 1, self.irr)

    def is_rational(self) -> bool:
        return not self.irr

    def is_integer(self) -> bool:
        return not self.irr and self.rational.denominator == 1

    def exact_value(self) -> Fraction:
        """Exact numeric value using the declared generator stand-ins."""
        acc = self.rational
        for g, c in self.irr:
            acc += c * _GENERATOR_VALUES[g]
        return acc

    def to_float(self) -> float:
        return float(self.exact_value())

    def float_mod_1(self) -> float:
        return float(self.exact_value() % 1)

    def __bool__(self) -> bool:
        return bool(self.rational) or bool(self.irr)


def congruent_mod_1(a: PhaseScalar, b: PhaseScalar) -> bool:
    """True when a - b is a plain integer."""
    return (a - b).is_integer()


_TERM_RE = re.compile(
    r"""^(?:
        (?P<coef>[+-]?\d+(?:\.\d+)?(?:/\d+)?)\s*\*\s*(?P<gid>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<gid2>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<num>[+-]?\d+(?:\.\d+)?(?:/\d+)?)
    )$""",
    re.VERBOSE,
)


def parse_phase(text: str) -> PhaseScalar:
    """Parse the scalar literal syntax: "1/3 + 2*g1 - g2", "-0.25", "g1".

    Rationals may be written a/b or as decimal strings (kept exact);
    generators must be declared before use.
    """
    s = text.replace("-", "+-").replace(" ", "")
    if s.startswith("+"):
        s = s[1:]
    if not s:
        raise ValueError(f"empty scalar literal {text!r}")
    acc = PhaseScalar.zero()
    for raw in s.split("+"):
        if not raw:
            raise ValueError(f"dangling operator in {text!r}")
        term = raw
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse scalar term {raw!r} in {text!r}")
        if m.group("gid"):
            part = PhaseScalar.generator(m.group("gid")).scale(Fraction(m.group("coef")))
        elif m.group("gid2"):
            part = PhaseScalar.generator(m.group("gid2"))
        else:
            part = PhaseScalar.from_rational(Fraction(m.group("num")))
        acc = acc + (-part if neg else part)
    return acc


def format_phase(p: PhaseScalar) -> str:
    """Literal form parse_phase accepts; round-trips exactly."""
    parts = []
    if p.rational or not p.irr:
        parts.append(str(p.rational))
    for g, c in p.irr:
        if c == 1:
            term = g
        else:
            term = f"{c}*{g}"
        if parts:
            parts.append(f"+ {term}")
        else:
            parts.append(term)
    out = " ".join(parts)
    return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# polynomials with phase-scalar coefficients


class PhasePolynomial(Record):
    """Polynomial with PhaseScalar coefficients, evaluated at integers.

    Stored in the binomial basis, as IntegralPolynomial is:
    p(n) = sum_j coeffs[j] * C(n, j).  Fitting by finite differences and
    the unipotent power formulas both land there.  Monomial coefficients
    come in through from_coeffs and go out through monomial_coefficients,
    both exactly.
    """

    coeffs: tuple[PhaseScalar, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[PhaseScalar], basis: str = "binomial") -> "PhasePolynomial":
        """Coefficients (low degree first) in the basis named "binomial"
        or "monomial"; trailing zeros are trimmed."""
        coeffs = tuple(coeffs)
        if basis == "monomial":
            coeffs = _rebase(coeffs, _monomial_in_binomials, PhaseScalar.scale,
                             PhaseScalar.zero())
        elif basis != "binomial":
            raise ValueError(f"unknown basis {basis!r}")
        return PhasePolynomial(_trim(coeffs))

    @staticmethod
    def constant(c: PhaseScalar) -> "PhasePolynomial":
        return PhasePolynomial.from_coeffs([c])

    @staticmethod
    def zero() -> "PhasePolynomial":
        return PhasePolynomial(())

    @staticmethod
    def from_integral(p: IntegralPolynomial, s: PhaseScalar) -> "PhasePolynomial":
        """s * p(n) as a phase polynomial."""
        return PhasePolynomial.from_coeffs([s.scale(c) for c in p.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> PhaseScalar:
        acc = PhaseScalar.zero()
        for j, c in enumerate(self.coeffs):
            acc = acc + c.scale(binom_int(n, j))
        return acc

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return PhasePolynomial.from_coeffs(
            [x + y for x, y in zip_longest(self.coeffs, other.coeffs,
                                           fillvalue=PhaseScalar.zero())])

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + other.scale(-1)

    def scale(self, q) -> "PhasePolynomial":
        return PhasePolynomial.from_coeffs(c.scale(q) for c in self.coeffs)

    def monomial_coefficients(self) -> tuple[PhaseScalar, ...]:
        """Exact monomial coefficients, low degree first."""
        return _trim(_rebase(self.coeffs, _binomial_in_monomials, PhaseScalar.scale,
                             PhaseScalar.zero()))

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def has_irrational_nonconstant(self) -> bool:
        """True when some coefficient of positive degree is irrational
        (the equidistribution criterion for e(p(n)))."""
        return any(not c.is_rational() for c in self.monomial_coefficients()[1:])


# points past the fit range that fit_phase_polynomial verifies
HELD_OUT = 3


def fit_phase_polynomial(
    evaluate: Callable[[int], PhaseScalar],
    degree_bound: int,
) -> PhasePolynomial:
    """Fit a polynomial mod 1 of degree <= degree_bound to a sequence.

    Samples t = 0..degree_bound for the fit (Newton forward differences,
    exact) and verifies the next HELD_OUT points.  Values only known
    mod 1 are fine: integer perturbations of the samples shift the
    fitted coefficients by integers, so the fit is still congruent mod 1
    at every integer.  Verification failure raises DegreeBoundExceeded.
    """
    samples = [evaluate(t) for t in range(degree_bound + 1)]
    poly = PhasePolynomial.from_coeffs(_forward_differences(samples))
    for t in range(degree_bound + 1, degree_bound + 1 + HELD_OUT):
        if not congruent_mod_1(poly(t), evaluate(t)):
            raise DegreeBoundExceeded(
                f"degree-{degree_bound} fit fails at held-out t={t}")
    return poly


# ---------------------------------------------------------------------------
# atomic file output


def write_atomic(path: str,
                 data: str | Iterable[str] | Callable[[BinaryIO], None]) -> None:
    """Write data to a temporary file beside path, then rename it over path.

    data is a str, an iterable of str chunks written in turn, or a
    function that writes the binary file it is handed (it may seek back,
    as to fill in a header last), so a large output need never be whole
    in memory.
    A reader sees the old file or the whole new one, never a partial one.
    The temporary name carries the pid and a random token and is created
    with O_EXCL, so concurrent writers of one path never share or remove
    each other's temporary file; each removes only its own on failure.
    It is made with mode 0o666 less the umask, as open() would make it.
    """
    tmp = f"{path}.{os.getpid()}-{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb" if callable(data) else "w") as f:
            if callable(data):
                data(f)
            elif isinstance(data, str):
                f.write(data)
            else:
                f.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
