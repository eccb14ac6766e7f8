"""Shift-phase operator model and the nilsequence/zero-density splitter.

The operator group acts on l2(Z^delta) plus a finite atomic sector.  A
generator shifts sites by r and multiplies by e(phi + L(k)), with L a
linear form with PhaseScalar coefficients.  Commutators of two such
operators are central scalars, so the group is 2-step nilpotent and
every word normal-orders to a single (shift, phase, form) triple.

Splitting <g(n)u, v>: atoms always live in the compact sector; the
sparse sector is compact exactly when every element of the evaluation
group acts diagonally.  The compact part is written as an explicit sum
of phase-polynomial exponentials; the weak-mixing remainder is an
inner product supported on a finite hit set (solutions of an integer
polynomial system), which is the zero-density certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .exactnum import (
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    Record,
    fit_phase_polynomial,
    format_phase,
)
from .nilseq import SequenceStream, Tag, e_phase, phase_sum_block

__all__ = [
    "NotDiagonal",
    "ShiftPhaseOperator",
    "op_pow",
    "SparseVector",
    "GPolynomial",
    "SectorReport",
    "compact_subspace",
    "NilTerm",
    "ZeroDensityCertificate",
    "DecompositionResult",
    "decompose",
    "integer_solutions",
    "integer_hits",
]


class NotDiagonal(ValueError):
    """Operation requires shift-free (diagonal) operators."""


# ---------------------------------------------------------------------------
# operators


class ShiftPhaseOperator(Record):
    """delta_k -> e(phase + form(k)) * delta_{k + shift}."""

    shift: tuple[int, ...]
    phase: PhaseScalar
    form: tuple[PhaseScalar, ...]

    def __post_init__(self):
        if len(self.shift) != len(self.form):
            raise ValueError("shift and form must have equal length")

    @staticmethod
    def make(shift: Sequence[int], phase: PhaseScalar | None = None,
             form: Sequence[PhaseScalar] | None = None) -> "ShiftPhaseOperator":
        shift = tuple(int(s) for s in shift)
        if phase is None:
            phase = PhaseScalar.zero()
        if form is None:
            form = tuple(PhaseScalar.zero() for _ in shift)
        return ShiftPhaseOperator(shift, phase, tuple(form))

    @staticmethod
    def identity(dim: int) -> "ShiftPhaseOperator":
        return ShiftPhaseOperator.make([0] * dim)

    @property
    def dim(self) -> int:
        return len(self.shift)

    def form_at(self, k: Sequence[int]) -> PhaseScalar:
        acc = PhaseScalar.zero()
        for c, ki in zip(self.form, k):
            if c and ki:
                acc = acc + c.scale(int(ki))
        return acc

    def is_diagonal(self) -> bool:
        return all(s == 0 for s in self.shift)

    def compose(self, other: "ShiftPhaseOperator") -> "ShiftPhaseOperator":
        """self applied after other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        shift = tuple(a + b for a, b in zip(self.shift, other.shift))
        phase = other.phase + self.phase + self.form_at(other.shift)
        form = tuple(a + b for a, b in zip(self.form, other.form))
        return ShiftPhaseOperator(shift, phase, form)

    def inverse(self) -> "ShiftPhaseOperator":
        return op_pow(self, -1)

    def commutator_phase(self, other: "ShiftPhaseOperator") -> PhaseScalar:
        """W1 W2 = e(c) W2 W1 with c = L1(r2) - L2(r1); central scalar."""
        return self.form_at(other.shift) - other.form_at(self.shift)


def op_pow(W: ShiftPhaseOperator, n: int) -> ShiftPhaseOperator:
    """W^n in closed form: (n r, n phi + C(n,2) L(r), n L); all n in Z."""
    n = int(n)
    shift = tuple(n * s for s in W.shift)
    half = Fraction(n * (n - 1), 2)
    phase = W.phase.scale(n) + W.form_at(W.shift).scale(half)
    form = tuple(c.scale(n) for c in W.form)
    return ShiftPhaseOperator(shift, phase, form)


# ---------------------------------------------------------------------------
# vectors


def _canon_sites(dim: int, mapping: Mapping[Sequence[int], complex],
                 error: type[ValueError] = ValueError):
    """Sorted (site, coefficient) pairs with the zero coefficients dropped;
    a site of the wrong length raises `error`."""
    items = []
    for site, coeff in mapping.items():
        site = tuple(int(s) for s in site)
        if len(site) != dim:
            raise error(f"site {site} has wrong dimension")
        c = complex(coeff)
        if c != 0:
            items.append((site, c))
    items.sort(key=lambda kv: kv[0])
    return tuple(items)


class SparseVector(Record):
    """Finitely supported vector: lattice sites plus labeled atoms.

    Each atom carries one eigenphase per generator of whatever operator
    family it will be used with; bare ShiftPhaseOperators act on the
    lattice part only.
    """

    dim: int
    sites: tuple[tuple[tuple[int, ...], complex], ...] = ()
    atoms: tuple[tuple[str, complex, tuple[PhaseScalar, ...]], ...] = ()

    @staticmethod
    def from_sites(dim: int, mapping: Mapping[Sequence[int], complex],
                   atoms: Mapping[str, tuple[complex, Sequence[PhaseScalar]]] | None = None,
                   ) -> "SparseVector":
        site_items = _canon_sites(dim, mapping)
        atom_items = []
        if atoms:
            for aid in sorted(atoms):
                coeff, phases = atoms[aid]
                c = complex(coeff)
                if c != 0:
                    atom_items.append((str(aid), c, tuple(phases)))
        return SparseVector(dim, site_items, tuple(atom_items))

    @staticmethod
    def basis(dim: int, site: Sequence[int]) -> "SparseVector":
        return SparseVector.from_sites(dim, {tuple(site): 1.0})

    def site_dict(self) -> dict[tuple[int, ...], complex]:
        return dict(self.sites)

    def atom_dict(self) -> dict[str, tuple[complex, tuple[PhaseScalar, ...]]]:
        return {aid: (c, ph) for aid, c, ph in self.atoms}

    def norm_sq(self) -> float:
        return (sum(abs(c) ** 2 for _, c in self.sites)
                + sum(abs(c) ** 2 for _, c, _ in self.atoms))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "SparseVector") -> complex:
        """<self, other>, linear in self, conjugate-linear in other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        od = other.site_dict()
        total = sum((c * od[k].conjugate() for k, c in self.sites if k in od), 0j)
        oa = other.atom_dict()
        for aid, c, ph in self.atoms:
            if aid in oa:
                oc, oph = oa[aid]
                if tuple(ph) != tuple(oph):
                    raise ValueError(f"atom {aid!r} has conflicting eigenphases")
                total += c * oc.conjugate()
        return total

    def scale(self, z: complex) -> "SparseVector":
        return SparseVector(
            self.dim,
            tuple((k, c * z) for k, c in self.sites),
            tuple((a, c * z, ph) for a, c, ph in self.atoms))

    def add(self, other: "SparseVector") -> "SparseVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.site_dict()
        for k, c in other.sites:
            d[k] = d.get(k, 0) + c
        at = self.atom_dict()
        for aid, c, ph in other.atoms:
            if aid in at:
                c0, ph0 = at[aid]
                if tuple(ph0) != tuple(ph):
                    raise ValueError(f"atom {aid!r} has conflicting eigenphases")
                at[aid] = (c0 + c, ph0)
            else:
                at[aid] = (c, tuple(ph))
        return SparseVector.from_sites(self.dim, d,
                                       {a: v for a, v in at.items() if v[0] != 0})

    def lattice_part(self) -> "SparseVector":
        return SparseVector(self.dim, self.sites, ())

    def atomic_part(self) -> "SparseVector":
        return SparseVector(self.dim, (), self.atoms)

    def apply_operator(self, W: ShiftPhaseOperator) -> "SparseVector":
        """Lattice action only; vectors with atoms need generator context."""
        if self.atoms:
            raise NotDiagonal("bare operators act on the lattice part only; "
                              "use GPolynomial.apply for atomic vectors")
        if W.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = {}
        for k, c in self.sites:
            ph = (W.phase + W.form_at(k)).float_mod_1()
            nk = tuple(a + b for a, b in zip(k, W.shift))
            out[nk] = out.get(nk, 0) + c * e_phase(ph)
        return SparseVector.from_sites(self.dim, out)


# ---------------------------------------------------------------------------
# polynomial words g(n) = U_1^{p_1(n)} ... U_k^{p_k(n)}


class GPolynomial(Record):
    """Polynomial word g(n) = U_1^{p_1(n)} ... U_k^{p_k(n)}."""

    generators: tuple[ShiftPhaseOperator, ...]
    polys: tuple[IntegralPolynomial, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.polys):
            raise ValueError("one exponent polynomial per generator")
        dims = {g.dim for g in self.generators}
        if len(dims) > 1:
            raise ValueError("generators act on different lattices")

    @staticmethod
    def make(generators: Sequence[ShiftPhaseOperator],
             polys: Sequence[IntegralPolynomial]) -> "GPolynomial":
        return GPolynomial(tuple(generators), tuple(polys))

    @property
    def dim(self) -> int:
        return self.generators[0].dim if self.generators else 0

    @property
    def degree(self) -> int:
        return max((p.degree for p in self.polys), default=0)

    def eval(self, n: int) -> ShiftPhaseOperator:
        """Left-to-right product of generator powers at n."""
        acc = ShiftPhaseOperator.identity(self.dim)
        for U, p in zip(self.generators, self.polys):
            acc = acc.compose(op_pow(U, p(n)))
        return acc

    def shift_polynomial(self) -> tuple[IntegralPolynomial, ...]:
        """Coordinate polynomials of the total shift of g(n)."""
        comps = []
        for c in range(self.dim):
            acc = IntegralPolynomial.constant(0)
            for U, p in zip(self.generators, self.polys):
                if U.shift[c]:
                    acc = acc + p.scale(U.shift[c])
            comps.append(acc)
        return tuple(comps)

    def atom_phase_poly(self, eigenphases: Sequence[PhaseScalar]) -> PhasePolynomial:
        """Phase polynomial of the scalar action on one atom."""
        if len(eigenphases) != len(self.generators):
            raise ValueError("need one eigenphase per generator")
        f = PhasePolynomial.zero()
        for p, lam in zip(self.polys, eigenphases):
            f = f + PhasePolynomial.from_integral(p, lam)
        return f

    def apply(self, vec: SparseVector, n: int) -> SparseVector:
        """Full action of g(n): operator on sites, scalars on atoms."""
        op = self.eval(n)
        lattice = vec.lattice_part().apply_operator(op) if vec.sites else \
            SparseVector(vec.dim, (), ())
        atoms = {}
        for aid, c, ph in vec.atoms:
            f = self.atom_phase_poly(ph)
            atoms[aid] = (c * e_phase(f(n).float_mod_1()), ph)
        return lattice.add(SparseVector.from_sites(vec.dim, {}, atoms))

    def pairing(self, u: SparseVector, v: SparseVector) -> Callable[[int], complex]:
        def a_of_n(n: int) -> complex:
            return self.apply(u, n).inner(v)
        return a_of_n


# ---------------------------------------------------------------------------
# compact / weak-mixing sectors


class SectorReport(Record):
    """Where the two sectors of the sparse+atomic space land.

    atoms_compact is always True in this model; lattice_compact holds
    exactly when every supplied group element is diagonal, since a
    nonzero shift admits no finitely supported eigenvector and the
    compact sector of the group is the intersection over its elements.
    """

    lattice_compact: bool
    atoms_compact: bool
    nonzero_shift_index: int | None


def compact_subspace(generators: Sequence[ShiftPhaseOperator]) -> SectorReport:
    for i, W in enumerate(generators):
        if not W.is_diagonal():
            return SectorReport(lattice_compact=False, atoms_compact=True,
                                nonzero_shift_index=i)
    return SectorReport(lattice_compact=True, atoms_compact=True,
                        nonzero_shift_index=None)


# ---------------------------------------------------------------------------
# integer solutions of polynomial equations (hit sets)


def _horner(ints: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _root_brackets(ints: Sequence[int], bound: int) -> list[int]:
    """Sorted integers from -bound to bound, both included, such that each
    real root of the integer polynomial `ints` (low degree first) in that
    range is one of them or lies between two of them that are 1 apart.

    Recursion on the derivative: between two of its brackets more than 1
    apart the derivative has no root, so the polynomial is strictly
    monotone there (Rolle) and a sign change is bisected over the
    integers, all in exact integer arithmetic.
    """
    if len(ints) == 1:                  # a nonzero constant has no root
        return [-bound, bound]
    cuts = _root_brackets([i * c for i, c in enumerate(ints)][1:], bound)
    out = set(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        flo, fhi = _horner(ints, lo), _horner(ints, hi)
        if hi - lo < 2 or flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fmid = _horner(ints, mid)
            if fmid == 0:
                lo = hi = mid
            elif (fmid > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        out.update((lo, hi))
    return sorted(out)


def integer_solutions(p: IntegralPolynomial, target: int) -> tuple[int, ...] | None:
    """All integer n with p(n) = target; None means identically true.

    Exact at any size: with the denominators cleared, `_root_brackets`
    brackets every real root inside the Cauchy bound, at every degree.
    Every candidate is then checked as p(n) == target.
    """
    mono = [Fraction(c) for c in p.monomial_coefficients()] or [Fraction(0)]
    mono[0] -= target
    while len(mono) > 1 and mono[-1] == 0:
        mono.pop()
    if len(mono) == 1:
        return None if mono[0] == 0 else ()
    den = math.lcm(*[c.denominator for c in mono])
    ints = [int(c * den) for c in mono]
    cauchy = 1 + -(-max(abs(c) for c in ints[:-1]) // abs(ints[-1]))
    return tuple(n for n in _root_brackets(ints, cauchy) if p(n) == target)


def integer_hits(polys: Sequence[IntegralPolynomial],
                 target: Sequence[int]) -> tuple[int, ...]:
    """All integer n with polys[i](n) = target[i] for every i, sorted.

    Solved at the first nonconstant polynomial (the pivot), each root
    then checked exactly against all the others.  With every polynomial
    constant the set is empty or all of Z, so that raises ValueError.
    """
    pivot = next((i for i, p in enumerate(polys) if not p.is_constant()), None)
    if pivot is None:
        raise ValueError("no nonconstant polynomial: the hit set is not finite")
    return tuple(n for n in integer_solutions(polys[pivot], target[pivot])
                 if all(p(n) == y for p, y in zip(polys, target)))


# ---------------------------------------------------------------------------
# decomposition


class NilTerm(Record):
    """Term coeff * e(phase_poly(n)) and the atom or site it came from."""

    coeff: complex
    phase_poly: PhasePolynomial
    origin: str                      # "atom:<id>" or "site:<k>"

    def value(self, n: int) -> complex:
        return self.coeff * e_phase(self.phase_poly(n).float_mod_1())


class ZeroDensityCertificate(Record):
    """Proof object for the residual.

    kind "empty": residual identically zero.  kind "finite-hits": the
    residual vanishes off the listed n values, so the two-sided Cesaro
    average of |c_n| is exactly (sum of listed |values|)/(2N+1).
    """

    kind: str
    hits: tuple[int, ...] = ()
    values: tuple[complex, ...] = ()

    def cesaro_bound(self, N: int) -> float:
        if self.kind == "empty":
            return 0.0
        mass = sum(abs(v) for h, v in zip(self.hits, self.values) if abs(h) <= N)
        return mass / (2 * N + 1)


class DecompositionResult(Record):
    """a_n = <g(n)u, v> as nilsequence terms plus a certified residual."""

    nil_terms: tuple[NilTerm, ...]
    nil_stream: SequenceStream
    residual_stream: SequenceStream
    certificate: ZeroDensityCertificate
    sector: SectorReport
    total_stream: SequenceStream

    def nil_value(self, n: int) -> complex:
        return sum((t.value(n) for t in self.nil_terms), 0j)

    def to_json_dict(self) -> dict:
        def poly_dict(f: PhasePolynomial) -> dict:
            return {"basis": "binomial",
                    "coeffs": [format_phase(c) for c in f.coeffs]}
        return {
            "nil_terms": [
                {"re": t.coeff.real, "im": t.coeff.imag,
                 "phase_poly": poly_dict(t.phase_poly), "origin": t.origin}
                for t in self.nil_terms],
            "certificate": {
                "kind": self.certificate.kind,
                "hits": list(self.certificate.hits),
                "values": [{"re": v.real, "im": v.imag}
                           for v in self.certificate.values],
            },
            "sector": {
                "lattice_compact": self.sector.lattice_compact,
                "atoms_compact": self.sector.atoms_compact,
            },
        }


def _nil_stream_from_terms(terms: Sequence[NilTerm]) -> SequenceStream:
    terms = tuple(terms)
    step = max((max(t.phase_poly.degree, 1) for t in terms), default=1)
    bound = sum(abs(t.coeff) for t in terms)

    return SequenceStream(
        phase_sum_block([(t.coeff, 0, t.phase_poly) for t in terms], 1, {}),
        bound=bound, tag=Tag.nil(step),
        provenance=f"nil closed form ({len(terms)} terms)")


def _difference_generators(g: GPolynomial) -> list[ShiftPhaseOperator]:
    """Generators of the subgroup generated by {g(n)g(0)^-1 : n in Z}.

    Consecutive differences h(j)h(j-1)^-1 for j = 1..max(deg,1) generate
    the same subgroup (telescoping), and a degree-D shift polynomial is
    constant iff its first difference vanishes at D points, so the
    all-diagonal test on this list decides lattice compactness exactly
    even when individual generator shifts cancel.
    """
    D = max(g.degree, 1)
    g0_inv = g.eval(0).inverse()
    h = [g.eval(j).compose(g0_inv) for j in range(D + 1)]
    gens = [h[j].compose(h[j - 1].inverse()) for j in range(1, D + 1)]
    # central commutator scalars: phase-only operators, trivially diagonal
    k = len(g.generators)
    for i in range(k):
        for j in range(i + 1, k):
            c = g.generators[i].commutator_phase(g.generators[j])
            gens.append(ShiftPhaseOperator.make([0] * g.dim, phase=c))
    return gens


def decompose(g: GPolynomial, u: SparseVector, v: SparseVector) -> DecompositionResult:
    """Split a_n = <g(n)u, v> into nilsequence + certified residual.

    Normalizes to h(n) = g(n) g(0)^-1 acting on u' = g(0)u, which leaves
    a_n unchanged.  Atoms contribute closed-form terms always; lattice
    sites contribute closed forms when the evaluation group is diagonal,
    otherwise they form the residual with a finite hit set read off the
    integer roots of the shift polynomial.
    """
    if u.dim != v.dim or u.dim != g.dim:
        raise ValueError("dimension mismatch")
    for aid, _, ph in list(u.atoms) + list(v.atoms):
        if len(ph) != len(g.generators):
            raise ValueError(f"atom {aid!r} needs one eigenphase per generator")

    sector = compact_subspace(_difference_generators(g))
    degree = max(g.degree, 1)
    fit_bound = 2 * degree

    g0 = g.eval(0)
    u_sites = u.lattice_part().apply_operator(g0) if u.sites else u.lattice_part()

    terms: list[NilTerm] = []

    # atomic sector: scalar action, exact closed form
    v_atoms = v.atom_dict()
    for aid, uc, ph in u.atoms:
        if aid not in v_atoms:
            continue
        vc, vph = v_atoms[aid]
        if tuple(vph) != tuple(ph):
            raise ValueError(f"atom {aid!r} has conflicting eigenphases")
        f = g.atom_phase_poly(ph)
        terms.append(NilTerm(coeff=uc * vc.conjugate(), phase_poly=f,
                             origin=f"atom:{aid}"))

    if sector.lattice_compact:
        # h(n) is diagonal for every n: fit the phase at each common site
        v_sites = v.site_dict()
        g0_inv = g0.inverse()

        def site_phase(k):
            def ev(m: int) -> PhaseScalar:
                op = g.eval(m).compose(g0_inv)
                return op.phase + op.form_at(k)
            return ev

        for k, uc in u_sites.sites:
            if k not in v_sites:
                continue
            f = fit_phase_polynomial(site_phase(k), fit_bound)
            terms.append(NilTerm(coeff=uc * v_sites[k].conjugate(),
                                 phase_poly=f, origin=f"site:{k}"))
        certificate = ZeroDensityCertificate(kind="empty")
        provenance = "residual identically zero"
    else:
        # hit condition: site k_u + total shift sigma(n) lands on a v site;
        # the sector is noncompact, so some shift polynomial is nonconstant
        shift_poly = g.shift_polynomial()
        hits = tuple(sorted({
            n for ku, _ in u.lattice_part().sites for kv, _ in v.sites
            for n in integer_hits(shift_poly, [b - a for a, b in zip(ku, kv)])}))
        pair = g.pairing(u.lattice_part(), v.lattice_part())
        certificate = ZeroDensityCertificate(kind="finite-hits", hits=hits,
                                             values=tuple(pair(n) for n in hits))
        provenance = f"residual with {len(hits)} hits"

    hit_map = dict(zip(certificate.hits, certificate.values))
    residual = SequenceStream(
        phase_sum_block((), 1, hit_map),
        bound=max((abs(val) for val in certificate.values), default=0.0),
        tag=Tag.zero_density(), provenance=provenance)
    nil_stream = _nil_stream_from_terms(terms)
    total = nil_stream.add(residual)
    return DecompositionResult(nil_terms=tuple(terms), nil_stream=nil_stream,
                               residual_stream=residual,
                               certificate=certificate, sector=sector,
                               total_stream=total)
