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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .exactnum import (
    IntegralPolynomial,
    PhasePolynomial,
    PhaseScalar,
    fit_phase_polynomial,
    format_phase,
)
from .nilseq import SequenceStream, Tag, e_array, e_phase, phase_block_exact

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
    "AtomClass",
    "AtomPartition",
    "classify_atoms",
    "BochnerAtom",
    "BochnerMeasure",
    "bochner_data",
    "integer_solutions",
]


class NotDiagonal(ValueError):
    """Operation requires shift-free (diagonal) operators."""


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class ShiftPhaseOperator:
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
        shift = tuple(-s for s in self.shift)
        phase = -self.phase + self.form_at(self.shift)
        form = tuple(-c for c in self.form)
        return ShiftPhaseOperator(shift, phase, form)

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


def _canon_sites(dim: int, mapping: Mapping[Sequence[int], complex]):
    items = []
    for site, coeff in mapping.items():
        site = tuple(int(s) for s in site)
        if len(site) != dim:
            raise ValueError(f"site {site} has wrong dimension")
        c = complex(coeff)
        if c != 0:
            items.append((site, c))
    items.sort(key=lambda kv: kv[0])
    return tuple(items)


@dataclass(frozen=True)
class SparseVector:
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
        total = sum(c * od[k].conjugate() for k, c in self.sites if k in od)
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


@dataclass(frozen=True)
class GPolynomial:
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


@dataclass(frozen=True)
class SectorReport:
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


def integer_solutions(p: IntegralPolynomial, target: int) -> tuple[int, ...] | None:
    """All integer n with p(n) = target; None means identically true.

    Numeric root candidates (rounded, +-1 widened) are verified exactly,
    so no false positives; degrees and coefficients here are small
    enough that no real root escapes the widening.
    """
    mono = [Fraction(c) for c in p.monomial_coefficients()] or [Fraction(0)]
    mono[0] -= target
    while len(mono) > 1 and mono[-1] == 0:
        mono.pop()
    if len(mono) == 1:
        return None if mono[0] == 0 else ()
    den = math.lcm(*[c.denominator for c in mono])
    ints = [int(c * den) for c in mono]
    # numpy wants highest degree first
    roots = np.roots(list(reversed([float(c) for c in ints])))
    cands = set()
    for z in roots:
        if abs(z.imag) < 0.5:
            base = round(z.real)
            cands.update((base - 1, base, base + 1))
    hits = sorted(n for n in cands if p(n) == target)
    return tuple(hits)


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class NilTerm:
    coeff: complex
    phase_poly: PhasePolynomial
    origin: str                      # "atom:<id>" or "site:<k>"

    def value(self, n: int) -> complex:
        return self.coeff * e_phase(self.phase_poly(n).float_mod_1())


@dataclass(frozen=True)
class ZeroDensityCertificate:
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


@dataclass(frozen=True)
class DecompositionResult:
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
            return {"basis": f.basis,
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

    def ev(n: int) -> complex:
        return sum((t.value(n) for t in terms), 0j)

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        for t in terms:
            out += t.coeff * e_array(phase_block_exact(t.phase_poly, start, stop))
        return out

    return SequenceStream(evaluate=ev, bound=bound, tag=Tag.nil(step),
                          provenance=f"nil closed form ({len(terms)} terms)",
                          block=block)


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
            f = fit_phase_polynomial(site_phase(k), fit_bound, held_out=3)
            terms.append(NilTerm(coeff=uc * v_sites[k].conjugate(),
                                 phase_poly=f, origin=f"site:{k}"))
        certificate = ZeroDensityCertificate(kind="empty")
        residual = SequenceStream(
            evaluate=lambda n: 0j, bound=0.0, tag=Tag.zero_density(),
            provenance="residual identically zero",
            block=lambda start, stop: np.zeros(stop - start, dtype=np.complex128))
    else:
        # hit condition: site k_u + total shift sigma(n) lands on a v site
        shift_poly = g.shift_polynomial()
        diffs = sorted({tuple(kv[i] - ku[i] for i in range(g.dim))
                        for ku, _ in u.lattice_part().sites for kv, _ in v.sites})
        hit_set: set[int] = set()
        for dvec in diffs:
            pivot = next((i for i, p in enumerate(shift_poly)
                          if not p.is_constant()), None)
            if pivot is None:
                # all shifts constant but sector says noncompact: the
                # difference generators rule this configuration out
                raise AssertionError("constant shift in weak-mixing branch")
            roots = integer_solutions(shift_poly[pivot], dvec[pivot])
            assert roots is not None
            for n in roots:
                if all(shift_poly[i](n) == dvec[i] for i in range(g.dim)):
                    hit_set.add(n)

        v_lat = v.lattice_part()
        pair = g.pairing(u.lattice_part(), v_lat)
        hits = tuple(sorted(hit_set))
        values = tuple(pair(n) for n in hits)
        certificate = ZeroDensityCertificate(kind="finite-hits", hits=hits,
                                             values=values)
        hit_map = dict(zip(hits, values))

        def res_ev(n: int) -> complex:
            return hit_map.get(n, 0j)

        def res_block(start: int, stop: int) -> np.ndarray:
            out = np.zeros(stop - start, dtype=np.complex128)
            for n, val in hit_map.items():
                if start <= n < stop:
                    out[n - start] = val
            return out

        residual = SequenceStream(
            evaluate=res_ev,
            bound=max((abs(val) for val in values), default=0.0),
            tag=Tag.zero_density(),
            provenance=f"residual with {len(hits)} hits", block=res_block)

    nil_stream = _nil_stream_from_terms(terms)
    total = nil_stream.add(residual)
    return DecompositionResult(nil_terms=tuple(terms), nil_stream=nil_stream,
                               residual_stream=residual,
                               certificate=certificate, sector=sector,
                               total_stream=total)


# ---------------------------------------------------------------------------
# atomic spectral measure


@dataclass(frozen=True)
class AtomClass:
    key: str
    members: tuple[str, ...]
    mass: float


@dataclass(frozen=True)
class AtomPartition:
    classes: tuple[AtomClass, ...]
    w2_mass: float
    case: str              # "I" (mass 0) or "II"


def _irrational_signature(f: PhasePolynomial) -> tuple:
    b = f.to_binomial()
    sig = [c.irr for c in b.coeffs]
    while sig and not sig[-1]:
        sig.pop()
    return tuple(sig)


def classify_atoms(atoms: Sequence[tuple[str, float, Sequence[PhaseScalar]]],
                   polys: Sequence[IntegralPolynomial]) -> AtomPartition:
    """Partition atoms by rational-difference equivalence of their phases.

    Two eigenphase tuples are equivalent when the phase polynomial of
    their difference has all-rational coefficients; the classes are
    keyed by the irrational parts of the phase-polynomial coefficients,
    which subtract exactly.
    """
    groups: dict[tuple, list[tuple[str, float]]] = {}
    for aid, mass, ph in atoms:
        if mass < 0:
            raise ValueError("atom masses must be nonnegative")
        if len(ph) != len(polys):
            raise ValueError("need one eigenphase per polynomial")
        f = PhasePolynomial.zero()
        for p, lam in zip(polys, ph):
            f = f + PhasePolynomial.from_integral(p, lam)
        groups.setdefault(_irrational_signature(f), []).append((str(aid), float(mass)))
    classes = []
    for sig in sorted(groups, key=repr):
        members = groups[sig]
        classes.append(AtomClass(key=repr(sig),
                                 members=tuple(sorted(a for a, _ in members)),
                                 mass=sum(m for _, m in members)))
    w2 = sum(c.mass ** 2 for c in classes)
    return AtomPartition(classes=tuple(classes), w2_mass=w2,
                         case="II" if w2 > 0 else "I")


# ---------------------------------------------------------------------------
# finite Bochner data for diagonal families


@dataclass(frozen=True)
class BochnerAtom:
    label: str
    weight: complex
    eigenphases: tuple[PhaseScalar, ...]


@dataclass(frozen=True)
class BochnerMeasure:
    atoms: tuple[BochnerAtom, ...]

    def total_weight(self) -> complex:
        return sum((a.weight for a in self.atoms), 0j)

    def sequence(self, polys: Sequence[IntegralPolynomial]) -> Callable[[int], complex]:
        def phi(n: int) -> complex:
            total = 0j
            for a in self.atoms:
                ph = PhaseScalar.zero()
                for p, lam in zip(polys, a.eigenphases):
                    ph = ph + lam.scale(p(n))
                total += a.weight * e_phase(ph.float_mod_1())
            return total
        return phi


def bochner_data(operators: Sequence[ShiftPhaseOperator], u: SparseVector,
                 v: SparseVector) -> BochnerMeasure:
    """Finite atomic measure representing <g(n)u, v> for diagonal families.

    Every basis vector and every atom is a simultaneous eigenvector;
    the weight at each is u_j * conj(v_j).  For u = v the weights are
    nonnegative and sum to the squared norm.
    """
    for i, W in enumerate(operators):
        if not W.is_diagonal():
            raise NotDiagonal(f"operator {i} has nonzero shift {W.shift}")
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    out = []
    v_sites = v.site_dict()
    for k, uc in u.sites:
        if k not in v_sites:
            continue
        phases = tuple((W.phase + W.form_at(k)).reduce_mod_1() for W in operators)
        out.append(BochnerAtom(label=f"site:{k}", weight=uc * v_sites[k].conjugate(),
                               eigenphases=phases))
    v_atoms = v.atom_dict()
    for aid, uc, ph in u.atoms:
        if aid not in v_atoms:
            continue
        vc, vph = v_atoms[aid]
        if tuple(vph) != tuple(ph):
            raise ValueError(f"atom {aid!r} has conflicting eigenphases")
        if len(ph) != len(operators):
            raise ValueError(f"atom {aid!r} needs one eigenphase per operator")
        out.append(BochnerAtom(label=f"atom:{aid}", weight=uc * vc.conjugate(),
                               eigenphases=tuple(p.reduce_mod_1() for p in ph)))
    return BochnerMeasure(atoms=tuple(out))
