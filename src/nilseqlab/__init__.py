"""Exact nilsequence construction, decomposition, and Mobius correlation.

Layers, bottom up; each imports only layers listed before it:
`exactnum` (integer matrices, cyclotomic entropy classification, phase
scalars over declared irrational generators, polynomial fitting),
`nilseq` (the e(x) kernel, the fixed-tree sum `tree_fold`, tagged
sequence streams and the standard constructions), then on `nilseq`
`mobius` (sieves, deterministic correlation sums, the sieve cache),
`torus` (commutative toral automorphism sequences) and `spectral` (the
shift-phase operator model and the nilsequence + zero-density
splitter), then `nctorus` (noncommutative toral automorphism sequences,
on `spectral`'s hit sets), and `cli` (the config-driven experiment
runner).

Importing the package loads none of the layers: each name below is
resolved on first access by the module `__getattr__` (PEP 562), so
`from nilseqlab import correlate` loads `mobius` and numpy, while
`from nilseqlab import classify_entropy` loads `exactnum` alone.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "exactnum": (
        "DegreeBoundExceeded", "EntropyReport", "IntMatrix",
        "IntegralPolynomial", "NonClosedProduct", "NotInGL", "NotUnipotent",
        "PhasePolynomial", "PhaseScalar", "PowerPolys", "binom_int",
        "char_poly", "classify_entropy", "congruent_mod_1", "cyclotomic",
        "declare_generator", "euler_phi", "fit_phase_polynomial",
        "format_phase", "parse_phase", "reset_generators",
        "unipotent_power_polys",
    ),
    "mobius": (
        "CorrelationReport", "LimitTooLarge", "MobiusTable",
        "UnboundedSequence", "correlate", "mertens",
        "mobius_by_factorization", "mobius_stream", "read_cache",
        "sieve_mobius", "write_cache",
    ),
    "nilseq": (
        "ArityMismatch", "DegreeZero", "PhaseKernel", "SequenceStream",
        "SkewProductState", "Tag", "constant", "e_array", "e_phase",
        "from_function", "furstenberg_orbit", "heisenberg_seq", "interleave",
        "phase_block_exact", "phase_block_fast", "poly_exp", "quadratic_seq",
        "theta_kappa", "tree_fold",
    ),
    "torus": (
        "Character", "CharacterSequence", "TorusPoint", "WeylReport",
        "character_seq", "orbit_point", "weyl_test",
    ),
    "nctorus": (
        "DimensionMismatch", "NotCompatible", "NotUnitVector",
        "PhasePolyReport", "ThetaMatrix", "WeylElement", "WeylWord",
        "apply_auto", "apply_auto_inverse", "commutator_phase", "gns_apply",
        "iterate_phase_polys", "state_seq", "word_identity", "word_mul",
        "word_pow",
    ),
    "spectral": (
        "DecompositionResult", "GPolynomial", "NotDiagonal", "SectorReport",
        "ShiftPhaseOperator", "SparseVector", "ZeroDensityCertificate",
        "compact_subspace", "decompose", "integer_solutions", "op_pow",
    ),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _NAMES:                  # a layer, as `nilseqlab.torus`
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value             # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
