"""Seeded operation plans for the three benchmark workloads.

An operation is one `python -m nilseqlab.cli` run: a subcommand, a config
file, a precision and a thread count.  A pass is the workload's list of
operations in a seed-fixed order.  The seed reaches the program only
through the generated config files and that order.

The seed varies values (coefficients, generators, characters, exact sizes
within a few percent, order), never the shape of a pass: every seed asks
for the same kinds of work in the same amounts, so figures from
different seeds measure the same thing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass
from decimal import Decimal, getcontext

WORKLOADS = ("shipped", "phase-sweep", "mobius-mix")

SUBCOMMAND = {"classify": "classify", "torus-seq": "seq", "nc-seq": "seq",
              "correlate": "correlate", "weyl": "weyl",
              "decompose": "decompose"}

SHIPPED = ("classify_fibonacci", "classify_shear", "correlate_nc_shear",
           "correlate_quadratic", "decompose_heisenberg", "seq_torus_shear",
           "weyl_linear", "weyl_rational")

DEFAULT_SEGMENT = 1 << 15     # the CLI's correlate segment size

# mobius-mix sieve limits: the largest near 1e7, the warm one pre-filled
# by set-up, a small cold one.  Each is drawn within +-2% of its base.
MOBIUS_LIMITS = {"big": 9_800_000, "warm": 4_000_000, "small": 1_500_000}


@dataclass(frozen=True)
class Op:
    """One CLI run of a pass."""

    key: str            # config id; runs with equal keys share a config
    config: str         # path of the config, relative to the repo root
    subcommand: str
    precision: str
    threads: int
    limit: int          # Mobius sieve limit the run needs, 0 if none
    segments: int       # correlate segments, 0 if none
    points: int         # sequence values the config asks for

    def argv(self, root: str, out_dir: str) -> list[str]:
        return [self.subcommand, "--config", os.path.join(root, self.config),
                "--out", out_dir, "--precision", self.precision,
                "--threads", str(self.threads)]


def _irrationals() -> list[str]:
    """Forty-digit decimal stand-ins for quadratic irrationals."""
    getcontext().prec = 40
    roots = [Decimal(n).sqrt() for n in (2, 3, 5, 7, 11, 13)]
    return [str(r) for r in roots]


IRRATIONALS = _irrationals()


def _counts(cfg: dict) -> tuple[int, int, int]:
    """(sieve limit, correlate segments, sequence points) of a config."""
    kind = cfg["kind"]
    if kind == "correlate":
        n = max(cfg["checkpoints"])
        seg = cfg.get("segment_size", DEFAULT_SEGMENT)
        return n, -(-n // seg), n
    if kind == "weyl":
        return 0, 0, (2 * max(cfg["checkpoints"]) + 1) * len(cfg["harmonics"])
    if kind in ("torus-seq", "nc-seq"):
        return 0, 0, cfg["range"]["stop"] - cfg["range"]["start"]
    return 0, 0, 0


def _op(key: str, rel_path: str, cfg: dict, precision: str,
        threads: int = 1) -> Op:
    limit, segments, points = _counts(cfg)
    return Op(key=key, config=rel_path, subcommand=SUBCOMMAND[cfg["kind"]],
              precision=precision, threads=threads, limit=limit,
              segments=segments, points=points)


def _write(config_dir: str, root: str, key: str, cfg: dict) -> str:
    path = os.path.join(config_dir, key + ".json")
    with open(path, "w") as f:
        f.write(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return os.path.relpath(path, root)


def _jitter(rng: random.Random, base: int, share: float = 0.02) -> int:
    return int(round(base * (1 + rng.uniform(-share, share))))


def _rational(rng: random.Random) -> str:
    q = rng.choice((2, 3, 5, 7, 12))
    return f"{rng.randrange(1, q)}/{q}"


def _signed(rng: random.Random) -> int:
    return rng.choice((1, 2, 3)) * rng.choice((1, -1))


def _combo(rng: random.Random, *gids: str) -> str:
    """A phase literal: signed integer multiples of generators plus a
    rational, such as '2*g1 - 3*g2 + 5/7'."""
    text = " + ".join([f"{_signed(rng)}*{g}" for g in gids] + [_rational(rng)])
    return text.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# shipped: the eight configs in configs/, both precisions, seeded order


def shipped_plan(root: str, rng: random.Random) -> list[Op]:
    ops = []
    for name in SHIPPED:
        rel = os.path.join("configs", name + ".json")
        with open(os.path.join(root, rel)) as f:
            cfg = json.load(f)
        for precision in ("exact", "fast"):
            ops.append(_op(name, rel, cfg, precision))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# phase-sweep: polynomial phases of degree 1-4 through weyl and correlate

# weyl window N per degree: the exact route costs about 45-110 us a point,
# so each config computes for roughly 0.2 s exact
WEYL_N = {1: 1000, 2: 600, 3: 500, 4: 400}
CORRELATE_N = {"poly-exp": 2500, "torus": 2000, "nc": 5000}


def _phase_poly(rng: random.Random, degree: int) -> dict:
    """Monomial coefficients: rationals below the top, which carries both
    generators; degree >= 2 also puts g1 in the linear coefficient."""
    coeffs = [_rational(rng) for _ in range(degree)]
    coeffs.append(_combo(rng, "g1", "g2"))
    if degree >= 2:
        coeffs[1] = _combo(rng, "g1")
    return {"basis": "monomial", "coeffs": coeffs}


def _checkpoints(rng: random.Random, n: int) -> list[int]:
    n = _jitter(rng, n)
    return [n // rng.choice((5, 10, 20)), n]


def _torus_sequence(rng: random.Random) -> dict:
    # -J4: finite order times unipotent, modulus 2, residue polynomials of
    # degree 3 when the character sees the first and the point the last axis
    matrix = [[-1, -1, 0, 0], [0, -1, -1, 0], [0, 0, -1, -1], [0, 0, 0, -1]]
    point = [_rational(rng), _combo(rng, "g1"), _rational(rng),
             _combo(rng, "g2")]
    character = [_signed(rng), rng.randrange(-2, 3), rng.randrange(-2, 3),
                 rng.randrange(-2, 3)]
    return {"type": "torus", "matrix": matrix, "point": point,
            "character": character}


def _nc_sequence(rng: random.Random) -> dict:
    shear = rng.random() < 0.5
    S = [[1, 1], [0, 1]] if shear else [[0, -1], [1, 0]]
    c, r = _signed(rng), _rational(rng)
    t, neg = ((f"{c}*g1", f"{-c}*g1") if rng.random() < 0.5
              else (r, "-" + r))
    exps = rng.choice(([0, 1], [1, 0], [1, 1], [1, -1]))
    a, b = rng.choice(((0.6, 0.8), (0.8, 0.6)))
    site = rng.choice(([1, 1], [1, 0], [0, 1], [2, 1]))
    return {"type": "nc", "S": S, "theta": [["0", t], [neg, "0"]],
            "element": [{"exponents": exps, "re": 1.0}],
            "state_vector": [{"site": [0, 0], "re": a},
                             {"site": site, "re": b}]}


def phase_sweep_plan(root: str, config_dir: str,
                     rng: random.Random) -> list[Op]:
    g1, g2 = rng.sample(IRRATIONALS, 2)
    generators = {"g1": g1, "g2": g2}
    configs = {}
    for degree in (1, 2, 3, 4):
        configs[f"weyl_deg{degree}"] = {
            "kind": "weyl", "generators": generators,
            "poly": _phase_poly(rng, degree),
            "harmonics": sorted(rng.sample((1, 2, 3), 2)),
            "checkpoints": _checkpoints(rng, WEYL_N[degree])}
    sequences = {"poly-exp": {"type": "poly-exp", "poly": _phase_poly(rng, 2)},
                 "torus": _torus_sequence(rng),
                 "nc": _nc_sequence(rng)}
    for name, seq in sequences.items():
        configs[f"correlate_{name}"] = {
            "kind": "correlate", "generators": generators, "sequence": seq,
            "checkpoints": _checkpoints(rng, CORRELATE_N[name])}
    ops = []
    for key, cfg in configs.items():
        rel = _write(config_dir, root, key, cfg)
        ops += [_op(key, rel, cfg, "exact"), _op(key, rel, cfg, "fast")]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# mobius-mix: sieve, cache and thread scaling at 1e6-1e7


def mobius_limits(seed: int) -> dict[str, int]:
    """The seed's sieve limits; set-up needs them before the plan."""
    rng = random.Random(f"mobius-limits:{seed}")
    return {name: _jitter(rng, base) for name, base in MOBIUS_LIMITS.items()}


def mobius_mix_plan(root: str, config_dir: str, seed: int,
                    rng: random.Random) -> list[Op]:
    limits = mobius_limits(seed)
    g1 = rng.choice(IRRATIONALS)
    poly = {"basis": "monomial",
            "coeffs": [_rational(rng), _combo(rng, "g1")]}
    # (key, sequence, limit name, precision): poly-exp is degree 1 and fast,
    # since exact degree 1 at 1e7 points takes minutes
    slots = [("mobius_big", {"type": "mobius"}, "big", "exact"),
             ("poly_exp_warm", {"type": "poly-exp", "poly": poly}, "warm", "fast"),
             ("constant_warm", {"type": "constant", "re": rng.choice((1.0, -0.5, 0.25))},
              "warm", "exact"),
             ("mobius_small", {"type": "mobius"}, "small", "exact")]
    ops = []
    for key, seq, limit_name, precision in slots:
        n = limits[limit_name]
        cfg = {"kind": "correlate", "sequence": seq,
               "checkpoints": sorted({n // rng.choice((100, 50, 20)),
                                      n // rng.choice((10, 5, 2)), n})}
        if seq["type"] == "poly-exp":
            cfg["generators"] = {"g1": g1}
        rel = _write(config_dir, root, key, cfg)
        first = rng.choice((1, 2))
        ops += [_op(key, rel, cfg, precision, first),
                _op(key, rel, cfg, precision, 3 - first)]
    rng.shuffle(ops)
    return ops


def make_plan(workload: str, seed: int, root: str, config_dir: str) -> list[Op]:
    """Write the workload's configs for `seed` and return one pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shipped":
        return shipped_plan(root, rng)
    if workload == "phase-sweep":
        return phase_sweep_plan(root, config_dir, rng)
    if workload == "mobius-mix":
        return mobius_mix_plan(root, config_dir, seed, rng)
    raise ValueError(f"unknown workload {workload!r}")


def plan_json(ops: list[Op]) -> list[dict]:
    return [asdict(op) for op in ops]
