#!/usr/bin/env python3
"""Print the cost of each stage of a correlate block in ns a point.

    python scripts/phase_kernel_ns.py

The stages are those `mobius.correlate` runs on each block of a
`poly_exp` stream, nilseq.BLOCK points at a time: the phases
(`nilseq.phase_block_exact`), e(x) of them as the stream computes it
(`nilseq._e_array`, in scratch rows made once), the mu product
(the values multiplied in place by an int8 block of mu) and the fold of
the products (`nilseq.tree_fold` of a whole block).  The first two are
timed at degrees 1-4; the last two do not depend on the degree.  Each
figure is the best of 5 passes over 30 blocks starting at 1, 1 + BLOCK,
..., after one untimed pass, and each stage and degree runs in a
process of its own, so that no figure depends on what another stage
left in the heap or the caches.  The polynomial of degree k is the
first k + 1 terms of 1/7 + g1 n + g2 n^2 + g1 n^3 + g2 n^4, with g1 =
sqrt(2) and g2 = sqrt(3) to 40 digits.

The script imports nilseqlab from this checkout's src/.  Standard
library plus numpy.
"""

import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from nilseqlab import exactnum, mobius, nilseq  # noqa: E402

BLOCK = nilseq.BLOCK
BLOCKS = 30
PASSES = 5
GENERATORS = {"g1": "1.41421356237309504880168872420969807857",
              "g2": "1.732050807568877293527446341505872366943"}
TERMS = ("1/7", "g1", "g2", "g1", "g2")
DEGREES = (1, 2, 3, 4)
# stage -> the degrees it is timed at
STAGES = {"phases": DEGREES, "e(x)": DEGREES, "mu product": (1,), "fold": (1,)}


def polynomial(degree: int) -> exactnum.PhasePolynomial:
    return exactnum.PhasePolynomial.from_coeffs(
        [exactnum.parse_phase(c) for c in TERMS[:degree + 1]], basis="monomial")


def stage(name: str, degree: int):
    """(prepare, run): run(prepare()) is one timed pass over the blocks;
    prepare makes, untimed, what the pass consumes."""
    kernel = nilseq.PhaseKernel(polynomial(degree))  # made once, as a stream does
    starts = [1 + k * BLOCK for k in range(BLOCKS)]
    if name == "phases":
        return list, lambda _: [nilseq.phase_block_exact(kernel, a, a + BLOCK) for a in starts]
    phases = [nilseq.phase_block_exact(kernel, a, a + BLOCK) for a in starts]
    if name == "e(x)":
        scratch = nilseq._EScratch()
        return (lambda: phases,
                lambda xs: [nilseq._e_array(x, scratch) for x in xs])
    values = [nilseq.e_array(x) for x in phases]
    if name == "mu product":
        mu = mobius.sieve_mobius(BLOCKS * BLOCK).values
        weights = [mu[a: a + BLOCK] for a in starts]

        def product(vals):
            for v, w in zip(vals, weights):
                v *= w
        return lambda: [v.copy() for v in values], product
    return (lambda: values), lambda vals: [nilseq.tree_fold(v) for v in vals]


def measure(name: str, degree: int) -> float:
    """ns a point of one stage at one degree, in this process."""
    for gid, value in GENERATORS.items():
        exactnum.declare_generator(gid, value)
    prepare, run = stage(name, degree)
    best = float("inf")
    for k in range(PASSES + 1):
        args = prepare()
        t0 = time.perf_counter()
        run(args)
        if k:
            best = min(best, time.perf_counter() - t0)
    return 1e9 * best / (BLOCKS * BLOCK)


def main() -> int:
    table = {}
    for name, degrees in STAGES.items():
        for degree in degrees:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure", name,
                 str(degree)], capture_output=True, text=True, check=True)
            table[name, degree] = float(child.stdout)
    width = max(map(len, STAGES))
    print(f"ns a point, best of {PASSES} passes over {BLOCKS} blocks "
          f"of {BLOCK} points")
    print(" " * width + "".join(f"  deg {k}" for k in DEGREES))
    for name, degrees in STAGES.items():
        print(name.ljust(width) + "".join(f"  {table[name, k]:5.1f}" for k in degrees))
    print("(the mu product and the fold do not depend on the degree)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:
        print(measure(sys.argv[2], int(sys.argv[3])))
        sys.exit(0)
    sys.exit(main())
