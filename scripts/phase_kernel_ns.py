#!/usr/bin/env python3
"""Print the cost of the phase kernel in ns a point, at degrees 1-4.

    python scripts/phase_kernel_ns.py

Three routes are timed on `correlate`'s segments (2^15 points each,
starting at 1, 1 + 2^15, ...): `nilseq.phase_block_exact`, and
`nilseq.poly_exp(p, precision=...).evaluate_block` (phases and e(x))
for precision "exact" and "fast".  Each figure is the best of 5 passes
over 30 segments, after one untimed pass.  Each route and degree runs
in a process of its own, so that no figure depends on what another
route left in the heap or the caches.  The polynomial of degree k is
the first k + 1 terms of 1/7 + g1 n + g2 n^2 + g1 n^3 + g2 n^4, with
g1 = sqrt(2) and g2 = sqrt(3) to 40 digits.

The script imports nilseqlab from this checkout's src/ and uses only
public names, so it measures any revision of the kernel the same way.
Standard library plus numpy.
"""

import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from nilseqlab import exactnum, nilseq  # noqa: E402

SEGMENT = 1 << 15
SEGMENTS = 30
PASSES = 5
GENERATORS = {"g1": "1.41421356237309504880168872420969807857",
              "g2": "1.732050807568877293527446341505872366943"}
TERMS = ("1/7", "g1", "g2", "g1", "g2")
DEGREES = (1, 2, 3, 4)


def polynomial(degree: int) -> exactnum.PhasePolynomial:
    return exactnum.PhasePolynomial.from_coeffs(
        [exactnum.parse_phase(c) for c in TERMS[:degree + 1]], basis="monomial")


ROUTES = ("phase_block_exact", "poly_exp exact", "poly_exp fast")


def block_of(route: str, p):
    if route == "phase_block_exact":
        return lambda a, b: nilseq.phase_block_exact(p, a, b)
    return nilseq.poly_exp(p, precision=route.split()[1]).evaluate_block


def one_pass(block) -> float:
    """Seconds for block(lo, hi) over the segments."""
    t0 = time.perf_counter()
    for k in range(SEGMENTS):
        lo = 1 + k * SEGMENT
        block(lo, lo + SEGMENT)
    return time.perf_counter() - t0


def measure(route: str, degree: int) -> float:
    """ns a point of one route at one degree, in this process."""
    for gid, value in GENERATORS.items():
        exactnum.declare_generator(gid, value)
    block = block_of(route, polynomial(degree))
    one_pass(block)
    best = min(one_pass(block) for _ in range(PASSES))
    return 1e9 * best / (SEGMENTS * SEGMENT)


def main() -> int:
    table = {}
    for route in ROUTES:
        for degree in DEGREES:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure", route,
                 str(degree)], capture_output=True, text=True, check=True)
            table[route, degree] = float(child.stdout)
    width = max(map(len, ROUTES))
    print(f"ns a point, best of {PASSES} passes over {SEGMENTS} segments "
          f"of {SEGMENT} points")
    print(" " * width + "".join(f"  deg {k}" for k in DEGREES))
    for route in ROUTES:
        print(route.ljust(width) + "".join(f"  {table[route, k]:5.1f}" for k in DEGREES))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:
        print(measure(sys.argv[2], int(sys.argv[3])))
        sys.exit(0)
    sys.exit(main())
