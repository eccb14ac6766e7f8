"""What the benchmark calls in src/ must still exist and still work.

bench/tracing.py wraps each name in SPAN_POINTS on its module for the
traced pass of `bench/run.py --trace 1`; a rename in src/ would make
that pass fail.  The table is read with ast, so bench/ is not imported.
Its layer probes call the fast route's names and pass `precision=` and
`threads=`, which are now labels: each call must run and give the exact
route's bits.
"""

import ast
import importlib
import os

import numpy as np
import pytest

from nilseqlab import exactnum, mobius, nctorus, nilseq, spectral, torus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span_points() -> dict:
    with open(os.path.join(REPO, "bench", "tracing.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SPAN_POINTS"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no SPAN_POINTS")


def test_span_points_resolve_on_their_modules():
    points = _span_points()
    assert points
    missing = []
    for owner, names in points.items():
        mod = importlib.import_module(f"nilseqlab.{owner}")
        missing += [f"{owner}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert not missing, f"span points no longer in src/: {missing}"


# The benchmark's probes still call the fast route's names with the
# keywords below; each must run and give the exact route's bits.

def _probe_polys():
    """Phase polynomials of degree 1-4 over g1 and g2, shaped like the
    benchmark's probe polynomials."""
    tops = {1: "2*g1 - g2 + 1/3", 2: "-g1 + 3*g2 + 2/7",
            3: "g1 + 2*g2 + 5/12", 4: "3*g1 - 2*g2 + 1/5"}
    return {deg: exactnum.PhasePolynomial.from_coeffs(
        [exactnum.parse_phase(c) for c in ["1/7"] + ["g1 + 1/2"] * (deg > 1)
         + ["3/5"] * max(deg - 2, 0) + [top]], basis="monomial")
        for deg, top in tops.items()}


def _bits(values):
    return np.asarray(values).view(np.uint64).tolist()


def test_fast_route_names_give_the_exact_bits():
    for deg, p in _probe_polys().items():
        start, stop = 1, 1 + 3 * 2 ** 13 + 77
        exact = nilseq.phase_block_exact(p, start, stop)
        assert _bits(nilseq.phase_block_fast(p, start, stop)) == _bits(exact), deg
        fast = nilseq.poly_exp(p, precision="fast").evaluate_block(start, stop)
        assert _bits(fast) == _bits(nilseq.e_array(exact)), deg
    p = _probe_polys()[2]
    assert (torus.weyl_test(p, [1, 2], [100, 500], precision="fast")
            == torus.weyl_test(p, [1, 2], [100, 500], precision="exact"))


def _shear_state():
    """(S, theta, u, w) of the benchmark's state_seq probe."""
    g1 = exactnum.parse_phase("g1")
    theta = nctorus.ThetaMatrix(((exactnum.PhaseScalar.zero(), g1),
                                 (-g1, exactnum.PhaseScalar.zero())))
    return (exactnum.IntMatrix.from_rows([[1, 1], [0, 1]]), theta,
            nctorus.WeylElement.from_terms(2, {(0, 1): 1.0}),
            spectral.SparseVector.from_sites(2, {(0, 0): 0.6, (1, 1): 0.8}))


def test_probe_keywords_run_the_exact_route():
    A = exactnum.IntMatrix.from_rows(
        [[-1, -1, 0, 0], [0, -1, -1, 0], [0, 0, -1, -1], [0, 0, 0, -1]])
    x = torus.TorusPoint.make([exactnum.parse_phase(c) for c in
                               ("1/3", "g1 + 1/5", "2/7", "2*g2 - 1/2")])
    v = torus.Character((1, -1, 2, 1))
    exact, fast = (torus.character_seq(A, x, v, precision=precision).stream
                   .evaluate_block(0, 2000) for precision in ("exact", "fast"))
    assert _bits(exact) == _bits(fast)
    exact, fast = (nctorus.state_seq(*_shear_state(), precision=precision)
                   .evaluate_block(1, 3001) for precision in ("exact", "fast"))
    assert _bits(exact) == _bits(fast)
    stream = nilseq.poly_exp(_probe_polys()[1], precision="fast")
    table = mobius.sieve_mobius(1 << 16)
    one = mobius.correlate(stream, [1 << 15, 1 << 16], table=table, threads=1)
    two = mobius.correlate(stream, [1 << 15, 1 << 16], table=table, threads=2)
    assert one == two


def test_unknown_precision_is_still_rejected():
    p = _probe_polys()[1]
    with pytest.raises(ValueError):
        nilseq.poly_exp(p, precision="bogus")
    with pytest.raises(ValueError):
        nilseq.phase_sum_block((), 1, {}, "bogus")
    with pytest.raises(ValueError):
        torus.weyl_test(p, [1], [10], precision="bogus")
    x = torus.TorusPoint.make([exactnum.parse_phase("0"), exactnum.parse_phase("g1")])
    S = exactnum.IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        torus.character_seq(S, x, torus.Character((0, 1)), precision="bogus")
    with pytest.raises(ValueError):
        nctorus.state_seq(*_shear_state(), precision="bogus")


def test_blocks_go_through_the_exact_module_name(monkeypatch):
    # the traced pass wraps nilseq.phase_block_exact on its module: every
    # phase block of a stream, whatever its precision label, must reach it
    calls = []
    original = nilseq.phase_block_exact

    def counted(p, start, stop):
        calls.append((start, stop))
        return original(p, start, stop)

    monkeypatch.setattr(nilseq, "phase_block_exact", counted)
    p = _probe_polys()[1]
    for precision in ("exact", "fast"):
        calls.clear()
        nilseq.poly_exp(p, precision=precision).evaluate_block(1, 1001)
        assert calls == [(1, 1001)], precision
        calls.clear()
        torus.weyl_test(p, [1], [100], precision=precision)
        assert calls == [(-100, 101)], precision
        calls.clear()
        nilseq.phase_sum_block([(0.6 + 0.8j, 0, p)], 1, {}, precision)(1, 1001)
        assert calls == [(1, 1001)], precision
