"""The benchmark's span points must name functions that still exist.

bench/tracing.py wraps each name in SPAN_POINTS on its module for the
traced pass of `bench/run.py --trace 1`; a rename in src/ would make
that pass fail.  The table is read with ast, so bench/ is not imported.
"""

import ast
import importlib
import os

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
