import pytest
from hypothesis import HealthCheck, settings

from nilseqlab.exactnum import declare_generator, reset_generators

# 40 digits each; parse_phase and the generator registry keep them exact,
# floats only appear at evaluation time.
SQRT2 = "1.414213562373095048801688724209698078570"
SQRT3 = "1.732050807568877293527446341505872366943"

# Companion matrix of x^8 + 985362x^7 - 384847859x^6 - 32003637640x^5
# + 86562122370x^4 - 393018444x^3 + 6806229x^2 - 13750x + 1: a valid
# positive-entropy input with a root near -985752, where the residual of
# a correct 60-digit root is large unless the check scales with |r|^8.
LARGE_ROOT_COMPANION = [
    [int(j == i - 1) for j in range(7)] + [-c]
    for i, c in enumerate([1, -13750, 6806229, -393018444, 86562122370,
                           -32003637640, -384847859, 985362])
]

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def generator_registry():
    reset_generators()
    declare_generator("g1", SQRT2)
    declare_generator("g2", SQRT3)
    yield
    reset_generators()
