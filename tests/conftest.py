"""Shared fixtures and hypothesis configuration."""

import pytest
from hypothesis import HealthCheck, settings

from rankinv.gf import make_field

# Deterministic, CI-friendly hypothesis profile.  derandomize keeps repeated
# runs byte-identical, which the CLI determinism contract also relies on.
settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# (backend, p, e, m): both field backends for p in {2, 3} and e in {1, 2},
# with m >= 3 for the random triples
FP_FIELDS = [(backend, p, e, m) for backend in ("table", "generic")
             for (p, e, m) in ((2, 1, 5), (2, 2, 3), (3, 1, 4), (3, 2, 3))]
FP_IDS = [f"{b}-p{p}e{e}m{m}" for (b, p, e, m) in FP_FIELDS]

# the tower backend needs an even degree d = e*m: p in {2, 3}, e in {1, 2}
TOWER_FIELDS = [("tower", p, e, m) for (p, e, m) in ((2, 1, 6), (2, 2, 3), (3, 1, 4), (3, 2, 3))]
TOWER_IDS = [f"{b}-p{p}e{e}m{m}" for (b, p, e, m) in TOWER_FIELDS]


# x^15 + x^5 + x^4 + x^2 + 1, little-endian, leading coefficient included.
WORKED_EXAMPLE_MODULUS = (1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)

# The worked [8, 3] example over F_{2^15}: evaluation vector (as powers of
# the primitive element alpha) and the twist coefficient.
WORKED_EXAMPLE_G_POWERS = (16474, 23822, 10386, 28105, 21661, 2599, 30721, 198)
WORKED_EXAMPLE_ETA_POWER = 22859


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 1, 4)


@pytest.fixture(scope="session")
def f2_8():
    return make_field(2, 1, 8)


@pytest.fixture(scope="session")
def f3_5():
    return make_field(3, 1, 5)


@pytest.fixture(scope="session")
def f4_3():
    # q = 4 = 2^2: exercises the e > 1 leg of the tower
    return make_field(2, 2, 3)


@pytest.fixture(scope="session")
def f2_15():
    return make_field(2, 1, 15, modulus=WORKED_EXAMPLE_MODULUS)


@pytest.fixture(scope="session")
def worked_example_codes(f2_15):
    """The [8, 3] Gabidulin / twisted pair from the worked example tables."""
    from rankinv import codes as cd

    g = tuple(f2_15.alpha_pow(j) for j in WORKED_EXAMPLE_G_POWERS)
    eta = f2_15.alpha_pow(WORKED_EXAMPLE_ETA_POWER)
    gab = cd.build(f2_15, cd.make_spec("Gabidulin", 8, 3, 1, g))
    tw = cd.build(f2_15, cd.make_spec("Twisted", 8, 3, 1, g, eta=eta))
    return gab, tw
