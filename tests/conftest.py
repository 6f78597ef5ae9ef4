import pytest

from curvepull import PullbackSystem, builtin


@pytest.fixture(scope="session")
def rabbit():
    return builtin("rabbit")


@pytest.fixture(scope="session")
def dendrite():
    return builtin("dendrite")


@pytest.fixture(scope="session")
def rabbit_system(rabbit):
    return PullbackSystem(rabbit)


@pytest.fixture(scope="session")
def dendrite_system(dendrite):
    return PullbackSystem(dendrite)


@pytest.fixture(scope="session")
def fixed_map_text():
    """The identity endomorphism: it fixes every axis twist, so each curve
    is an invariant cycle of weight product 1."""
    return """\
map fixed
gen x parity 0
gen y parity 1
axis z = y^-1 x^-1
schreier x -> x
schreier y y -> y y
schreier y^-1 x y -> y^-1 x y
"""
