import numpy as np
import pytest

from cfr import indicators, linsys, oracles, shock


@pytest.fixture(scope="session")
def interior():
    return oracles.interior_line()


@pytest.fixture(scope="session")
def exterior():
    return oracles.exterior_line()


@pytest.fixture(scope="session")
def twoline():
    return oracles.two_line()


@pytest.fixture(scope="session")
def conic():
    return oracles.conic()


@pytest.fixture(scope="session")
def interior_lt(interior):
    return indicators.laurent_extract(interior, kmax=4, mmax=12)


@pytest.fixture(scope="session")
def interior_h(interior_lt):
    return shock.H_from_laurent(interior_lt, -3.0)


@pytest.fixture(scope="session")
def interior_fit(interior):
    return linsys.fit_infinity(interior)


@pytest.fixture(scope="session")
def exterior_fit(exterior):
    return linsys.fit_infinity(exterior)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250809)
