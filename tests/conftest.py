import numpy as np
import pytest

from devgibbs import maps
from devgibbs.branching import IntervalBranches, MonotonePiece
from devgibbs.domain import Interval
from devgibbs.dynamics import MapSystem
from helpers import with_out


@pytest.fixture(scope="session")
def doubling():
    return maps.make_doubling()


@pytest.fixture(scope="session")
def quadratic():
    return maps.make_quadratic(2.0)


@pytest.fixture(scope="session")
def mp():
    return maps.make_mp(0.5)


@pytest.fixture(scope="session")
def pe4():
    return maps.make_perturbed_expanding(4, 0.55)


@pytest.fixture(scope="session")
def pe40():
    return maps.make_perturbed_expanding(4, 0.0)


@pytest.fixture(scope="session")
def viana():
    return maps.make_viana(16, 2.0, 0.01)


@pytest.fixture(scope="session")
def identity_map():
    """Trivial stub: no orbit separation, entropy zero."""
    ident = lambda x, out=None: np.positive(x, out=out)
    return MapSystem(
        label="identity",
        domain=Interval(0.0, 1.0),
        params={},
        step=ident,
        deriv=with_out(lambda x: np.ones(np.shape(x))),
        crit_dist=with_out(lambda x: np.full(np.shape(x), np.inf)),
        branches=IntervalBranches(
            ident, (MonotonePiece(0.0, 1.0, 0.0, 1.0, inv_array=ident),)),
    )
