import numpy as np
import pytest

from nsac import Grid, PhysParams
from nsac.spectral import band_limited_noise as random_zero_mean_field  # noqa: F401
from nsac.verify import random_state as random_admissible_state  # noqa: F401


def two_thirds_band(g):
    """The modes the 2/3 rule keeps, ``|m| <= n // 3`` on every axis, in rfft layout."""
    return np.logical_and.reduce(np.meshgrid(*[np.abs(m) <= g.n // 3 for m in g.modes], indexing="ij"))


@pytest.fixture(scope="session")
def grid16():
    return Grid(dim=3, n=16, length=2 * np.pi)


@pytest.fixture(scope="session")
def grid32():
    return Grid(dim=3, n=32, length=2 * np.pi)


@pytest.fixture(scope="session")
def params():
    return PhysParams()
