import numpy as np
import pytest

from relbell.kinematics import random_direction


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_beta(rng, max_mag=0.999):
    """Velocity with uniform speed in [0, max_mag] and uniform direction."""
    return rng.uniform(0.0, max_mag) * random_direction(rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20230823)
