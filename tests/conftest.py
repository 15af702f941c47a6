import numpy as np
import pytest
from hypothesis import strategies as st

from relbell.kinematics import random_direction


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_beta(rng, max_mag=0.999):
    """Velocity with uniform speed in [0, max_mag] and uniform direction."""
    return rng.uniform(0.0, max_mag) * random_direction(rng)


#: Speeds at rest, uniform below 1, with 1 - |beta| from 1e-15 to 1e-1,
#: and at light speed.
speed_draws = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(-15.0, -1.0).map(lambda e: 1.0 - 10.0**e), st.just(1.0))


def plain_csv(rng, count):
    """A seeded isotropic velocity distribution as plain CSV text, the
    exact header and one line per sample: the loader's block path."""
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    cells = np.column_stack([rng.uniform(0.0, 0.999, count)[:, None] * direction,
                             rng.uniform(0.5, 2.0, count)])
    return "beta_x,beta_y,beta_z,weight\n" + "".join(
        map("%r,%r,%r,%r\n".__mod__, map(tuple, cells.tolist())))


@pytest.fixture
def rng():
    return np.random.default_rng(20230823)
