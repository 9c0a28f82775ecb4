import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# last on the path: a PYTHONPATH entry or an installed mixdiv wins over the checkout's src
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from mixdiv import Density, make_space


def random_det_one_map(rng):
    """Random |det| = 1 map with bounded conditioning, so mapped ellipses
    stay resolvable on the quadrature grid."""
    def rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]])

    s = rng.uniform(0.5, 2.0)
    T = rot(rng.uniform(0, 2 * np.pi)) @ np.diag([s, 1.0 / s]) @ rot(rng.uniform(0, 2 * np.pi))
    if rng.random() < 0.5:
        T = T @ np.diag([1.0, -1.0])  # reflection: det -1
    return T


def random_prob(rng, space):
    """Strictly positive probability density on the space."""
    v = rng.exponential(1.0, space.size) + 1e-3
    return Density(v / float(np.dot(v, space.weights)))


def slot_power(w, e):
    """w ** e as the slot kernel forms it: by np.sqrt for e = 1/2, np.sqrt
    twice for e = 1/4 and np.cbrt for e = 1/3, and by ** for any other e."""
    if e == 0.5:
        return np.sqrt(w)
    if e == 0.25:
        return np.sqrt(np.sqrt(w))
    if e == 1.0 / 3.0:
        return np.cbrt(w)
    return w ** e


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def counting2():
    return make_space([1.0, 1.0])
