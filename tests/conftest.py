import numpy as np
import pytest

from lqa import IsingProblem, cost
from lqa.ising import as_spins


def random_symmetric(n, rng, scale=1.0):
    """Dense symmetric zero-diagonal coupling matrix with U[-scale, scale] entries."""
    J = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = rng.uniform(-scale, scale, size=len(iu[0]))
    J[iu] = vals
    J.T[iu] = vals
    return J


def random_ising(n, rng, scale=1.0):
    return IsingProblem(J=random_symmetric(n, rng, scale))


def single_flip_stable(p, s, tol=1e-9):
    """True iff no single spin flip strictly decreases the energy.

    Uses the local fields h = J s + b/2: flipping spin i changes the
    energy by -4 s_i h_i, so stability is -4 s_i h_i >= 0 for every i
    (up to tol, scaled by the field magnitude).
    """
    s = as_spins(s)
    h = p.J @ s + p.b / 2.0
    deltas = -4.0 * s * h
    scale = max(1.0, float((np.abs(p.J).sum(axis=1) + np.abs(p.b) / 2.0).max()))
    return bool(np.all(deltas >= -tol * scale))


def finite_difference_gradient(p, w, t, gamma, h=1e-5):
    """Central differences of the cost in each weight."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (cost(p, wp, t, gamma) - cost(p, wm, t, gamma)) / (2 * h)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
