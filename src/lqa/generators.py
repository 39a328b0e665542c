"""Seeded benchmark-instance generators.

Two families: fully connected random +-1 couplings (the Max-Cut style
benchmark) and the Wishart planted ensemble, which hides a known
ground state inside a fully connected Gaussian problem with hardness
controlled by the aspect ratio alpha = m / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingProblem


@dataclass(frozen=True)
class PlantedInstance:
    """A problem whose global optimum is known by construction."""

    problem: IsingProblem
    planted: np.ndarray


def gen_random_pm1(n: int, seed) -> IsingProblem:
    """Fully connected symmetric couplings with J_ij = +-1 uniform.

    The n(n-1)/2 upper-triangle entries are drawn independently from a
    seeded generator and mirrored.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = rng.choice([-1.0, 1.0], size=len(iu[0]))
    J[iu] = vals
    J.T[iu] = vals
    return IsingProblem(J=J)


def gen_wishart(n: int, alpha: float, seed) -> PlantedInstance:
    """Wishart planted instance with ground states +-planted.

    Draws a planted configuration t, an n x m Gaussian matrix
    (m = round(alpha * n)) whose columns are projected onto the
    hyperplane orthogonal to t, and sets J = (W W^T) / n with the
    diagonal zeroed. Then s^T J s = (|W^T s|^2 - |W|_F^2) / n, which is
    minimised exactly when W^T s = 0, i.e. at s = +-t (almost surely
    uniquely).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    m = round(alpha * n)
    if m < 1:
        raise ValueError(f"alpha * n rounds to {m} columns; need at least 1")
    rng = np.random.default_rng(seed)
    t = rng.choice([-1.0, 1.0], size=n)
    G = rng.standard_normal((n, m))
    W = G - np.outer(t, t @ G) / n  # columns orthogonal to t
    J = (W @ W.T) / n
    J = (J + J.T) / 2.0  # kill float asymmetry from the BLAS product
    np.fill_diagonal(J, 0.0)
    ground = float(t @ (J @ t))
    problem = IsingProblem(J=J, ground_energy=ground)
    return PlantedInstance(problem=problem, planted=t)
