"""Seeded benchmark-instance generators.

Two families: fully connected random +-1 couplings (the Max-Cut style
benchmark) and the Wishart planted ensemble, which hides a known
ground state inside a fully connected Gaussian problem with hardness
controlled by the aspect ratio alpha = m / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingProblem, _upper_tiles

# draws per band of rows in gen_random_pm1: two 512 KiB buffers (the
# indices and the signs) whatever n is
_BAND_ENTRIES = 2**16


@dataclass(frozen=True)
class PlantedInstance:
    """A problem whose global optimum is known by construction."""

    problem: IsingProblem
    planted: np.ndarray


def gen_random_pm1(n: int, seed) -> IsingProblem:
    """Fully connected symmetric couplings with J_ij = +-1 uniform.

    The n(n-1)/2 upper-triangle entries are drawn independently from a
    seeded generator in row-major order and mirrored. They are drawn a
    band of rows at a time straight into J, so memory beyond J stays
    fixed; the values equal one ``rng.choice([-1.0, 1.0], n(n-1)/2)``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    signs = np.array([-1.0, 1.0])
    J = np.zeros((n, n))
    band = max(1, _BAND_ENTRIES // n)
    for lo in range(0, n - 1, band):
        hi = min(lo + band, n - 1)
        # rng.choice(signs, k) is signs.take(rng.integers(0, 2, k)), and
        # the integers stream does not depend on how the draws are split
        size = (hi - lo) * (2 * n - lo - hi - 1) // 2
        vals = signs.take(rng.integers(0, 2, size=size))
        start = 0
        for i in range(lo, hi):
            stop = start + n - 1 - i
            J[i, i + 1 :] = vals[start:stop]
            start = stop
    for rows, cols in _upper_tiles(n):
        # the mirror tile is zero; on a diagonal tile this fills its lower half
        J[cols, rows] += J[rows, cols].T
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
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
    W = rng.standard_normal((n, m))
    W -= np.outer(t, t @ W) / n  # columns orthogonal to t
    # for a contiguous W numpy computes W @ W.T as one triangle (BLAS
    # syrk) and mirrors it, so J is exactly symmetric; IsingProblem
    # rejects it if not
    J = W @ W.T
    del W
    J /= n
    np.fill_diagonal(J, 0.0)
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
    ground = float(t @ (J @ t))
    problem = IsingProblem(J=J, ground_energy=ground)
    return PlantedInstance(problem=problem, planted=t)
