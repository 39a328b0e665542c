"""Seeded benchmark-instance generators.

Two families: fully connected random +-1 couplings (the Max-Cut style
benchmark) and the Wishart planted ensemble, which hides a known
ground state inside a fully connected Gaussian problem with hardness
controlled by the aspect ratio alpha = m / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingProblem, _upper_tiles

# draws per band of rows in gen_random_pm1: one 512 KiB buffer of
# indices whatever n is
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
        picks = rng.integers(0, 2, size=size)
        start = 0
        for i in range(lo, hi):
            stop = start + n - 1 - i
            # straight into the row; mode "raise" would buffer the output
            signs.take(picks[start:stop], out=J[i, i + 1 :], mode="clip")
            start = stop
    for rows, cols in _upper_tiles(n):
        if rows == cols:  # fill the zero lower half of a diagonal tile
            J[rows, rows] += J[rows, rows].T
        else:
            J[cols, rows] = J[rows, cols].T
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
    return IsingProblem(J=J)


def wishart_columns(n: int, alpha: float) -> int:
    """The column count m = round(alpha * n) of a Wishart instance's W.
    Raises ValueError for an alpha that is not above 0 and finite, or
    one that leaves no column."""
    # False for nan, and round(inf * n) would raise OverflowError
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be > 0 and finite")
    m = round(alpha * n)
    if m < 1:
        raise ValueError(f"alpha * n rounds to {m} columns; need at least 1")
    return m


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
    m = wishart_columns(n, alpha)
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
    problem = IsingProblem(J=J, ground_energy=t @ (J @ t))
    return PlantedInstance(problem=problem, planted=t)
