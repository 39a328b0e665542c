"""Exhaustive ground-truth machinery for small instances."""

from __future__ import annotations

import numpy as np

from .ising import IsingProblem, as_spins

MAX_BRUTE_FORCE_SPINS = 24


def _spin_block(start: int, count: int, n: int) -> np.ndarray:
    """Rows start..start+count-1 of the 2^n enumeration as +-1 spins.

    Bit k of the row index gives spin k: 0 -> -1, 1 -> +1, so row order
    is lexicographic with -1 before +1 reading spins from the right.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return 2.0 * bits.astype(np.float64) - 1.0


def brute_force_ground(
    p: IsingProblem, max_spins: int = MAX_BRUTE_FORCE_SPINS
) -> tuple[float, list[np.ndarray]]:
    """Exact minimum of s^T J s + s^T b over all 2^n configurations.

    Returns the minimum energy and every minimiser, sorted
    lexicographically. Enumeration is split as s = (s_A, s_B) so the
    energy of all configurations in a block comes from one dense
    matrix product; far faster in numpy than per-config Gray-code
    updates at these sizes.
    """
    n = p.n
    if n > max_spins:
        raise ValueError(
            f"brute force capped at {max_spins} spins (got {n}); "
            "raise max_spins explicitly to override"
        )
    k = n // 2
    m = n - k
    J_aa = p.J[:k, :k]
    J_ab = p.J[:k, k:]
    J_bb = p.J[k:, k:]

    SB = _spin_block(0, 2**m, m)  # all right-half configs
    eB = np.einsum("ij,jk,ik->i", SB, J_bb, SB) + SB @ p.b[k:]
    cross_T = J_ab @ SB.T  # (k, 2^m)

    best = np.inf
    minimisers: list[np.ndarray] = []
    block = 4096
    for start in range(0, 2**k, block):
        count = min(block, 2**k - start)
        SA = _spin_block(start, count, k)
        eA = np.einsum("ij,jk,ik->i", SA, J_aa, SA) + SA @ p.b[:k]
        E = eA[:, None] + eB[None, :] + 2.0 * (SA @ cross_T)
        blk_min = E.min()
        if blk_min < best:
            best = blk_min
            minimisers = []
        if blk_min <= best:
            rows, cols = np.nonzero(E == best)
            for r, c in zip(rows, cols):
                minimisers.append(np.concatenate([SA[r], SB[c]]))
    minimisers.sort(key=lambda s: tuple(s))
    return float(best), minimisers


def single_flip_stable(p: IsingProblem, s, tol: float = 1e-9) -> bool:
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
