"""Exhaustive ground-truth machinery for small instances."""

from __future__ import annotations

import numpy as np

from .ising import IsingProblem

MAX_BRUTE_FORCE_SPINS = 24
# energies per enumeration block: the block and its cross term are two
# (rows, 2^m) float64 buffers of 512 KiB each, reused for every block
BLOCK_ENTRIES = 2**16


def _spin_block(n: int) -> np.ndarray:
    """All 2^n configurations of n spins as +-1 rows, in enumeration order.

    Bit k of the row index gives spin k: 0 -> -1, 1 -> +1, so row order
    is lexicographic with -1 before +1 reading spins from the right.
    """
    idx = np.arange(2**n, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return 2.0 * bits.astype(np.float64) - 1.0


def brute_force_ground(p: IsingProblem) -> tuple[float, np.ndarray]:
    """Exact minimum of s^T J s + s^T b over all 2^n configurations.

    Returns the minimum energy and a (count, n) array of every minimiser,
    sorted lexicographically. Enumeration is split as s = (s_A, s_B) so the
    energies of a block of s_A rows against every s_B come from one
    dense matrix product; far faster in numpy than per-config Gray-code
    updates at these sizes. Without a bias every term is a product of
    two spins, so E(s) = E(-s) bit for bit: the last spin is fixed to
    +1, only 2^(n-1) energies are enumerated, and each minimiser's
    negation is added. Blocks hold BLOCK_ENTRIES energies, so working
    memory stays near 1 MiB plus the 2^(n - n//2) half-tables at any n;
    the cap bounds the 2^n run time, and the minimiser array itself is
    not bounded.
    """
    n = p.n
    if n > MAX_BRUTE_FORCE_SPINS:
        raise ValueError(f"brute force capped at {MAX_BRUTE_FORCE_SPINS} spins (got {n})")
    k = n // 2
    m = n - k
    J_aa = p.J[:k, :k]
    J_ab = p.J[:k, k:]
    J_bb = p.J[k:, k:]

    symmetric = not p.has_bias  # then E(s) = E(-s)
    SB = _spin_block(m)  # all right-half configs
    if symmetric:
        SB = SB[2 ** (m - 1) :]  # the half whose last spin is +1
    width = len(SB)
    eB = np.einsum("ij,jk,ik->i", SB, J_bb, SB) + SB @ p.b[k:]
    cross_T = J_ab @ SB.T  # (k, width)
    cross_T *= 2.0
    SA = _spin_block(k)  # all left-half configs
    eA = np.einsum("ij,jk,ik->i", SA, J_aa, SA) + SA @ p.b[:k]

    # 2^k, width and rows are powers of two, so every block is full
    rows = min(2**k, max(1, BLOCK_ENTRIES // width))
    X = np.empty((rows, width))
    E = np.empty((rows, width))
    best = np.inf
    # the result stays (0, n) if overflow makes every block minimum nan
    pieces = [np.empty((0, n))]
    for start in range(0, 2**k, rows):
        # E = (eA + eB) + 2 (SA @ cross_T) in place, the 2 folded into
        # cross_T once: doubling is exact, so the product keeps its bits,
        # and this association alone fixes every energy's bits
        np.matmul(SA[start : start + rows], cross_T, out=X)
        np.add(eA[start : start + rows, None], eB[None, :], out=E)
        E += X
        blk_min = E.min()
        if blk_min < best:
            best = blk_min
            pieces = []
        if blk_min == best:
            r, c = divmod(np.flatnonzero(E == best), width)
            pieces.append(np.hstack([SA[start + r], SB[c]]))
    mins = np.concatenate(pieces)
    if symmetric:
        mins = np.concatenate([mins, -mins])
    # lexsort's last key is the primary one: sort by spin 0 first
    return float(best), mins[np.lexsort(mins.T[::-1])]
