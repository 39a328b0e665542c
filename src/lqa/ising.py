"""Problem representations, QUBO/Ising reductions, and energy evaluation.

Conventions: the Ising objective is ``s^T J s + s^T b`` over spins
``s in {+1,-1}^n``, with J stored dense, symmetric, zero-diagonal and
both triangles populated (each unordered pair is counted twice by the
quadratic form). The QUBO objective is ``x^T Q x + x^T a`` over
``x in {0,1}^n``. The reduction constant is carried explicitly as
``offset`` so objective values are comparable across forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProblemFormatError(ValueError):
    """Raised for malformed problem data or instance files."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _check_coupling(J: np.ndarray, name: str = "J") -> np.ndarray:
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ProblemFormatError(f"{name} must be a square matrix, got shape {J.shape}")
    if not np.array_equal(J, J.T):
        raise ProblemFormatError(f"{name} must be symmetric")
    if np.any(np.diagonal(J) != 0.0):
        raise ProblemFormatError(f"{name} must have zero diagonal (no self-couplings)")
    return J


@dataclass(frozen=True)
class QuboProblem:
    """Quadratic objective x^T Q x + x^T a over binary 0/1 variables."""

    Q: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        Q = _freeze(self.Q)
        a = _freeze(self.a)
        _check_coupling(Q, "Q")
        if a.shape != (Q.shape[0],):
            raise ProblemFormatError(f"a has shape {a.shape}, expected ({Q.shape[0]},)")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class IsingProblem:
    """Quadratic objective s^T J s + s^T b over +-1 spins.

    ``offset`` is the constant dropped when reducing from another form;
    ``ground_energy`` records the known optimum of s^T J s + s^T b for
    planted instances.
    """

    J: np.ndarray
    b: np.ndarray | None = None
    offset: float = 0.0
    ground_energy: float | None = None

    def __post_init__(self):
        J = _freeze(self.J)
        _check_coupling(J, "J")
        b = self.b
        b = np.zeros(J.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
        if b.shape != (J.shape[0],):
            raise ProblemFormatError(f"b has shape {b.shape}, expected ({J.shape[0]},)")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", _freeze(b))
        # b is frozen, so scan it once here rather than on every solver step
        object.__setattr__(self, "_has_bias", bool(np.any(self.b != 0.0)))

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def has_bias(self) -> bool:
        return self._has_bias


def as_spins(s) -> np.ndarray:
    """Validate and return a +-1 spin vector as float64."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"spin configuration must be 1-d, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spin entries must be exactly +1 or -1")
    return s


def qubo_to_ising(q: QuboProblem) -> IsingProblem:
    """Reduce a QUBO to an Ising problem via s = 2x - 1.

    Returns J = Q/4, b = (a + Q.1)/2 and the constant offset making
    x^T Q x + x^T a == s^T J s + s^T b + offset exactly for every
    assignment.
    """
    J = q.Q / 4.0
    b = (q.a + q.Q @ np.ones(q.n)) / 2.0
    offset = float(q.Q.sum() / 4.0 + q.a.sum() / 2.0)
    return IsingProblem(J=J, b=b, offset=offset)


def absorb_bias(p: IsingProblem) -> IsingProblem:
    """Fold the bias vector into the couplings via one ancilla spin.

    The returned (n+1)-spin problem has b = 0; spin index n is the
    ancilla, coupled to spin i with strength b_i / 2 on both triangles.
    When the ancilla reads +1 the new energy equals the old
    s^T J s + s^T b; a -1 ancilla is handled on readout by a global
    flip (see :func:`normalize_ancilla`).
    """
    n = p.n
    J2 = np.zeros((n + 1, n + 1))
    J2[:n, :n] = p.J
    J2[:n, n] = p.b / 2.0
    J2[n, :n] = p.b / 2.0
    return IsingProblem(J=J2, offset=p.offset, ground_energy=p.ground_energy)


def normalize_ancilla(s: np.ndarray) -> np.ndarray:
    """Strip the trailing ancilla spin, flipping globally if it reads -1.

    Valid because the bias-free quadratic form is invariant under
    s -> -s.
    """
    s = as_spins(s)
    if s[-1] < 0:
        s = -s
    return s[:-1]


def energy(p: IsingProblem, s) -> float:
    """Evaluate s^T J s for a bias-free problem."""
    if p.has_bias:
        raise ValueError("problem has a nonzero bias; call absorb_bias first")
    s = as_spins(s)
    if s.shape != (p.n,):
        raise ValueError(f"spin vector has shape {s.shape}, expected ({p.n},)")
    return float(s @ (p.J @ s))


def objective(p: IsingProblem, s) -> float:
    """Evaluate the full objective s^T J s + s^T b (bias allowed)."""
    s = as_spins(s)
    if s.shape != (p.n,):
        raise ValueError(f"spin vector has shape {s.shape}, expected ({p.n},)")
    return float(s @ (p.J @ s) + s @ p.b)


def graph_total_weight(p: IsingProblem) -> float:
    """Total edge weight of the graph encoded by p.

    Uses the fixed Max-Cut normalisation J_ij = w_ij / 2 on both
    triangles, so the sum of all matrix entries equals the sum of edge
    weights.
    """
    return float(p.J.sum())


def cut_value(p: IsingProblem, s, total_edge_weight: float) -> float:
    """Cut value of the partition induced by s.

    With J_ij = w_ij / 2 on both triangles, s^T J s equals the signed
    edge sum and cut(s) = (W_total - s^T J s) / 2.
    """
    return (total_edge_weight - energy(p, s)) / 2.0


# ---------------------------------------------------------------------------
# Text instance format
#
# Lines `i j J_ij` with 0-based indices give one coupling per unordered
# pair (mirrored into both triangles on load); lines `b i b_i` give
# biases; `#` starts a comment. A `# ground_energy: <float>` comment
# populates ground_energy. Self-couplings and duplicate pairs are
# rejected.
# ---------------------------------------------------------------------------


def load_instance(path) -> IsingProblem:
    """Load an Ising problem from the text coupling format."""
    entries: dict[tuple[int, int], float] = {}
    biases: dict[int, float] = {}
    ground_energy = None
    n = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("ground_energy:"):
                    try:
                        ground_energy = float(body.split(":", 1)[1])
                    except ValueError:
                        raise ProblemFormatError(
                            f"{path}:{lineno}: bad ground_energy value"
                        ) from None
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ProblemFormatError(
                    f"{path}:{lineno}: expected 3 fields, got {len(parts)}"
                )
            if parts[0] == "b":
                try:
                    i, val = int(parts[1]), float(parts[2])
                except ValueError:
                    raise ProblemFormatError(f"{path}:{lineno}: bad bias line") from None
                if i < 0:
                    raise ProblemFormatError(f"{path}:{lineno}: negative index")
                if i in biases:
                    raise ProblemFormatError(f"{path}:{lineno}: duplicate bias for {i}")
                biases[i] = val
                n = max(n, i + 1)
                continue
            try:
                i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ProblemFormatError(f"{path}:{lineno}: bad coupling line") from None
            if i < 0 or j < 0:
                raise ProblemFormatError(f"{path}:{lineno}: negative index")
            if i == j:
                raise ProblemFormatError(
                    f"{path}:{lineno}: self-coupling {i} {i} is not allowed"
                )
            key = (min(i, j), max(i, j))
            if key in entries:
                raise ProblemFormatError(
                    f"{path}:{lineno}: duplicate coupling for pair {key}"
                )
            entries[key] = val
            n = max(n, i + 1, j + 1)
    if n == 0:
        raise ProblemFormatError(f"{path}: no couplings or biases found")
    J = np.zeros((n, n))
    for (i, j), val in entries.items():
        J[i, j] = val
        J[j, i] = val
    b = np.zeros(n)
    for i, val in biases.items():
        b[i] = val
    return IsingProblem(J=J, b=b, ground_energy=ground_energy)


def save_instance(p: IsingProblem, path, header_comments=()) -> None:
    """Write an Ising problem in the text coupling format.

    Floats are written with repr-level precision so a save/load round
    trip reproduces couplings exactly.
    """
    lines = []
    for comment in header_comments:
        lines.append(f"# {comment}")
    if p.ground_energy is not None:
        lines.append(f"# ground_energy: {p.ground_energy!r}")
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if p.J[i, j] != 0.0:
                lines.append(f"{i} {j} {float(p.J[i, j])!r}")
    for i in range(p.n):
        if p.b[i] != 0.0:
            lines.append(f"b {i} {float(p.b[i])!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
