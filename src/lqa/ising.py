"""Problem representations, QUBO/Ising reductions, and energy evaluation.

Conventions: the Ising objective is ``s^T J s + s^T b`` over spins
``s in {+1,-1}^n``, with J stored dense, symmetric, zero-diagonal and
both triangles populated (each unordered pair is counted twice by the
quadratic form). The QUBO objective is ``x^T Q x + x^T a`` over
``x in {0,1}^n``. The reduction constant is carried explicitly as
``offset`` so objective values are comparable across forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class ProblemFormatError(ValueError):
    """Raised for malformed problem data or instance files."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{name} has non-finite entries (inf or nan)")


def _check_coupling(J: np.ndarray, name: str = "J") -> np.ndarray:
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ProblemFormatError(f"{name} must be a square matrix, got shape {J.shape}")
    _check_finite(J, name)
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
        _check_finite(a, "a")
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
        _check_finite(b, "b")
        if self.ground_energy is not None and not math.isfinite(self.ground_energy):
            raise ProblemFormatError(f"non-finite ground_energy {self.ground_energy!r}")
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


def objective(p: IsingProblem, s) -> float:
    """Evaluate the objective s^T J s + s^T b of any problem."""
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
    edge sum and cut(s) = (W_total - s^T J s) / 2. A Max-Cut problem has
    no bias.
    """
    if p.has_bias:
        raise ValueError("Max-Cut is defined only for problems without bias")
    return (total_edge_weight - objective(p, s)) / 2.0


# ---------------------------------------------------------------------------
# Text instance format
#
# Lines `i j J_ij` with 0-based indices give one coupling per unordered
# pair (mirrored into both triangles on load); lines `b i b_i` give
# biases; `#` starts a comment. A `# ground_energy: <float>` comment
# populates ground_energy. Self-couplings, duplicate pairs, non-finite
# values and indices at or above MAX_SPINS are rejected.
# ---------------------------------------------------------------------------

MAX_SPINS = 1 << 14
"""Cap on the spin count of a loaded instance, checked before the dense
J is allocated: J then takes at most 2 GiB, and loading briefly holds
two copies of it."""

# One data row: `b` or the first index, the second index, the value.
# A first field that fills all 8 bytes may have been truncated.
_HEAD_BYTES = 8
_ROW = np.dtype([("head", f"S{_HEAD_BYTES}"), ("j", np.int64), ("val", np.float64)])


def load_instance(path) -> IsingProblem:
    """Load an Ising problem from the text coupling format.

    One bulk pass parses and checks every row; a file it does not
    accept is read again line by line, which names the first bad line.
    """
    try:
        return _load_bulk(path)
    except ValueError:
        return _load_lines(path)


def _scan_comments(text: str) -> float | None:
    """Return the last `# ground_energy:` value, visiting only the `#`s.

    Raises ValueError for a `#` after data on its line, which the line
    parser rejects, and for a bad ground_energy value.
    """
    ground_energy = None
    pos = text.find("#")
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        if text[start:pos].strip():
            raise ValueError("'#' after data")
        body = text[pos + 1 : end].strip()
        if body.startswith("ground_energy:"):
            ground_energy = float(body.split(":", 1)[1])
            if not math.isfinite(ground_energy):
                raise ValueError("non-finite ground_energy")
        pos = text.find("#", end)
    return ground_energy


def _has_repeats(keys: np.ndarray) -> bool:
    # sort and compare neighbours: np.unique hashes, which is slower here
    keys = np.sort(keys)
    return bool(np.any(keys[1:] == keys[:-1]))


def _load_bulk(path) -> IsingProblem:
    """Parse all data rows with one np.loadtxt call and check them as arrays.

    Raises ValueError, without a line number, for any file the line
    parser would reject or might read differently.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
        # an S field drops trailing NULs, which int() and float() reject
        if "\0" in text:
            raise ValueError("NUL character")
        ground_energy = _scan_comments(text)
        del text  # not held while np.loadtxt builds the rows
        fh.seek(0)
        with warnings.catch_warnings():
            # a file without data rows warns; the size check below rejects it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, dtype=_ROW, comments="#", ndmin=1)
    if rows.size == 0:
        raise ValueError("no data rows")
    head, j, val = rows["head"], rows["j"], rows["val"]
    if np.char.str_len(head).max() >= _HEAD_BYTES:
        raise ValueError("first field may be truncated")
    if not np.isfinite(val).all():
        raise ValueError("non-finite value")
    is_bias = head == b"b"
    bi, bval = j[is_bias], val[is_bias]
    ci, cj, cval = head[~is_bias].astype(np.int64), j[~is_bias], val[~is_bias]
    del rows, head, j, val
    lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
    if lo.size and (lo.min() < 0 or hi.max() >= MAX_SPINS or np.any(lo == hi)):
        raise ValueError("bad coupling index")
    if bi.size and (bi.min() < 0 or bi.max() >= MAX_SPINS):
        raise ValueError("bad bias index")
    if _has_repeats(lo * MAX_SPINS + hi) or _has_repeats(bi):
        raise ValueError("duplicate coupling or bias")
    n = int(max(hi.max(initial=-1), bi.max(initial=-1))) + 1
    J = np.zeros((n, n))
    J[ci, cj] = cval
    J[cj, ci] = cval
    b = np.zeros(n)
    b[bi] = bval
    return IsingProblem(J=J, b=b, ground_energy=ground_energy)


def _load_lines(path) -> IsingProblem:
    """Line-by-line parser: the reference for load_instance, and the path
    that reports a bad file's first bad line by number."""
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
                        ground_energy = math.nan  # rejected below, as inf and nan are
                    if not math.isfinite(ground_energy):
                        raise ProblemFormatError(f"{path}:{lineno}: bad ground_energy value")
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
                _check_index(path, lineno, i)
                if not math.isfinite(val):
                    raise ProblemFormatError(f"{path}:{lineno}: non-finite bias {parts[2]}")
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
            _check_index(path, lineno, max(i, j))
            if i == j:
                raise ProblemFormatError(
                    f"{path}:{lineno}: self-coupling {i} {i} is not allowed"
                )
            if not math.isfinite(val):
                raise ProblemFormatError(f"{path}:{lineno}: non-finite coupling {parts[2]}")
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


def _check_index(path, lineno: int, i: int) -> None:
    if i >= MAX_SPINS:
        raise ProblemFormatError(
            f"{path}:{lineno}: index {i} is at or above the cap of {MAX_SPINS} spins"
        )


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
