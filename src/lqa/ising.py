"""Problem representations, QUBO/Ising reductions, and energy evaluation.

Conventions: the Ising objective is ``s^T J s + s^T b`` over spins
``s in {+1,-1}^n``, with J stored dense, symmetric, zero-diagonal and
both triangles populated (each unordered pair is counted twice by the
quadratic form). The QUBO objective is ``x^T Q x + x^T a`` over
``x in {0,1}^n``. The reduction constant is carried explicitly as
``offset`` so objective values are comparable across forms.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np


class ProblemFormatError(ValueError):
    """Raised for malformed problem data or instance files."""


def _freeze(arr) -> np.ndarray:
    """Return arr as a read-only float64 array.

    A read-only float64 ndarray that owns its data is adopted as is: the
    library's constructors hand over their fresh matrices this way, so a
    large J is never held twice. Anything else (a writable array, a view,
    another dtype, a nested list) is copied.
    """
    if (
        type(arr) is np.ndarray
        and arr.dtype == np.float64
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        return arr
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


_SYMMETRY_TILE = 256


def _check_finite(arr: np.ndarray, name: str) -> None:
    # a band of rows at a time, so a large J needs no n x n boolean array
    t = _SYMMETRY_TILE
    if not all(np.isfinite(arr[i : i + t]).all() for i in range(0, len(arr), t)):
        raise ProblemFormatError(f"{name} has non-finite entries (inf or nan)")


def _upper_tiles(n: int):
    """Yield (rows, cols) slices of the upper-triangle tiles of an n x n
    matrix, diagonal tiles included; ``[cols, rows]`` is the mirror tile.
    Validation and the pm1 generator walk these: a whole ``A.T`` reads
    column-wise and misses the cache at large n, a tile and its mirror fit."""
    t = _SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            yield slice(i, i + t), slice(j, j + t)


def _check_coupling(J: np.ndarray) -> None:
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ProblemFormatError(f"J must be a square matrix, got shape {J.shape}")
    if len(J) == 0:
        raise ProblemFormatError("J must have at least one spin")
    # finite upper tiles equal to their mirrors' transposes make J finite and
    # symmetric; if not, J is scanned again to name a non-finite entry first
    tiles = _upper_tiles(len(J))
    if not all(np.isfinite(J[r, c]).all() and (J[r, c] == J[c, r].T).all() for r, c in tiles):
        _check_finite(J, "J")
        raise ProblemFormatError("J must be symmetric")
    if np.any(np.diagonal(J) != 0.0):
        raise ProblemFormatError("J must have zero diagonal (no self-couplings)")


@dataclass(frozen=True)
class IsingProblem:
    """Quadratic objective s^T J s + s^T b over +-1 spins.

    ``offset`` is the constant dropped when reducing from another form;
    ``ground_energy`` records the known optimum of s^T J s + s^T b for
    planted instances.

    ``J`` and ``b`` are read-only float64 arrays. A read-only float64
    array that owns its data is adopted without a copy (the generators,
    the loaders, ``absorb_bias`` and ``qubo_to_ising`` hand theirs over
    so); a writable array, a view, another dtype or a nested list is
    copied, so later writes to the caller's array never reach the
    problem. A pickled or deep-copied problem keeps its arrays read-only.
    """

    J: np.ndarray
    b: np.ndarray | None = None
    offset: float = 0.0
    ground_energy: float | None = None

    def __post_init__(self):
        J = _freeze(self.J)
        _check_coupling(J)
        b = self.b
        b = np.zeros(J.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
        if b.shape != (J.shape[0],):
            raise ProblemFormatError(f"b has shape {b.shape}, expected ({J.shape[0]},)")
        _check_finite(b, "b")
        # Python floats, in messages and files: numpy 2 writes a numpy
        # scalar's repr as np.float64(...)
        if self.ground_energy is not None and not math.isfinite(self.ground_energy):
            raise ProblemFormatError(f"non-finite ground_energy {float(self.ground_energy)!r}")
        if not math.isfinite(self.offset):
            raise ProblemFormatError(f"non-finite offset {float(self.offset)!r}")
        if self.ground_energy is not None:
            object.__setattr__(self, "ground_energy", float(self.ground_energy))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", _freeze(b))

    def __setstate__(self, state: dict) -> None:
        # pickle (how spawn and forkserver pool workers receive a problem) and
        # deepcopy rebuild each array writable and private to the new problem,
        # so freeze it in place, not copy it
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def has_bias(self) -> bool:
        return bool(self.b.any())


def as_spins(s) -> np.ndarray:
    """Validate and return a +-1 spin vector as float64."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"spin configuration must be 1-d, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spin entries must be exactly +1 or -1")
    return s


def qubo_to_ising(Q, a) -> IsingProblem:
    """Reduce the QUBO x^T Q x + x^T a over x in {0,1}^n to an Ising
    problem via s = 2x - 1.

    Q is any finite square matrix and a a finite n-vector. The diagonal
    of Q joins the linear term, since x_i^2 = x_i, and only the symmetric
    part (Q + Q^T)/2 counts, computed exactly for a symmetric or a
    triangular Q. With Q' that part, zero on the diagonal, and
    a' = a + diag(Q), returns J = Q'/4, b = (a' + Q'.1)/2 and the offset
    Q'.sum()/4 + a'.sum()/2, making
    x^T Q x + x^T a == s^T J s + s^T b + offset for every assignment.
    """
    Q = np.asarray(Q, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ProblemFormatError(f"Q must be a square matrix, got shape {Q.shape}")
    if a.shape != (len(Q),):
        raise ProblemFormatError(f"a has shape {a.shape}, expected ({len(Q)},)")
    _check_finite(Q, "Q")
    _check_finite(a, "a")
    # the sums into b and the offset may overflow (inf, or nan from
    # inf - inf); both are checked once, below
    with np.errstate(over="ignore", invalid="ignore"):
        a = a + np.diagonal(Q)
        # the symmetric part's upper triangle, mirrored: exactly Q for a
        # symmetric Q, and no term overflows (Q + Q^T would, above half
        # the float max)
        Q = np.triu(Q + (Q.T / 2.0 - Q / 2.0), 1)
        Q = Q + Q.T
        b = (a + Q @ np.ones(len(Q))) / 2.0
        offset = Q.sum() / 4.0 + a.sum() / 2.0
    if not (np.isfinite(b).all() and math.isfinite(offset)):
        raise ProblemFormatError("Q and a reduce to a non-finite bias or offset")
    J = Q / 4.0
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
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
    J2.setflags(write=False)  # fresh, so IsingProblem adopts it
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
# populates ground_energy, a `# offset: <float>` comment populates
# offset and a `# n: <int>` comment sets the spin count, which is
# otherwise the largest index + 1; the last of each wins. Self-couplings,
# duplicate pairs, non-finite values, indices at or above MAX_SPINS and
# an n below the largest index + 1 or above MAX_SPINS are rejected.
# ---------------------------------------------------------------------------

MAX_SPINS = 1 << 14
"""Cap on the spin count of a loaded instance, checked before the dense
J is allocated: J then takes at most 2 GiB. The loader hands its matrix
to IsingProblem without a copy, but the parsed rows and their index
arrays are alive when J is built: loading a dense pm1 n=1000 file peaks
at 3.6 times J's bytes under tracemalloc."""

# One data row: `b` or the first index, the second index, the value.
# A first field that fills all 8 bytes may have been truncated.
_HEAD_BYTES = 8
_ROW = np.dtype([("head", f"S{_HEAD_BYTES}"), ("j", np.int64), ("val", np.float64)])
# rows per band of the index parse: its temporaries stay under 1 MiB
_INDEX_BAND = 1 << 14
# suffixes np.loadtxt decompresses when it opens a file by name
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def load_instance(path) -> IsingProblem:
    """Load an Ising problem from the text coupling format.

    One bulk pass parses and checks every row; a file it does not
    accept is read again line by line, which names the first bad line.
    """
    try:
        return _load_bulk(path)
    except ValueError:
        return _load_lines(path)


# comment keys the loader reads: the spin count and two fields of the
# loaded problem
_COMMENT_FIELDS = ("n", "ground_energy", "offset")


def _comment_field(line: str) -> tuple[str, str] | None:
    """Split a `# key: value` comment line with a key in _COMMENT_FIELDS."""
    key, sep, value = line[1:].strip().partition(":")
    return (key, value) if sep and key in _COMMENT_FIELDS else None


def _comment_value(key: str, text: str) -> float:
    """Parse the value of a `_COMMENT_FIELDS` comment: an int no larger
    than MAX_SPINS for n, a finite float otherwise. Raises ValueError
    with the message the line parser reports."""
    if key == "n":
        try:
            value = int(text)
        except ValueError:
            raise ValueError("bad n value") from None
        if value > MAX_SPINS:
            raise ValueError(f"n {value} is above the cap of {MAX_SPINS} spins")
        return value
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, as inf and nan are
    if not math.isfinite(value):
        raise ValueError(f"bad {key} value")
    return value


def _scan_comments(text: str) -> dict[str, float]:
    """Return the last value of each `_COMMENT_FIELDS` comment, visiting
    only the `#`s.

    Raises ValueError for a `#` after data on its line, which the line
    parser rejects, and for a bad value.
    """
    fields = {}
    pos = text.find("#")
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        if text[start:pos].strip():
            raise ValueError("'#' after data")
        field = _comment_field(text[pos:end])
        if field:
            fields[field[0]] = _comment_value(*field)
        pos = text.find("#", end)
    return fields


def _has_repeats(keys: np.ndarray) -> bool:
    # sort and compare neighbours: np.unique hashes, which is slower here
    keys = np.sort(keys)
    return bool(np.any(keys[1:] == keys[:-1]))


def _load_bulk(path) -> IsingProblem:
    """Parse all data rows with one np.loadtxt call and check them as arrays.

    Raises ValueError, without a line number, for any file the line
    parser would reject or might read differently.
    """
    source = os.fspath(path)
    with open(source, "r", encoding="ascii") as fh:
        text = fh.read()
    # an S field drops trailing NULs, which int() and float() reject
    if "\0" in text:
        raise ValueError("NUL character")
    fields = _scan_comments(text)
    del text  # not held while np.loadtxt builds the rows
    # np.loadtxt reads a str path in C chunks, but walks a handle a line
    # at a time in Python. Given a name, numpy fetches a URL and
    # decompresses by suffix, so such names are read through a handle.
    by_name = (
        isinstance(source, str)
        and "://" not in source
        and not source.endswith(_COMPRESSED_SUFFIXES)
    )
    reader = contextlib.nullcontext(source) if by_name else open(source, "r", encoding="ascii")
    with reader as src, warnings.catch_warnings():
        # a file without data rows warns; the size check below rejects it
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(src, dtype=_ROW, comments="#", ndmin=1, encoding="ascii")
    if rows.size == 0:
        raise ValueError("no data rows")
    head, j, val = rows["head"], rows["j"], rows["val"]
    if not np.isfinite(val).all():  # before J is allocated
        raise ValueError("non-finite value")
    is_bias = head == b"b"
    bi, bval = j[is_bias], val[is_bias]
    ci, cj, cval = _parse_index(head[~is_bias]), j[~is_bias], val[~is_bias]
    del rows, head, j, val
    lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
    if lo.size and (lo.min() < 0 or hi.max() >= MAX_SPINS or np.any(lo == hi)):
        raise ValueError("bad coupling index")
    if bi.size and (bi.min() < 0 or bi.max() >= MAX_SPINS):
        raise ValueError("bad bias index")
    if _has_repeats(lo * MAX_SPINS + hi) or _has_repeats(bi):
        raise ValueError("duplicate coupling or bias")
    n = int(max(hi.max(initial=-1), bi.max(initial=-1))) + 1
    n_comment = fields.pop("n", n)
    if n_comment < n:
        raise ValueError("n below the largest index + 1")
    n = n_comment
    J = np.zeros((n, n))
    J[ci, cj] = cval
    J[cj, ci] = cval
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
    b = np.zeros(n)
    b[bi] = bval
    return IsingProblem(J=J, b=b, **fields)


def _parse_index(head: np.ndarray) -> np.ndarray:
    """Read a contiguous S8 column of plain decimals as int64, a band of
    rows at a time.

    A plain decimal is an optional `+`, then digits, then NUL padding
    that fills at least the last byte (a field that fills all 8 bytes may
    have been truncated); the caller has rejected NUL characters, so a NUL
    is padding. Anything else, such as `-0`, `1_0`, a lone `+` or `1+`,
    raises ValueError, which hands the file to the line parser.
    ``astype(np.int64)`` would call Python's int() on every row.
    """
    out = np.zeros(len(head), np.int64)
    for start in range(0, len(head), _INDEX_BAND):
        band = head[start : start + _INDEX_BAND].view(np.uint8).reshape(-1, _HEAD_BYTES)
        cols = np.ascontiguousarray(band.T)  # row c holds byte c of every field
        digit = cols - np.uint8(ord("0"))  # wraps above 9 for every other byte
        is_digit = digit < 10
        is_nul = cols == 0
        if not (
            (is_digit[0] | ((cols[0] == ord("+")) & is_digit[1])).all()
            and (is_digit | is_nul)[1:].all()
            and is_nul[-1].all()
        ):
            raise ValueError("index is not a plain decimal")
        value = out[start : start + _INDEX_BAND]
        for c in range(_HEAD_BYTES):  # Horner over the digit bytes
            np.multiply(value, 10, out=value, where=is_digit[c])
            np.add(value, digit[c], out=value, where=is_digit[c])
    return out


def _load_lines(path) -> IsingProblem:
    """Line-by-line parser: the reference for load_instance, and the path
    that reports a bad file's first bad line by number."""
    entries: dict[tuple[int, int], float] = {}
    biases: dict[int, float] = {}
    fields: dict[str, float] = {}
    n = 0
    n_line = 0  # the line of the last `# n:` comment
    # a byte above 127 reads as a lone surrogate, so the line is named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise ProblemFormatError(f"{path}:{lineno}: not ASCII text")
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                field = _comment_field(line)
                if field:
                    key = field[0]
                    try:
                        fields[key] = _comment_value(*field)
                    except ValueError as exc:
                        raise ProblemFormatError(f"{path}:{lineno}: {exc}") from None
                    if key == "n":
                        n_line = lineno
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
    n_comment = fields.pop("n", n)
    if n_comment < n:
        raise ProblemFormatError(
            f"{path}:{n_line}: n {n_comment} is below the largest index + 1, {n}"
        )
    n = n_comment
    if n == 0:
        raise ProblemFormatError(f"{path}: no couplings or biases found")
    J = np.zeros((n, n))
    for (i, j), val in entries.items():
        J[i, j] = val
        J[j, i] = val
    J.setflags(write=False)  # fresh, so IsingProblem adopts it
    b = np.zeros(n)
    for i, val in biases.items():
        b[i] = val
    return IsingProblem(J=J, b=b, **fields)


def _check_index(path, lineno: int, i: int) -> None:
    if i >= MAX_SPINS:
        raise ProblemFormatError(
            f"{path}:{lineno}: index {i} is at or above the cap of {MAX_SPINS} spins"
        )


@contextlib.contextmanager
def atomic_open(path):
    """Yield an ASCII text handle on ``<path>.tmp`` and rename the file
    over path when the block ends; a block that raises removes the
    temporary file and leaves path as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write(path, text: str) -> None:
    """Write ASCII text to path through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header: str, rows) -> None:
    """Write a CSV through :func:`atomic_write`: the header line, then
    one line per row, each field as ``str(value)`` and None as empty."""
    lines = [header] + [",".join("" if v is None else str(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def save_instance(p: IsingProblem, path, header_comments=()) -> None:
    """Write an Ising problem in the text coupling format.

    Floats are written with repr-level precision so a save/load round
    trip reproduces couplings exactly; zero entries (and -0.0) are not
    written, and a nonzero offset is written as a comment. The loader
    takes n from the largest index, so when the last spin has no
    coupling and no bias, n is written as a `# n:` comment. Lines go to
    the file a row of J at a time, so memory does not grow with n.
    """
    head = [f"# {comment}\n" for comment in header_comments]
    if p.ground_energy is not None:
        head.append(f"# ground_energy: {p.ground_energy!r}\n")
    if p.offset != 0.0:
        head.append(f"# offset: {p.offset!r}\n")
    if not (p.J[-1:].any() or p.b[-1:].any()):
        head.append(f"# n: {p.n}\n")
    with atomic_open(path) as fh:
        fh.write("".join(head))
        # one string per row: fewer write calls than one per line
        for i in range(p.n - 1):
            row = p.J[i, i + 1 :]
            cols = np.flatnonzero(row)
            if cols.size:
                lead = f"{i} "
                pairs = zip((cols + (i + 1)).tolist(), row[cols].tolist())
                fh.write("".join([f"{lead}{j} {v!r}\n" for j, v in pairs]))
        cols = np.flatnonzero(p.b)
        if cols.size:
            fh.write("".join([f"b {i} {v!r}\n" for i, v in zip(cols.tolist(), p.b[cols].tolist())]))
