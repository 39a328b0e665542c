import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqa import (
    IsingProblem,
    ProblemFormatError,
    QuboProblem,
    cut_value,
    load_instance,
    objective,
    qubo_to_ising,
    save_instance,
)
from lqa.ising import MAX_SPINS, _load_bulk, _load_lines, absorb_bias, normalize_ancilla
from conftest import random_symmetric


def all_binary(n):
    for bits in itertools.product([0, 1], repeat=n):
        yield np.array(bits, dtype=np.float64)


def qubo_objective(q, x):
    return float(x @ q.Q @ x + x @ q.a)


class TestProblemInvariants:
    def test_rejects_asymmetric_Q(self):
        Q = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ProblemFormatError, match="symmetric"):
            QuboProblem(Q=Q, a=np.zeros(2))

    def test_rejects_nonzero_diagonal(self):
        Q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ProblemFormatError, match="diagonal"):
            QuboProblem(Q=Q, a=np.zeros(2))

    def test_rejects_bad_bias_shape(self):
        with pytest.raises(ProblemFormatError):
            IsingProblem(J=np.zeros((2, 2)), b=np.zeros(3))

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: IsingProblem(J=np.zeros((2, 2))), False),
            (lambda: IsingProblem(J=np.zeros((2, 2)), b=np.zeros(2)), False),
            (lambda: IsingProblem(J=np.zeros((2, 2)), b=np.array([0.0, -0.5])), True),
            (lambda: qubo_to_ising(QuboProblem(Q=np.zeros((2, 2)), a=np.ones(2))), True),
            (lambda: qubo_to_ising(QuboProblem(Q=np.zeros((2, 2)), a=np.zeros(2))), False),
            (lambda: absorb_bias(IsingProblem(J=np.zeros((2, 2)), b=np.ones(2))), False),
            (lambda: dataclasses.replace(IsingProblem(J=np.zeros((2, 2))), b=np.ones(2)), True),
            (
                lambda: dataclasses.replace(
                    IsingProblem(J=np.zeros((2, 2)), b=np.ones(2)), b=np.zeros(2)
                ),
                False,
            ),
        ],
    )
    def test_has_bias(self, make, expected):
        p = make()
        assert p.has_bias is expected
        # pool workers receive pickled problems
        assert pickle.loads(pickle.dumps(p)).has_bias is expected

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: IsingProblem(J=np.array([[0.0, v], [v, 0.0]])),
            lambda v: IsingProblem(J=np.zeros((2, 2)), b=np.array([0.0, v])),
            lambda v: QuboProblem(Q=np.array([[0.0, v], [v, 0.0]]), a=np.zeros(2)),
            lambda v: QuboProblem(Q=np.zeros((2, 2)), a=np.array([v, 0.0])),
            lambda v: IsingProblem(J=np.zeros((2, 2)), ground_energy=v),
        ],
        ids=["J", "b", "Q", "a", "ground_energy"],
    )
    def test_rejects_non_finite(self, make, bad):
        with pytest.raises(ProblemFormatError, match="non-finite"):
            make(bad)

    def test_arrays_are_immutable(self):
        p = IsingProblem(J=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.J[0, 1] = 1.0


class TestQuboToIsing:
    def test_zero_problem(self):
        q = QuboProblem(Q=np.zeros((2, 2)), a=np.zeros(2))
        p = qubo_to_ising(q)
        assert np.all(p.J == 0) and np.all(p.b == 0) and p.offset == 0

    def test_documented_small_case(self):
        q = QuboProblem(Q=np.array([[0.0, 4.0], [4.0, 0.0]]), a=np.zeros(2))
        p = qubo_to_ising(q)
        assert np.array_equal(p.J, [[0, 1], [1, 0]])
        assert np.array_equal(p.b, [2, 2])
        for x in all_binary(2):
            s = 2 * x - 1
            assert qubo_objective(q, x) == pytest.approx(objective(p, s) + p.offset, abs=1e-12)

    def test_objective_identity_exhaustive(self, rng):
        n = 6
        q = QuboProblem(Q=random_symmetric(n, rng, 3.0), a=rng.uniform(-2, 2, n))
        p = qubo_to_ising(q)
        scale = np.abs(q.Q).sum() + np.abs(q.a).sum()
        for x in all_binary(n):
            s = 2 * x - 1
            assert qubo_objective(q, x) == pytest.approx(
                objective(p, s) + p.offset, abs=1e-9 * scale
            )


class TestAbsorbBias:
    def test_zero_bias_adds_disconnected_spin(self, rng):
        p = IsingProblem(J=random_symmetric(4, rng))
        p2 = absorb_bias(p)
        assert p2.n == 5
        assert np.all(p2.J[:4, 4] == 0)
        for s in all_binary(4):
            spins = 2 * s - 1
            assert objective(p2, np.append(spins, 1.0)) == pytest.approx(objective(p, spins))

    def test_small_biased_case(self):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.array([2.0, 0.0]))
        p2 = absorb_bias(p)
        assert not p2.has_bias
        for x in all_binary(2):
            s = 2 * x - 1
            assert objective(p2, np.append(s, 1.0)) == pytest.approx(objective(p, s))

    def test_minimum_preserved_by_oracle(self, rng):
        from lqa import brute_force_ground

        n = 8
        p = IsingProblem(J=random_symmetric(n, rng), b=rng.uniform(-1, 1, n))
        biased_min = min(objective(p, 2 * x - 1) for x in all_binary(n))
        e, minimisers = brute_force_ground(absorb_bias(p))
        assert e == pytest.approx(biased_min, abs=1e-9 * np.abs(p.J).sum())
        # every minimiser normalises to a config attaining the biased minimum
        for s in minimisers:
            stripped = normalize_ancilla(s)
            assert objective(p, stripped) == pytest.approx(e, abs=1e-9 * np.abs(p.J).sum())


class TestEnergy:
    def test_direct_values(self):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert objective(p, [1, 1]) == 2.0
        assert objective(p, [1, -1]) == -2.0

    def test_global_flip_symmetry(self, rng):
        p = IsingProblem(J=random_symmetric(9, rng))
        for _ in range(20):
            s = rng.choice([-1.0, 1.0], 9)
            assert objective(p, s) == objective(p, -s)

    def test_rejects_bad_shapes(self):
        p = IsingProblem(J=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            objective(p, [1, 1, 1])
        with pytest.raises(ValueError, match="exactly"):
            objective(p, [1, 0.5])


class TestCutValue:
    def edge_problem(self, w=1.0):
        # single edge of weight w: J = w/2 on both triangles
        return IsingProblem(J=np.array([[0.0, w / 2], [w / 2, 0.0]]))

    def test_cut_edge(self):
        p = self.edge_problem()
        assert cut_value(p, [1, -1], 1.0) == 1.0
        assert cut_value(p, [1, 1], 1.0) == 0.0

    def test_k4_matches_edge_counting(self):
        n = 4
        J = (np.ones((n, n)) - np.eye(n)) / 2.0
        p = IsingProblem(J=J)
        total = n * (n - 1) / 2
        for bits in itertools.product([-1.0, 1.0], repeat=n):
            s = np.array(bits)
            direct = sum(
                1 for i in range(n) for j in range(i + 1, n) if s[i] != s[j]
            )
            assert cut_value(p, s, total) == pytest.approx(direct)

    def test_unit_weight_cut_is_nonneg_integer(self, rng):
        n = 7
        w = rng.choice([0.0, 1.0], size=(n, n))
        w = np.triu(w, 1)
        J = (w + w.T) / 2.0
        p = IsingProblem(J=J)
        total = w.sum()
        for _ in range(30):
            s = rng.choice([-1.0, 1.0], n)
            c = cut_value(p, s, total)
            assert c >= 0
            assert c == round(c)


class TestInstanceFormat:
    def test_minimal_file(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 1.0\n")
        p = load_instance(f)
        assert p.n == 2
        assert p.J[0, 1] == p.J[1, 0] == 1.0

    def test_ground_energy_comment(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# ground_energy: -3.0\n0 1 1.0\n")
        assert load_instance(f).ground_energy == -3.0

    def test_bias_lines(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 -2.5\nb 0 1.5\n")
        p = load_instance(f)
        assert p.b[0] == 1.5 and p.b[1] == 0.0

    def test_crlf_accepted(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_bytes(b"0 1 1.0\r\n1 2 2.0\r\n")
        assert load_instance(f).n == 3

    def test_self_coupling_rejected(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 0 1.0\n")
        with pytest.raises(ProblemFormatError, match="self-coupling"):
            load_instance(f)

    def test_duplicate_pair_rejected_with_line_number(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 1.0\n1 0 2.0\n")
        with pytest.raises(ProblemFormatError, match=":2"):
            load_instance(f)

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 1 1.0\n0 two 3\n")
        with pytest.raises(ProblemFormatError, match=":2"):
            load_instance(f)

    def test_round_trip_exact(self, tmp_path, rng):
        from lqa import gen_wishart

        inst = gen_wishart(10, 0.8, 4)
        f = tmp_path / "w.txt"
        save_instance(inst.problem, f)
        back = load_instance(f)
        assert np.array_equal(back.J, inst.problem.J)
        assert back.ground_energy == inst.problem.ground_energy
        # second round trip is byte identical
        f2 = tmp_path / "w2.txt"
        save_instance(back, f2)
        assert f.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 inf\n", ":1: non-finite coupling inf"),
            ("0 1 1.0\n1 2 -inf\n", ":2: non-finite coupling -inf"),
            ("0 1 nan\n", ":1: non-finite coupling nan"),
            ("0 1 1e400\n", ":1: non-finite coupling 1e400"),
            ("0 1 1.0\nb 0 Infinity\n", ":2: non-finite bias Infinity"),
            ("b 1 nan\n0 1 1.0\n", ":1: non-finite bias nan"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, text, message):
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(ProblemFormatError, match=message):
            load_instance(f)

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input without data
    @pytest.mark.parametrize("text", ["", "# ground_energy: 1.0\n", "\n \t\n"])
    def test_file_without_data_rejected(self, tmp_path, text):
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(ProblemFormatError, match="no couplings or biases"):
            load_instance(f)

    # indices at or above the cap are rejected before J is allocated; a
    # test must never use an index that could actually allocate
    @pytest.mark.parametrize(
        "line, index",
        [
            (f"1 {2**40} 1.0", 2**40),
            (f"{2**40} 1 1.0", 2**40),
            (f"b {2**40} 1.0", 2**40),
            (f"0 {MAX_SPINS} 1.0", MAX_SPINS),
        ],
    )
    def test_index_above_cap_rejected(self, tmp_path, line, index):
        f = tmp_path / "p.txt"
        f.write_text(f"0 1 1.0\n{line}\n")
        with pytest.raises(
            ProblemFormatError, match=f":2: index {index} is at or above the cap of {MAX_SPINS}"
        ):
            load_instance(f)


# ---------------------------------------------------------------------------
# Bulk parser against the line-by-line reference
# ---------------------------------------------------------------------------

_SEPARATORS = st.text(alphabet=" \t", min_size=1, max_size=3)
_ODD_SEPARATORS = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f", min_size=1, max_size=3)
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _index_text(draw, i):
    return draw(st.sampled_from([str(i), f"+{i}", f"00{i}"]))


@st.composite
def _value_text(draw):
    v = draw(_FINITE)
    text = draw(st.sampled_from([repr(v), f"{v:g}", f"{v:.3e}", f"{v:+.17g}"]))
    # rounding the largest floats to fewer digits can overflow to inf
    return text if math.isfinite(float(text)) else repr(v)


@st.composite
def _instance_lines(draw, separators=_SEPARATORS):
    """Data, comment and blank lines of a well-formed file, in any order."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    biased = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    if not (chosen or biased):
        chosen = [pairs[0]]

    def row(*fields):
        lead = draw(st.sampled_from(["", " ", "\t"]))
        return lead + "".join(f + draw(separators) for f in fields[:-1]) + fields[-1]

    lines = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        lines.append(row(draw(_index_text(i)), draw(_index_text(j)), draw(_value_text())))
    for i in biased:
        lines.append(row("b", draw(_index_text(i)), draw(_value_text())))
    comments = st.one_of(
        st.just("# a comment"),
        st.just("#"),
        st.builds(lambda v: f" # ground_energy: {v!r}", _FINITE),
        st.builds(lambda v: f"#ground_energy:{v!r} ", _FINITE),
    )
    lines += draw(st.lists(comments, max_size=3))
    lines += draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))
    return draw(st.permutations(lines))


def _join(draw, lines):
    text = "".join(line + draw(_NEWLINES) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def _wellformed_file(draw):
    return _join(draw, draw(_instance_lines()))


# Each malformed row is a defect the line parser rejects wherever it appears.
_MALFORMED_ROWS = [
    "0 1",
    "0 1 2.0 3",
    "1.0 2 3.0",
    "0 1.0 3.0",
    "b 1.0 3.0",
    "0 1 2.0 # inline",
    "0 1 2.0#",
    "0 -1 2.0",
    "b -1 2.0",
    "3 3 1.0",
    "0 1 inf",
    "0 1 -inf",
    "0 1 nan",
    "b 0 nan",
    "0 1 1e400",
    f"0 {2**40} 1.0",
    f"b {2**40} 1.0",
    "0\x001 1.0",
    "0 1 1.0\x00",
    "x 1 1.0",
    "B 1 1.0",
    "# ground_energy: twelve",
    "# ground_energy: nan",
    "# ground_energy: inf",
]
# Rows the line parser accepts but the bulk pass leaves to it: a first
# field too long for the bulk row type, and digit separators.
_FALLBACK_ROWS = ["0000000000000000000005 6 1.0", "0 1_0 1.0", "1_1 0 1.0"]


@st.composite
def _edited_file(draw, rows):
    """A well-formed file with one row from `rows`, or a repeated pair or
    bias, inserted anywhere."""
    lines = list(draw(_instance_lines(separators=_ODD_SEPARATORS)))
    defect = draw(
        st.one_of(
            st.sampled_from(rows),
            # a second coupling for a pair or a second bias for a spin
            st.sampled_from([line for line in lines if line.strip()[:1].isdigit()] or ["3 3 0"])
            .map(lambda line: " ".join(reversed(line.split()[:2])) + " 1.0"),
            st.sampled_from([line for line in lines if line.strip().startswith("b")] or ["3 3 0"]),
        )
    )
    lines.insert(draw(st.integers(0, len(lines))), defect)
    return _join(draw, lines)


_malformed_file = _edited_file(_MALFORMED_ROWS)


def _outcome(load, path):
    try:
        p = load(path)
    except (ProblemFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return p.J.tobytes(), p.b.tobytes(), p.ground_energy


class TestBulkParser:
    # the fixed example sequence keeps the suite reproducible
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_wellformed_file())
    def test_bulk_equals_line_parser(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("bulk") / "p.txt"
        f.write_bytes(text.encode("ascii"))
        assert _outcome(_load_bulk, f) == _outcome(_load_lines, f)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_edited_file(_MALFORMED_ROWS + _FALLBACK_ROWS))
    def test_load_instance_equals_line_parser(self, tmp_path_factory, text):
        """Whatever the bulk pass accepts, it reads as the line parser does;
        a file it rejects goes to the line parser, whose error names the line."""
        f = tmp_path_factory.mktemp("any") / "p.txt"
        f.write_bytes(text.encode("ascii"))
        assert _outcome(load_instance, f) == _outcome(_load_lines, f)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_malformed_file)
    def test_malformed_file_rejected_with_line_number(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("bad") / "p.txt"
        f.write_bytes(text.encode("ascii"))
        with pytest.raises(ProblemFormatError, match=r"p\.txt:\d+: "):
            load_instance(f)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
        ground_energy=st.one_of(st.none(), _FINITE),
    )
    def test_save_load_round_trip(self, tmp_path_factory, n, data, ground_energy):
        values = data.draw(st.lists(_FINITE | st.just(0.0), min_size=n * n + n, max_size=n * n + n))
        J = np.triu(np.array(values[: n * n]).reshape(n, n), 1)
        J = J + J.T
        b = np.array(values[n * n :])
        if not (J.any() or b.any()):
            b[0] = 1.0  # an all-zero problem writes no data lines
        p = IsingProblem(J=J, b=b, ground_energy=ground_energy)
        f = tmp_path_factory.mktemp("rt") / "p.txt"
        save_instance(p, f)
        back = load_instance(f)
        # zero entries are not written, so the loaded problem may be
        # smaller when the trailing spins are isolated
        assert back.n <= n
        assert np.array_equal(back.J, p.J[: back.n, : back.n])
        assert np.array_equal(back.b, p.b[: back.n])
        assert not p.J[back.n :].any() and not p.b[back.n :].any()
        assert back.ground_energy == ground_energy
