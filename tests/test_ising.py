import contextlib
import copy
import dataclasses
import itertools
import math
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqa import (
    IsingProblem,
    ProblemFormatError,
    cut_value,
    load_instance,
    objective,
    qubo_to_ising,
    save_instance,
)
from lqa import ising
from lqa.generators import gen_random_pm1, gen_wishart
from lqa.ising import MAX_SPINS, _load_bulk, _load_lines, absorb_bias, normalize_ancilla
from conftest import random_symmetric


def all_binary(n):
    for bits in itertools.product([0, 1], repeat=n):
        yield np.array(bits, dtype=np.float64)


def qubo_objective(Q, a, x):
    return float(x @ Q @ x + x @ a)


class TestProblemInvariants:
    @pytest.mark.parametrize(
        "i, j, diagonal",
        [
            (10, 290, 0.0),
            (290, 10, 0.0),
            (0, 299, 0.0),
            (257, 299, 0.0),
            # an asymmetric pair wins over a nonzero diagonal
            (10, 290, 1.0),
        ],
        ids=["10-290", "290-10", "0-299", "257-299", "and-diagonal"],
    )
    def test_rejects_one_asymmetric_entry_past_the_first_tile(self, rng, i, j, diagonal):
        # n = 300 spans two 256-wide tiles; (257, 299) lies in the last diagonal one
        J = random_symmetric(300, rng)
        J[i, j] += 1.0
        J[299, 299] = diagonal
        with pytest.raises(ProblemFormatError, match="^J must be symmetric"):
            IsingProblem(J=J)

    def test_accepts_symmetric_matrix_spanning_several_tiles(self, rng):
        J = random_symmetric(600, rng)
        assert np.array_equal(IsingProblem(J=J).J, J)

    def test_rejects_nonzero_diagonal(self):
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ProblemFormatError, match="^J must have zero diagonal"):
            IsingProblem(J=J)

    def test_rejects_bad_bias_shape(self):
        with pytest.raises(ProblemFormatError):
            IsingProblem(J=np.zeros((2, 2)), b=np.zeros(3))

    @pytest.mark.parametrize("b", [None, np.zeros(0)], ids=["no-b", "empty-b"])
    def test_rejects_no_spins(self, b):
        # solve, save_instance and load_instance all need a spin
        with pytest.raises(ProblemFormatError, match="^J must have at least one spin$"):
            IsingProblem(J=np.zeros((0, 0)), b=b)

    @pytest.mark.parametrize("name", ["ground_energy", "offset"])
    def test_non_finite_scalar_named_as_python_float(self, name):
        with pytest.raises(ProblemFormatError, match=f"^non-finite {name} inf$"):
            IsingProblem(J=np.zeros((2, 2)), **{name: np.float64(np.inf)})

    @pytest.mark.parametrize(
        "derive",
        [lambda p: p, lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
        ids=["built", "pickle", "deepcopy"],
    )
    @pytest.mark.parametrize(
        "b, expected", [([0.0, 0.0], False), ([0.0, -0.5], True)], ids=["unbiased", "biased"]
    )
    def test_state_is_the_four_fields(self, derive, b, expected):
        p = derive(IsingProblem(J=np.zeros((2, 2)), b=b, ground_energy=-1.0))
        assert set(vars(p)) == {"J", "b", "offset", "ground_energy"}
        assert p.has_bias is expected

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: IsingProblem(J=np.zeros((2, 2))), False),
            (lambda: IsingProblem(J=np.zeros((2, 2)), b=np.zeros(2)), False),
            (lambda: IsingProblem(J=np.zeros((2, 2)), b=np.array([0.0, -0.5])), True),
            (lambda: qubo_to_ising(np.zeros((2, 2)), np.ones(2)), True),
            (lambda: qubo_to_ising(np.zeros((2, 2)), np.zeros(2)), False),
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
            lambda v: qubo_to_ising(np.array([[0.0, v], [v, 0.0]]), np.zeros(2)),
            lambda v: qubo_to_ising(np.zeros((2, 2)), np.array([v, 0.0])),
            lambda v: IsingProblem(J=np.zeros((2, 2)), ground_energy=v),
            lambda v: IsingProblem(J=np.zeros((2, 2)), offset=v),
            # n = 300: the entries lie in the second 256-row band
            lambda v: IsingProblem(J=np.pad([[0.0, v], [v, 0.0]], (298, 0))),
            lambda v: IsingProblem(J=np.zeros((300, 300)), b=np.pad([v], (299, 0))),
            # n = 300, entries in off-diagonal tiles: non-finite wins over
            # asymmetry, and a mirrored inf pair is symmetric
            lambda v: IsingProblem(J=_with_entries(300, {(290, 10): v})),
            lambda v: IsingProblem(J=_with_entries(300, {(0, 1): 1.0, (10, 290): v, (290, 10): v})),
            lambda v: IsingProblem(J=_with_entries(300, {(10, 290): v, (290, 10): v})),
            lambda v: qubo_to_ising(
                _with_entries(300, {(290, 10): 1.0, (299, 5): v}), np.zeros(300)
            ),
        ],
        ids=[
            "J", "b", "Q", "a", "ground_energy", "offset", "J-second-band", "b-second-band",
            "J-lower-tile-only", "J-asymmetric-and-non-finite", "J-mirrored-pair",
            "Q-asymmetric-and-non-finite",
        ],
    )
    def test_rejects_non_finite(self, make, bad):
        with pytest.raises(ProblemFormatError, match="non-finite"):
            make(bad)

    def test_arrays_are_immutable(self):
        p = IsingProblem(J=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.J[0, 1] = 1.0


def _with_entries(n, entries):
    """An n x n zero matrix with the given {(i, j): value} entries."""
    J = np.zeros((n, n))
    for (i, j), v in entries.items():
        J[i, j] = v
    return J


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class TestOwnership:
    """IsingProblem adopts a read-only float64 array that owns its data and
    copies anything else; its arrays are read-only in every case."""

    def test_writable_input_is_copied(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = IsingProblem(J=J)
        J[0, 1] = J[1, 0] = 5.0
        assert p.J is not J
        assert p.J[0, 1] == 1.0

    def test_read_only_owning_float64_is_adopted(self):
        J = _read_only(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert IsingProblem(J=J).J is J

    def test_validation_peak_memory_bounded(self):
        # an adopted J is checked a band of rows at a time, with no n x n
        # boolean temporary
        J = _read_only(np.array(gen_random_pm1(1000, 1).J))
        IsingProblem(J=_read_only(np.zeros((3, 3))))
        tracemalloc.start()
        try:
            IsingProblem(J=J)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= J.nbytes / 16

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _read_only(np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0]]))[:, :2],
            lambda: _read_only(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)),
            lambda: [[0.0, 1.0], [1.0, 0.0]],
        ],
        ids=["read-only-view", "float32", "nested-list"],
    )
    def test_other_inputs_are_copied(self, make):
        J = make()
        p = IsingProblem(J=J)
        assert p.J is not J
        assert p.J.dtype == np.float64 and p.J.flags.owndata
        assert np.array_equal(p.J, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "derive",
        [
            lambda p: p,
            lambda p: dataclasses.replace(p, offset=1.0),
            lambda p: pickle.loads(pickle.dumps(p)),
            lambda p: copy.deepcopy(p),
        ],
        ids=["built", "replace", "pickle", "deepcopy"],
    )
    @pytest.mark.parametrize(
        "J",
        [
            [[0.0, 1.0], [1.0, 0.0]],
            _read_only(np.array([[0.0, 1.0], [1.0, 0.0]])),
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32),
        ],
        ids=["list", "adopted", "float32"],
    )
    def test_arrays_read_only_in_every_case(self, J, derive):
        p = derive(IsingProblem(J=J, b=[0.5, 0.0]))
        assert not p.J.flags.writeable
        assert not p.b.flags.writeable
        assert p.has_bias
        with pytest.raises(ValueError):
            p.J[0, 1] = 2.0

    @pytest.mark.parametrize(
        "derive",
        [lambda q: pickle.loads(pickle.dumps(q)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_qubo_arrays_read_only_after_copy(self, derive):
        p = derive(qubo_to_ising(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)))
        assert not p.J.flags.writeable
        assert not p.b.flags.writeable
        with pytest.raises(ValueError):
            p.b[0] = 2.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda path: gen_random_pm1(5, 1),
            lambda path: gen_wishart(6, 1.0, 0).problem,
            lambda path: absorb_bias(IsingProblem(J=np.zeros((3, 3)), b=[1.0, 0.0, 0.0])),
            lambda path: qubo_to_ising(np.ones((3, 3)), np.zeros(3)),
            lambda path: _load_bulk(path),
            lambda path: _load_lines(path),
        ],
        ids=["gen_random_pm1", "gen_wishart", "absorb_bias", "qubo_to_ising", "bulk", "lines"],
    )
    def test_library_constructors_hand_over_j_without_copy(self, build, tmp_path, monkeypatch):
        path = tmp_path / "p.txt"
        path.write_text("0 1 0.5\n1 2 -1.0\nb 0 0.25\n")
        frozen = []
        real_freeze = ising._freeze

        def spy(arr):
            out = real_freeze(arr)
            frozen.append((out.ndim, out is arr))
            return out

        monkeypatch.setattr(ising, "_freeze", spy)
        build(path)
        # the last matrix frozen is the returned problem's J
        assert [adopted for ndim, adopted in frozen if ndim == 2][-1]


class TestAtomicWrite:
    """A write that raises leaves the previous file and no temporary file."""

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        ising.atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            ising.atomic_write(path, "new \u00e9\n")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_save_instance_keeps_previous_file(self, tmp_path):
        path = tmp_path / "p.txt"
        p = IsingProblem(J=np.array([[0.0, 0.5], [0.5, 0.0]]))
        save_instance(p, path)
        before = path.read_text()
        with pytest.raises(UnicodeEncodeError):
            save_instance(p, path, header_comments=["n\u00e9"])
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_block_raising_mid_stream_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        ising.atomic_write(path, "old\n")
        with pytest.raises(RuntimeError, match="stop"):
            with ising.atomic_open(path) as fh:
                fh.write("0 1 1.0\n" * 10000)
                fh.flush()
                assert os.path.getsize(f"{path}.tmp") == 80000
                raise RuntimeError("stop")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_save_instance_failing_mid_stream_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.txt"
        save_instance(IsingProblem(J=np.array([[0.0, 0.5], [0.5, 0.0]])), path)
        before = path.read_bytes()

        class FailingHandle:
            """Passes three writes through, then raises with rows on disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, text):
                if self.writes == 3:
                    self.fh.flush()
                    assert os.path.getsize(f"{path}.tmp") > 0
                    raise OSError("disk full")
                self.writes += 1
                return self.fh.write(text)

        real_open = ising.atomic_open

        @contextlib.contextmanager
        def failing_open(target):
            with real_open(target) as fh:
                yield FailingHandle(fh)

        monkeypatch.setattr(ising, "atomic_open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save_instance(gen_random_pm1(20, 1), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


_COEF = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0])
_INT_COEF = st.integers(-1000, 1000).map(float)


@st.composite
def _quadratic(draw, max_n=6, form="symmetric", coef=_COEF):
    """An n x n matrix and an n-vector, n <= max_n. The matrix is symmetric
    with zero diagonal, upper-triangular with its diagonal, or any square
    matrix, as form says."""
    n = draw(st.integers(1, max_n))

    def entries(size):
        return np.array(draw(st.lists(coef, min_size=size, max_size=size)), dtype=np.float64)

    if form == "general":
        M = entries(n * n).reshape(n, n)
    else:
        iu = np.triu_indices(n, k=1 if form == "symmetric" else 0)
        M = np.zeros((n, n))
        M[iu] = entries(len(iu[0]))
        if form == "symmetric":
            M.T[iu] = M[iu]
    return M, entries(n)


def _reduced_as_before(Q, a):
    """The reduction of a symmetric zero-diagonal Q, the only form accepted
    before a diagonal and an asymmetric Q were: J, b and offset."""
    return Q / 4.0, (a + Q @ np.ones(len(Q))) / 2.0, Q.sum() / 4.0 + a.sum() / 2.0


_OVERFLOW = r"^Q and a reduce to a non-finite bias or offset$"


class TestQuboToIsing:
    def test_zero_problem(self):
        p = qubo_to_ising(np.zeros((2, 2)), np.zeros(2))
        assert np.all(p.J == 0) and np.all(p.b == 0) and p.offset == 0

    def test_documented_small_case(self):
        Q, a = np.array([[0.0, 4.0], [4.0, 0.0]]), np.zeros(2)
        p = qubo_to_ising(Q, a)
        assert np.array_equal(p.J, [[0, 1], [1, 0]])
        assert np.array_equal(p.b, [2, 2])
        for x in all_binary(2):
            s = 2 * x - 1
            assert qubo_objective(Q, a, x) == pytest.approx(objective(p, s) + p.offset, abs=1e-12)

    @pytest.mark.parametrize(
        "Q, a",
        [
            # x0 + 2 x1 - 3 x0 x1, as a triangle with the linear terms on the diagonal
            ([[1.0, -3.0], [0.0, 2.0]], [0.0, 0.0]),
            # the same QUBO with its terms split otherwise between Q's
            # diagonal and a, and between the two triangles
            ([[0.0, -1.0], [-2.0, 0.0]], [1.0, 2.0]),
            ([[3.0, -1.5], [-1.5, -1.0]], [-2.0, 3.0]),
        ],
        ids=["triangle", "asymmetric", "symmetric-with-diagonal"],
    )
    def test_equal_qubos_reduce_to_one_problem(self, Q, a):
        p = qubo_to_ising(Q, a)
        assert np.array_equal(p.J, [[0.0, -0.375], [-0.375, 0.0]])
        assert np.array_equal(p.b, [-0.25, 0.25])
        assert p.offset == 0.75

    def test_opposite_entries_near_float_max_cancel(self):
        # Q^T - Q would overflow; the symmetric part is zero
        p = qubo_to_ising(np.array([[0.0, 1e308], [-1e308, 0.0]]), np.zeros(2))
        assert not p.J.any() and not p.b.any() and p.offset == 0.0

    def test_inputs_are_not_written(self):
        # read-only, so a write would raise
        qubo_to_ising(_read_only(np.array([[1.0, 2.0], [0.0, 3.0]])), _read_only(np.ones(2)))

    @pytest.mark.parametrize(
        "Q, a, message",
        [
            (np.zeros((2, 3)), np.zeros(2), r"^Q must be a square matrix, got shape \(2, 3\)$"),
            (np.zeros(4), np.zeros(4), r"^Q must be a square matrix, got shape \(4,\)$"),
            (np.zeros((2, 2)), np.zeros(3), r"^a has shape \(3,\), expected \(2,\)$"),
            (np.zeros((2, 2)), np.zeros((2, 1)), r"^a has shape \(2, 1\), expected \(2,\)$"),
            (np.zeros((0, 0)), np.zeros(0), r"^Q must have at least one variable$"),
            (np.diag([1.0, np.nan]), np.zeros(2), r"^Q has non-finite entries"),
            (np.zeros((2, 2)), np.array([0.0, -np.inf]), r"^a has non-finite entries"),
            # finite inputs whose reduced bias or offset overflows
            (np.full((3, 3), 1e308), np.zeros(3), _OVERFLOW),
            (np.zeros((2, 2)), np.array([1e308, 1e308]), _OVERFLOW),
            # a' = a + diag(Q) is +inf and Q'.1 is -inf, so b_0 is nan
            (_with_entries(3, {(0, 0): 1e308, (0, 1): -1e308, (1, 0): -1e308,
                               (0, 2): -1e308, (2, 0): -1e308}),
             np.array([1e308, 0.0, 0.0]), _OVERFLOW),
        ],
        ids=[
            "non-square-Q", "1-d-Q", "short-a", "2-d-a", "empty-Q", "non-finite-Q", "non-finite-a",
            "bias-overflows", "offset-overflows", "bias-is-inf-minus-inf",
        ],
    )
    def test_rejects_bad_input(self, Q, a, message):
        with pytest.raises(ProblemFormatError, match=message):
            qubo_to_ising(Q, a)

    def test_objective_identity_exhaustive(self, rng):
        n = 6
        Q, a = random_symmetric(n, rng, 3.0), rng.uniform(-2, 2, n)
        p = qubo_to_ising(Q, a)
        scale = np.abs(Q).sum() + np.abs(a).sum()
        for x in all_binary(n):
            s = 2 * x - 1
            assert qubo_objective(Q, a, x) == pytest.approx(
                objective(p, s) + p.offset, abs=1e-9 * scale
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(qa=st.sampled_from(["symmetric", "triangular", "general"]).flatmap(
        lambda form: _quadratic(form=form)
    ))
    def test_objective_identity_property(self, qa):
        Q, a = qa
        p = qubo_to_ising(Q, a)
        tol = 1e-12 * (np.abs(Q).sum() + np.abs(a).sum())
        for x in all_binary(len(Q)):
            assert abs(objective(p, 2 * x - 1) + p.offset - qubo_objective(Q, a, x)) <= tol

    @pytest.mark.parametrize("form", ["triangular", "general"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_objective_identity_exact_for_integer_q(self, form, data):
        # halves, quarters and eighths of integers: every sum is exact
        Q, a = data.draw(_quadratic(form=form, coef=_INT_COEF))
        p = qubo_to_ising(Q, a)
        for x in all_binary(len(Q)):
            assert objective(p, 2 * x - 1) + p.offset == qubo_objective(Q, a, x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(qa=_quadratic(max_n=12))
    def test_symmetric_zero_diagonal_q_reduces_as_before(self, qa):
        Q, a = qa
        p = qubo_to_ising(Q, a)
        J, b, offset = _reduced_as_before(Q, a)
        assert np.array_equal(p.J, J) and np.array_equal(p.b, b) and p.offset == offset

    @pytest.mark.parametrize(
        "make",
        [
            # 300 spans two validation tiles and a blocked matrix-vector product
            lambda rng: (random_symmetric(300, rng, 3.0), rng.uniform(-2, 2, 300)),
            # Q + Q^T would overflow; the rows and the sum cancel
            lambda rng: (_with_entries(3, {(0, 1): 1e308, (1, 0): 1e308, (0, 2): -1e308,
                                           (2, 0): -1e308}), np.zeros(3)),
        ],
        ids=["n-300", "near-float-max"],
    )
    def test_fixed_symmetric_q_reduces_as_before(self, rng, make):
        Q, a = make(rng)
        p = qubo_to_ising(Q, a)
        J, b, offset = _reduced_as_before(Q, a)
        assert np.array_equal(p.J, J) and np.array_equal(p.b, b) and p.offset == offset


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
        from lqa.oracle import brute_force_ground

        n = 8
        p = IsingProblem(J=random_symmetric(n, rng), b=rng.uniform(-1, 1, n))
        biased_min = min(objective(p, 2 * x - 1) for x in all_binary(n))
        e, minimisers = brute_force_ground(absorb_bias(p))
        assert e == pytest.approx(biased_min, abs=1e-9 * np.abs(p.J).sum())
        # every minimiser normalises to a config attaining the biased minimum
        for s in minimisers:
            stripped = normalize_ancilla(s)
            assert objective(p, stripped) == pytest.approx(e, abs=1e-9 * np.abs(p.J).sum())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(jb=_quadratic())
    def test_absorbed_objective_property(self, jb):
        # both sides sum the same terms in a different order, so equal up to rounding
        J, b = jb
        if not b.any():
            b[0] = 1.0
        p = IsingProblem(J=J, b=b)
        p2 = absorb_bias(p)
        tol = 1e-12 * (np.abs(J).sum() + np.abs(b).sum())
        for x in all_binary(p2.n):
            s = 2 * x - 1
            assert abs(objective(p2, s) - objective(p, normalize_ancilla(s))) <= tol


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

    def test_qubo_offset_round_trip(self, tmp_path):
        p = qubo_to_ising(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([3.0, -2.0]))
        assert p.offset == 1.0
        f = tmp_path / "p.txt"
        save_instance(p, f)
        assert "# offset: 1.0\n" in f.read_text()
        back = load_instance(f)
        assert back.offset == p.offset
        assert np.array_equal(back.J, p.J) and np.array_equal(back.b, p.b)

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
        from lqa.generators import gen_wishart

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

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = IsingProblem(J=J, offset=np.float64(0.5), ground_energy=np.float64(-2.0))
        assert type(p.offset) is float and type(p.ground_energy) is float
        f = tmp_path / "p.txt"
        save_instance(p, f)
        assert f.read_text() == "# ground_energy: -2.0\n# offset: 0.5\n0 1 1.0\n"
        back = load_instance(f)
        assert (back.offset, back.ground_energy) == (0.5, -2.0)

    def test_isolated_last_spin_round_trip(self, tmp_path):
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = 1.0
        f = tmp_path / "p.txt"
        save_instance(IsingProblem(J=J), f)
        assert f.read_text() == "# n: 4\n0 1 1.0\n"
        back = load_instance(f)
        assert back.n == 4 and np.array_equal(back.J, J)

    def test_last_n_comment_wins(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# n: 9\n0 1 1.0\n# n: 5\n")
        assert load_instance(f).n == 5

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# n: 1.5\n0 1 1.0\n", ":1: bad n value"),
            ("0 1 1.0\n# n: three\n", ":2: bad n value"),
            ("# n: 2\n0 3 1.0\n", ":1: n 2 is below the largest index \\+ 1, 4"),
            ("b 2 1.0\n# n: -1\n", ":2: n -1 is below the largest index \\+ 1, 3"),
            (f"0 1 1.0\n# n: {MAX_SPINS + 1}\n", f":2: n {MAX_SPINS + 1} is above the cap"),
        ],
    )
    def test_bad_n_comment_rejected(self, tmp_path, text, message):
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(ProblemFormatError, match=message):
            load_instance(f)

    def test_load_peak_memory_bounded(self, tmp_path):
        # the rows np.loadtxt returns and the arrays split from them are
        # alive while J is built; the index column is parsed a band of
        # rows at a time, not as a whole (which peaked at 5.06 times)
        save_instance(gen_random_pm1(3, 1), tmp_path / "warm.txt")
        load_instance(tmp_path / "warm.txt")
        save_instance(gen_random_pm1(1000, 1), tmp_path / "p.txt")
        tracemalloc.start()
        try:
            p = load_instance(tmp_path / "p.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * p.J.nbytes

    @pytest.mark.parametrize(
        "row, message", [("1 2 nan", "non-finite coupling nan"), ("b 1 -inf", "non-finite bias -inf")]
    )
    def test_non_finite_file_rejected_before_j_is_allocated(self, tmp_path, row, message):
        # the dense J of this file would take 4000**2 * 8 = 128 MB
        f = tmp_path / "p.txt"
        f.write_text(f"# n: 4000\n0 1 1.0\n{row}\n")
        with pytest.raises(ProblemFormatError):
            load_instance(f)  # warm-up
        tracemalloc.start()
        try:
            with pytest.raises(ProblemFormatError, match=f"^{re.escape(str(f))}:3: {message}$"):
                load_instance(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4000 * 4000 * 8 / 256

    def test_save_peak_memory_bounded(self, tmp_path):
        # one row's lines at a time, never the whole file
        save_instance(gen_random_pm1(3, 1), tmp_path / "warm.txt")
        p = gen_random_pm1(1000, 1)
        tracemalloc.start()
        try:
            save_instance(p, tmp_path / "p.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= p.J.nbytes / 8

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"# caf\xc3\xa9\n0 1 1.0\n", ":1: not ASCII text"),
            (b"0 1 1.0\r0 2 1.0\xff\r", ":2: not ASCII text"),
        ],
        ids=["utf-8-comment", "cr-only-latin-1"],
    )
    def test_non_ascii_line_rejected(self, tmp_path, data, message):
        f = tmp_path / "p.txt"
        f.write_bytes(data)
        with pytest.raises(ProblemFormatError, match=f"^{re.escape(str(f))}{message}$"):
            load_instance(f)

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on input without data
    @pytest.mark.parametrize("text", ["", "# ground_energy: 1.0\n", "\n \t\n", "# n: 0\n"])
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
        st.builds(lambda v: f"# offset: {v!r}", _FINITE),
        st.builds(lambda k: f"# n: {k}", st.integers(n, n + 3)),
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
    "-1 0 1.0",
    "1+ 2 1.0",
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
    "# offset: twelve",
    "# offset: nan",
    "#offset:-inf",
    "# n: 1.5",
    "# n: three",
    f"# n: {MAX_SPINS + 1}",
    "# caf\u00e9",
]
# Rows the line parser accepts in forms the well-formed files do not
# use: a first field too long for the bulk row type, digit separators and
# a signed zero, which the bulk pass leaves to the line parser, and a
# plus sign with leading zeros, which it reads itself.
_FALLBACK_ROWS = [
    "0000000000000000000005 6 1.0",
    "0 1_0 1.0",
    "1_1 0 1.0",
    "-0 6 1.0",
    "+007 6 1.0",
]


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
    except ProblemFormatError as exc:
        return type(exc).__name__, str(exc)
    return p.J.tobytes(), p.b.tobytes(), p.ground_energy, p.offset


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
        f.write_bytes(text.encode("utf-8"))
        assert _outcome(load_instance, f) == _outcome(_load_lines, f)

    @pytest.mark.parametrize(
        "text, value", [("0", 0), ("+0", 0), ("+007", 7), ("1234567", 1234567), ("+123456", 123456)]
    )
    def test_index_parse_reads_plain_decimals(self, text, value):
        assert ising._parse_index(np.array([b"5", text.encode()], dtype="S8")).tolist() == [5, value]

    # forms the line parser may accept or reject; the bulk pass leaves them to it
    @pytest.mark.parametrize("text", ["-0", "-1", "1_0", "+", "1+", "++1", " 1", "0x1", "", "12345678"])
    def test_index_parse_rejects_other_forms(self, text):
        with pytest.raises(ValueError, match="not a plain decimal"):
            ising._parse_index(np.array([b"5", text.encode()], dtype="S8"))

    def test_index_parse_across_bands(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ising, "_INDEX_BAND", 4)
        p = gen_random_pm1(7, 1)  # 21 couplings: six bands, the last one short
        save_instance(p, tmp_path / "p.txt")
        assert np.array_equal(_load_bulk(tmp_path / "p.txt").J, p.J)

    @pytest.mark.parametrize("name", ["p.gz", "p.bz2", "p.xz", "p.lzma"])
    def test_plain_file_with_a_compressed_suffix(self, tmp_path, name):
        # np.loadtxt would decompress a file it opened by such a name
        f = tmp_path / name
        f.write_text("0 1 1.0\nb 1 0.5\n")
        assert _outcome(_load_bulk, f) == _outcome(_load_lines, f)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=_malformed_file)
    def test_malformed_file_rejected_with_line_number(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("bad") / "p.txt"
        f.write_bytes(text.encode("utf-8"))
        with pytest.raises(ProblemFormatError, match=r"p\.txt:\d+: "):
            load_instance(f)

    # the property above draws a table row in only one of its branches, so
    # each row also gets a fixed file
    @pytest.mark.parametrize("row", _MALFORMED_ROWS)
    def test_each_malformed_row_named_by_line(self, tmp_path, row):
        f = tmp_path / "p.txt"
        f.write_text(f"# well-formed\n2 3 0.5\n{row}\nb 2 -1.0\n", encoding="utf-8")
        with pytest.raises(ProblemFormatError, match=f"^{re.escape(str(f))}:3: "):
            load_instance(f)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
        ground_energy=st.one_of(st.none(), _FINITE),
        offset=st.one_of(st.just(0.0), _FINITE),
    )
    def test_save_load_round_trip(self, tmp_path_factory, n, data, ground_energy, offset):
        values = data.draw(st.lists(_FINITE | st.just(0.0), min_size=n * n + n, max_size=n * n + n))
        J = np.triu(np.array(values[: n * n]).reshape(n, n), 1)
        J = J + J.T
        b = np.array(values[n * n :])
        p = IsingProblem(J=J, b=b, offset=offset, ground_energy=ground_energy)
        f = tmp_path_factory.mktemp("rt") / "p.txt"
        save_instance(p, f)
        back = load_instance(f)
        assert back.n == n
        assert np.array_equal(back.J, p.J)
        assert np.array_equal(back.b, p.b)
        assert back.ground_energy == ground_energy
        assert back.offset == offset
