import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from lqa import (
    IsingProblem,
    ProblemFormatError,
    QuboProblem,
    absorb_bias,
    cut_value,
    energy,
    load_instance,
    normalize_ancilla,
    objective,
    qubo_to_ising,
    save_instance,
)
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
            assert energy(p2, np.append(spins, 1.0)) == pytest.approx(energy(p, spins))

    def test_small_biased_case(self):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.array([2.0, 0.0]))
        p2 = absorb_bias(p)
        assert not p2.has_bias
        for x in all_binary(2):
            s = 2 * x - 1
            assert energy(p2, np.append(s, 1.0)) == pytest.approx(objective(p, s))

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
        assert energy(p, [1, 1]) == 2.0
        assert energy(p, [1, -1]) == -2.0

    def test_global_flip_symmetry(self, rng):
        p = IsingProblem(J=random_symmetric(9, rng))
        for _ in range(20):
            s = rng.choice([-1.0, 1.0], 9)
            assert energy(p, s) == energy(p, -s)

    def test_rejects_bias_and_bad_shapes(self):
        p = IsingProblem(J=np.zeros((2, 2)), b=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="bias"):
            energy(p, [1, 1])
        p = IsingProblem(J=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            energy(p, [1, 1, 1])
        with pytest.raises(ValueError, match="exactly"):
            energy(p, [1, 0.5])


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
