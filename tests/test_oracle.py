import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqa import IsingProblem, objective
from lqa.oracle import brute_force_ground
from conftest import random_ising, random_symmetric, single_flip_stable


def naive_ground(p):
    best = np.inf
    minimisers = []
    for bits in itertools.product([-1.0, 1.0], repeat=p.n):
        s = np.array(bits)
        e = objective(p, s)
        if e < best:
            best, minimisers = e, [s]
        elif e == best:
            minimisers.append(s)
    return best, minimisers


class TestBruteForce:
    def test_antiferromagnetic_pair(self):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]))
        e, mins = brute_force_ground(p)
        assert e == -2.0
        assert [tuple(s) for s in mins] == [(-1.0, 1.0), (1.0, -1.0)]

    def test_ferromagnetic_pair(self):
        p = IsingProblem(J=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        e, mins = brute_force_ground(p)
        assert e == -2.0
        assert [tuple(s) for s in mins] == [(-1.0, -1.0), (1.0, 1.0)]

    @pytest.mark.parametrize(
        "n, biased",
        [(1, False), (3, False), (6, False), (10, False),
         (1, True), (3, True), (6, True), (10, True)],
        ids=["1", "3", "6", "10", "1-biased", "3-biased", "6-biased", "10-biased"],
    )
    def test_matches_naive_enumeration(self, n, biased, rng):
        b = rng.uniform(-1, 1, n) if biased else None
        p = IsingProblem(J=random_symmetric(n, rng), b=b)
        e, mins = brute_force_ground(p)
        e_ref, mins_ref = naive_ground(p)
        assert e == e_ref
        assert sorted(tuple(s) for s in mins) == sorted(tuple(s) for s in mins_ref)

    def test_minimisers_come_in_flip_pairs(self, rng):
        p = random_ising(8, rng)
        e, mins = brute_force_ground(p)
        keys = {tuple(s) for s in mins}
        assert all(tuple(-s) in keys for s in mins)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 9),
        kind=st.sampled_from(["uniform", "ternary", "zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unbiased_half_enumeration_property(self, n, kind, seed):
        # without a bias only the configurations with s_n = +1 are
        # enumerated, and their negations supply the rest; ternary
        # couplings tie many minimisers, zero couplings tie all 2^n
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            J = random_symmetric(n, rng)
        else:
            J = np.zeros((n, n))
            if kind == "ternary":
                iu = np.triu_indices(n, k=1)
                J[iu] = rng.integers(-1, 2, len(iu[0])).astype(np.float64)
                J.T[iu] = J[iu]
        p = IsingProblem(J=J)
        _, mins = brute_force_ground(p)
        keys = [tuple(s) for s in mins]
        assert keys == sorted(tuple(s) for s in naive_ground(p)[1])
        assert len(set(keys)) == len(keys)
        assert {tuple(-s) for s in mins} == set(keys)

    def test_wishart_planted_recovered(self):
        from lqa.generators import gen_wishart

        inst = gen_wishart(12, 1.0, 7)
        e, mins = brute_force_ground(inst.problem)
        assert sorted(tuple(s) for s in mins) == sorted(
            [tuple(inst.planted), tuple(-inst.planted)]
        )

    def test_cap_enforced(self):
        p = IsingProblem(J=np.zeros((25, 25)))
        with pytest.raises(ValueError, match=r"^brute force capped at 24 spins \(got 25\)$"):
            brute_force_ground(p)

    @pytest.mark.parametrize("biased", [False, True], ids=["unbiased", "biased"])
    def test_peak_memory_bounded_at_cap(self, biased, rng):
        # fixed-size blocks keep the peak near 2 MiB; one 2^12 x 2^12 energy
        # block alone would be 128 MiB. The unbiased problem enumerates half
        # the configurations, the biased one all of them
        b = rng.uniform(-1, 1, 24) if biased else None
        p = IsingProblem(J=random_symmetric(24, rng), b=b)
        tracemalloc.start()
        try:
            brute_force_ground(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_peak_memory_near_result_when_degenerate(self):
        # all 2^16 configurations tie, so the result dominates: joining,
        # negating and sorting it peaks at about 2.7 times its size
        p = IsingProblem(J=np.zeros((16, 16)))
        tracemalloc.start()
        try:
            _, mins = brute_force_ground(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mins.shape == (2**16, 16)
        assert peak <= 3 * mins.nbytes

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowed_energies_give_no_minimiser(self):
        # inf + -inf makes every energy block's minimum nan
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = 1e308
        J[2, 3] = J[3, 2] = -1e308
        e, mins = brute_force_ground(IsingProblem(J=J))
        assert e == np.inf
        assert mins.shape == (0, 4)

    def test_lower_bounds_any_solver_output(self, rng):
        from lqa import SolverConfig, anneal
        from lqa.solver import init_weights

        p = random_ising(12, rng)
        e0, _ = brute_force_ground(p)
        cfg = SolverConfig(steps=100, gamma=1.0, step_size=0.1, optimizer="adam")
        s, _ = anneal(p, cfg, init_weights(12, 0.1, 1))
        assert e0 <= objective(p, s) + 1e-12


class TestSingleFlipStable:
    def test_global_minimiser_is_stable(self, rng):
        p = random_ising(9, rng)
        _, mins = brute_force_ground(p)
        assert all(single_flip_stable(p, s) for s in mins)

    def test_unstable_config(self):
        p = IsingProblem(J=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert not single_flip_stable(p, [1.0, -1.0])

    def test_agrees_with_full_reevaluation(self, rng):
        for k in range(20):
            b = rng.uniform(-1, 1, 10) if k >= 10 else None
            p = IsingProblem(J=random_symmetric(10, rng), b=b)
            s = rng.choice([-1.0, 1.0], 10)
            e = objective(p, s)
            naive = all(
                objective(p, np.where(np.arange(10) == i, -s, s)) >= e - 1e-9
                for i in range(10)
            )
            assert single_flip_stable(p, s) == naive

    def test_flip_delta_identity(self, rng):
        # -4 s_i h_i equals the exact energy change of flipping spin i
        p = random_ising(11, rng)
        s = rng.choice([-1.0, 1.0], 11)
        h = p.J @ s
        for i in range(11):
            flipped = s.copy()
            flipped[i] = -flipped[i]
            delta = objective(p, flipped) - objective(p, s)
            assert delta == pytest.approx(-4 * s[i] * h[i], abs=1e-9 * np.abs(p.J).sum())
