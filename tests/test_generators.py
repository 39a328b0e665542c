import numpy as np
import pytest

from lqa import (
    brute_force_ground,
    gen_random_pm1,
    gen_wishart,
    objective,
)
from lqa.oracle import single_flip_stable

# every seed form numpy's default_rng takes
SEEDS = [4, np.random.SeedSequence(4), None]
SEED_IDS = ["int", "seed-sequence", "none"]


class TestRandomPm1:
    def test_two_spins(self):
        p = gen_random_pm1(2, 0)
        assert p.J[0, 1] == p.J[1, 0]
        assert p.J[0, 1] in (-1.0, 1.0)

    def test_structure_at_scale(self):
        n = 2000
        p = gen_random_pm1(n, 1)
        off = p.J[np.triu_indices(n, k=1)]
        assert off.shape == (n * (n - 1) // 2,)
        assert np.all(np.abs(off) == 1.0)
        assert np.all(np.diagonal(p.J) == 0.0)
        assert np.array_equal(p.J, p.J.T)
        # both signs occur in roughly equal measure
        assert 0.45 < np.mean(off == 1.0) < 0.55

    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    def test_seed_determinism(self, seed):
        # a given seed repeats its draw; None draws fresh entropy each call
        same = np.array_equal(gen_random_pm1(40, seed).J, gen_random_pm1(40, seed).J)
        assert same == (seed is not None)
        assert not np.array_equal(gen_random_pm1(40, 7).J, gen_random_pm1(40, 8).J)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_random_pm1(1, 0)


class TestWishart:
    def test_planted_energy_is_ground_energy(self):
        inst = gen_wishart(60, 0.8, 3)
        e = objective(inst.problem, inst.planted)
        assert e == pytest.approx(inst.problem.ground_energy, rel=1e-9)

    def test_flip_symmetry(self):
        inst = gen_wishart(30, 0.5, 5)
        assert objective(inst.problem, -inst.planted) == objective(inst.problem, inst.planted)

    def test_planted_is_unique_minimum_pair(self):
        inst = gen_wishart(12, 1.0, 0)
        _, mins = brute_force_ground(inst.problem)
        assert sorted(tuple(s) for s in mins) == sorted(
            [tuple(inst.planted), tuple(-inst.planted)]
        )

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.1])
    def test_planted_single_flip_stable_at_scale(self, alpha):
        inst = gen_wishart(500, alpha, 17)
        assert single_flip_stable(inst.problem, inst.planted)

    def test_matrix_invariants(self):
        p = gen_wishart(40, 0.7, 9).problem
        assert np.array_equal(p.J, p.J.T)
        assert np.all(np.diagonal(p.J) == 0.0)

    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    def test_seed_determinism(self, seed):
        a = gen_wishart(25, 0.6, seed)
        b = gen_wishart(25, 0.6, seed)
        assert np.array_equal(a.problem.J, b.problem.J) == (seed is not None)
        assert np.array_equal(a.planted, b.planted) == (seed is not None)

    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError, match="columns"):
            gen_wishart(4, 0.05, 0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_wishart(1, 1.0, 0)
        with pytest.raises(ValueError):
            gen_wishart(10, -1.0, 0)

    def test_oracle_verified_over_seeds(self):
        # compact version of the generator-soundness sweep (the full
        # grid runs in the acceptance suite)
        for seed in range(5):
            inst = gen_wishart(10, 0.5, seed)
            _, mins = brute_force_ground(inst.problem)
            assert sorted(tuple(s) for s in mins) == sorted(
                [tuple(inst.planted), tuple(-inst.planted)]
            )
