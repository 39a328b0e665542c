import tracemalloc

import numpy as np
import pytest

from lqa import (
    brute_force_ground,
    gen_random_pm1,
    gen_wishart,
    objective,
)
from lqa import generators
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

    # a band of one row needs n above half the draw budget, so the budget is
    # shrunk for those cases; at the real budget, n=257 bands 255 rows and
    # leaves one row for a second band
    @pytest.mark.parametrize(
        "band_entries, n",
        [(None, 2), (None, 3), (None, 256), (None, 257), (16, 17), (64, 12)],
        ids=["2", "3", "256", "257-one-past-band", "17-one-row-bands", "12-one-past-band"],
    )
    def test_matches_single_draw(self, monkeypatch, band_entries, n):
        # the reference is one rng.choice draw, filled row by row and mirrored
        rng = np.random.default_rng(n)
        vals = rng.choice([-1.0, 1.0], size=n * (n - 1) // 2)
        J = np.zeros((n, n))
        start = 0
        for i in range(n - 1):
            stop = start + n - 1 - i
            J[i, i + 1 :] = vals[start:stop]
            start = stop
        if band_entries:
            monkeypatch.setattr(generators, "_BAND_ENTRIES", band_entries)
        assert gen_random_pm1(n, n).J.tobytes() == (J + J.T).tobytes()

    def test_peak_memory_bounded(self):
        # J itself and one fixed-size band of draws; no draw of the whole
        # triangle, index arrays or second copy of J
        gen_random_pm1(3, 1)
        tracemalloc.start()
        try:
            p = gen_random_pm1(1000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * p.J.nbytes


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
