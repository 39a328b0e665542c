import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from lqa import (
    IsingProblem,
    SolverConfig,
    SolverError,
    anneal,
    cost,
    gradient,
    objective,
    solve,
)
from lqa.oracle import brute_force_ground
from lqa.solver import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    HALF_PI,
    TrialTrace,
    init_weights,
    spin_readout,
    update_adam,
    update_momentum,
)
from conftest import finite_difference_gradient, random_ising, random_symmetric


def gradient_reference(p, w, t, gamma):
    """The gradient as one expression: the in-place gradient must give
    its bits."""
    th = np.tanh(w)
    theta = HALF_PI * th
    z, x = np.sin(theta), np.cos(theta)
    return HALF_PI * (t * gamma * 2.0 * (p.J @ z) * x + (1.0 - t) * z) * (1.0 - th * th)


def update_adam_reference(w, m1, m2, grad, eta, k):
    """Adam's step as one expression per line, the bits the Adam goldens
    were recorded with: ``update_adam`` must keep them."""
    m1 *= ADAM_BETA1
    m1 += (1.0 - ADAM_BETA1) * grad
    m2 *= ADAM_BETA2
    m2 += (1.0 - ADAM_BETA2) * grad * grad
    m1_hat = m1 / (1.0 - ADAM_BETA1**k)
    m2_hat = m2 / (1.0 - ADAM_BETA2**k)
    w -= eta * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
    return m2_hat


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCost:
    def test_origin_at_t0_is_minus_n(self, rng):
        p = random_ising(7, rng)
        assert cost(p, np.zeros(7), 0.0, 0.5) == pytest.approx(-7.0)

    def test_origin_at_t1_is_zero(self, rng):
        p = random_ising(7, rng)
        assert cost(p, np.zeros(7), 1.0, 0.5) == pytest.approx(0.0)

    def test_saturated_limit_matches_energy(self, rng):
        p = random_ising(10, rng)
        w = 20.0 * rng.choice([-1.0, 1.0], 10)
        e = objective(p, np.sign(w))
        gamma = 0.7
        assert cost(p, w, 1.0, gamma) == pytest.approx(gamma * e, rel=1e-6)


class TestGradient:
    def test_zero_at_origin(self, rng):
        # the transverse-field minimum becomes a saddle: gradient is
        # identically zero there for every problem, t and gamma
        for n in (3, 11):
            p = random_ising(n, rng)
            for t in (0.0, 0.4, 1.0):
                assert np.all(gradient(p, np.zeros(n), t, 2.0) == 0.0)

    def test_matches_finite_differences(self, rng):
        p = random_ising(50, rng)
        w = rng.normal(size=50)
        g = gradient(p, w, 0.37, 1.3)
        fd = finite_difference_gradient(p, w, 0.37, 1.3)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-5

    def test_single_spin_closed_form(self):
        p = IsingProblem(J=np.zeros((1, 1)))
        for w0, t in [(0.3, 0.2), (-1.1, 0.8), (2.5, 0.5)]:
            g = gradient(p, np.array([w0]), t, 1.0)[0]
            th = math.tanh(w0)
            # derivative of -(1-t)cos((pi/2) tanh w)
            expected = (
                (math.pi / 2)
                * (1 - t)
                * math.sin(math.pi / 2 * th)
                * (1 - th * th)
            )
            assert g == pytest.approx(expected, rel=1e-12)


class TestInPlaceBits:
    """The in-place gradient gives the bits of its one-line form above,
    and ``update_adam`` those of its reference, over steps and scales."""

    @pytest.mark.parametrize("t", [0.0, 1 / 3, 1.0])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.7])
    def test_gradient(self, t, gamma, rng):
        p = random_ising(20, rng)
        w = rng.normal(scale=3.0, size=20)
        # tanh(w) is +-1 for |w| >= 20; and both signed zeros
        w[:6] = [20.0, -20.0, 35.5, -1e3, 0.0, -0.0]
        w_before = w.copy()
        g = gradient(p, w, t, gamma)
        assert_same_bits(g, gradient_reference(p, w, t, gamma))
        assert_same_bits(w, w_before)
        assert not np.shares_memory(g, w)

    @pytest.mark.parametrize("eta", [0.3, np.array(0.3)], ids=["float", "0-d"])
    def test_update_adam(self, eta, rng):
        w, m1, m2 = rng.normal(size=20), np.zeros(20), np.zeros(20)
        ref = w.copy(), m1.copy(), m2.copy()
        for k in range(1, 60):
            g = rng.normal(size=20, scale=10.0 ** rng.integers(-3, 4))
            g[:2] = [0.0, -0.0]
            m2_hat = update_adam(w, m1, m2, g, eta, k)
            m2_hat_ref = update_adam_reference(*ref, g, 0.3, k)
            for a, b in zip((w, m1, m2, m2_hat), (*ref, m2_hat_ref)):
                assert_same_bits(a, b)


class TestUpdaters:
    # plain descent is momentum at mu = 0: w <- w - eta * grad, exactly
    def test_vanilla_zero_grad_noop(self):
        w = np.ones(3)
        update_momentum(w, np.zeros(3), np.zeros(3), 0.5, 0.0)
        np.testing.assert_array_equal(w, np.ones(3))

    def test_vanilla_step(self):
        w = np.zeros(3)
        update_momentum(w, np.zeros(3), np.ones(3), 0.5, 0.0)
        np.testing.assert_array_equal(w, -0.5 * np.ones(3))

    def test_vanilla_linearity(self, rng):
        # dyadic gradients and step size keep every sum exact
        g1, g2 = rng.integers(-8, 9, size=4) / 4.0, rng.integers(-8, 9, size=4) / 4.0
        a, v = np.zeros(4), np.zeros(4)
        update_momentum(a, v, g1, 0.5, 0.0)
        update_momentum(a, v, g2, 0.5, 0.0)
        b = np.zeros(4)
        update_momentum(b, np.zeros(4), g1 + g2, 0.5, 0.0)
        np.testing.assert_array_equal(a, b)

    def test_momentum_zero_mu_is_vanilla(self, rng):
        # at mu = 0 the previous velocity is dropped
        g, w0 = rng.normal(size=5), rng.normal(size=5)
        w = w0.copy()
        update_momentum(w, rng.normal(size=5), g, 0.2, 0.0)
        np.testing.assert_array_equal(w, w0 - 0.2 * g)

    def test_momentum_first_step(self, rng):
        g = rng.normal(size=5)
        w, v = np.zeros(5), np.zeros(5)
        update_momentum(w, v, g, 0.4, 0.99)
        np.testing.assert_allclose(v, -0.4 * g)
        np.testing.assert_allclose(w, -0.4 * g)

    def test_momentum_geometric_series(self):
        # constant gradient: v_k = -eta*g*(1 - mu^k)/(1 - mu)
        g = np.array([1.0])
        eta, mu, k = 0.1, 0.99, 40
        w, v = np.zeros(1), np.zeros(1)
        for _ in range(k):
            update_momentum(w, v, g, eta, mu)
        expected = -eta * (1 - mu**k) / (1 - mu)
        assert v[0] == pytest.approx(expected, rel=1e-12)

    def test_adam_zero_grad_noop(self):
        w = np.ones(3)
        update_adam(w, np.zeros(3), np.zeros(3), np.zeros(3), 0.5, 1)
        assert np.array_equal(w, np.ones(3))

    def test_adam_first_step_formula(self, rng):
        # at k=1 bias correction cancels: step is eta*g/(|g| + eps')
        g = rng.normal(size=6)
        eta, eps = 0.3, 1e-8
        w = np.zeros(6)
        update_adam(w, np.zeros(6), np.zeros(6), g, eta, 1)
        expected = -eta * g / (np.abs(g) + eps)
        np.testing.assert_allclose(w, expected, rtol=1e-10)

    def test_adam_bounded_update(self, rng):
        eta = 0.25
        w, m1, m2 = np.zeros(8), np.zeros(8), np.zeros(8)
        for k in range(1, 200):
            before = w.copy()
            update_adam(w, m1, m2, rng.normal(size=8, scale=10.0 ** rng.integers(-3, 4)), eta, k)
            assert np.all(np.abs(w - before) <= eta * 1.2)


class TestTrialTrace:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        TrialTrace([5, 10], [0.5, 1.0], [0.1 + 0.2, -2.0], [-3.0, 1e-20]).write_csv(path)
        assert path.read_text() == (
            "step,t,cost,energy\n5,0.5,0.30000000000000004,-3.0\n10,1.0,-2.0,1e-20\n"
        )

    def test_failed_write_csv_keeps_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        TrialTrace([1, 2], [0.5, 1.0], [-1.0, -2.0], [-3.0, -4.0]).write_csv(path)
        before = path.read_text()
        assert before.count("\n") == 3
        # the second row's field is not ASCII, so writing it raises
        with pytest.raises(UnicodeEncodeError):
            TrialTrace([1, "\u00e9"], [0.5, 1.0], [-1.0, -2.0], [-3.0, -4.0]).write_csv(path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]


class TestInitWeights:
    def test_zero_scale(self):
        assert np.all(init_weights(10, 0.0, 1) == 0.0)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(init_weights(50, 0.1, 9), init_weights(50, 0.1, 9))

    def test_uniform_statistics(self):
        n = 100_000
        w = init_weights(n, 0.25, 3)
        assert np.max(np.abs(w)) <= 0.25
        # mean of U[-s, s] has std s/sqrt(3n)
        assert abs(w.mean()) < 3 * 0.25 / math.sqrt(3 * n)


class TestAnneal:
    def test_two_spin_ground_state(self):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = SolverConfig(steps=200, gamma=1.0, step_size=0.1, momentum=0.9, optimizer="momentum")
        s, _ = anneal(p, cfg, init_weights(2, 0.1, 0))
        assert objective(p, s) == -2.0

    def test_stays_at_saddle_without_momentum(self, rng):
        p = random_ising(20, rng)
        cfg = SolverConfig(steps=100, gamma=1.0, step_size=0.1, momentum=0.0, optimizer="vanilla")
        s, trace = anneal(p, SolverConfig(**{**cfg.__dict__, "trace_stride": 1}), np.zeros(20))
        assert np.all(s == 1.0)  # sign(0) -> +1
        assert all(c == pytest.approx(-(1 - t) * 20) for t, c in zip(trace.ts, trace.costs))

    def test_bitwise_determinism(self, rng):
        p = random_ising(30, rng)
        cfg = SolverConfig(steps=150, gamma=0.5, step_size=0.5, optimizer="adam", trace_stride=1)
        w0 = init_weights(30, 0.1, 2)
        s1, t1 = anneal(p, cfg, w0)
        s2, t2 = anneal(p, cfg, w0)
        assert np.array_equal(s1, s2)
        assert t1.costs == t2.costs and t1.energies == t2.energies

    def test_readout_scale_invariance(self, rng):
        w = rng.normal(size=25)
        scale = rng.uniform(0.1, 10.0, size=25)
        np.testing.assert_array_equal(spin_readout(w), spin_readout(w * scale))

    @pytest.mark.filterwarnings("error")  # the SolverError is the only report
    @pytest.mark.parametrize("optimizer", ["vanilla", "momentum", "adam"])
    def test_nonfinite_abort_names_step(self, optimizer):
        # three mutually coupled 1e308 spins: near saturation each row of
        # J @ z sums two terms near 1e308 and overflows in the first gradient
        J = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        cfg = SolverConfig(steps=10, gamma=1.0, optimizer=optimizer)
        with pytest.raises(SolverError, match=r"step 1$") as exc:
            anneal(IsingProblem(J=J), cfg, np.array([5.0, 5.0, 5.0]))
        what = "Adam second moment" if optimizer == "adam" else "parameters"
        assert (exc.value.reason, exc.value.step) == (f"non-finite {what}", 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("optimizer", ["vanilla", "momentum"])
    def test_overflowing_sum_of_finite_parameters_runs(self, optimizer):
        # at J = 0 and w = 1e308 the gradient is 0, so w stays finite
        # while its sum overflows: that alone must not end the run
        cfg = SolverConfig(steps=5, gamma=1.0, optimizer=optimizer)
        s, _ = anneal(IsingProblem(J=np.zeros((2, 2))), cfg, np.array([1e308, 1e308]))
        np.testing.assert_array_equal(s, [1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_adam_second_moment_overflow_fails(self):
        # the gradient stays finite but its square does not: Adam's step
        # for that spin would be 0 from then on, freezing it
        p = IsingProblem(J=np.array([[0.0, 1e200], [1e200, 0.0]]))
        cfg = SolverConfig(steps=10, optimizer="adam")
        with pytest.raises(SolverError, match=r"Adam second moment at step 1$"):
            anneal(p, cfg, np.array([0.1, 0.2]))

    @pytest.mark.filterwarnings("error")
    def test_adam_corrected_moment_overflow_fails(self):
        # spin 0's first gradient is 2.0e154: m2 = 1e-3 * g^2 is finite but
        # m2 / (1 - 0.999) overflows, which would freeze the spin silently
        p = IsingProblem(J=np.array([[0.0, 2.14e156], [2.14e156, 0.0]]))
        cfg = SolverConfig(steps=10, optimizer="adam")
        with pytest.raises(SolverError, match=r"Adam second moment at step 1$"):
            anneal(p, cfg, np.array([0.1, 0.2]))

    def test_schedule_hits_endpoint(self, rng):
        p = random_ising(5, rng)
        cfg = SolverConfig(steps=7, gamma=1.0, step_size=0.01, optimizer="vanilla", trace_stride=1)
        _, trace = anneal(p, cfg, init_weights(5, 0.1, 1))
        assert trace.ts[0] == pytest.approx(1 / 7)
        assert trace.ts[-1] == 1.0

    def test_finds_ground_state_fig1_scale(self, rng):
        # 20 spins, couplings U[-1,1]: momentum-assisted anneal should
        # reach the exact optimum in a majority of random inits
        p = random_ising(20, rng)
        e0, _ = brute_force_ground(p)
        cfg = SolverConfig(steps=500, gamma=1.0, step_size=0.02, momentum=0.99, optimizer="momentum")
        hits = 0
        for trial in range(50):
            s, _ = anneal(p, cfg, init_weights(20, 0.1, np.random.SeedSequence([4, trial])))
            hits += objective(p, s) == pytest.approx(e0, abs=1e-9 * np.abs(p.J).sum())
        assert hits > 25


def vanilla_reference(p, cfg, w0):
    """Plain gradient descent w -= eta * grad with the anneal's schedule
    and trace points; returns (spins, trace costs, trace energies)."""
    w = np.array(w0, dtype=np.float64)
    costs, energies = [], []
    for i in range(1, cfg.steps + 1):
        t = i / cfg.steps
        w -= cfg.step_size * gradient(p, w, t, cfg.gamma)
        if i % cfg.trace_stride == 0 or i == cfg.steps:
            s = spin_readout(w)
            costs.append(cost(p, w, t, cfg.gamma))
            energies.append(float(s @ (p.J @ s)))
    return spin_readout(w), costs, energies


class TestVanillaReference:
    @pytest.mark.parametrize("n", [2, 7, 20])
    @pytest.mark.parametrize("init", ["uniform", "+0.0", "-0.0"])
    def test_anneal_matches_plain_descent_bit_for_bit(self, n, init, rng):
        p = random_ising(n, rng)
        w0 = {
            "uniform": lambda: init_weights(n, 0.1, 3),
            "+0.0": lambda: np.zeros(n),
            # 0.0 * a negative uniform draw is -0.0
            "-0.0": lambda: init_weights(n, 0.0, 3),
        }[init]()
        if init == "-0.0":
            assert np.signbit(w0).any()
        cfg = SolverConfig(steps=60, gamma=1.0, step_size=0.05, optimizer="vanilla", trace_stride=7)
        s, trace = anneal(p, cfg, w0)
        s_ref, costs, energies = vanilla_reference(p, cfg, w0)
        np.testing.assert_array_equal(s, s_ref)
        assert [repr(c) for c in trace.costs] == [repr(c) for c in costs]
        assert [repr(e) for e in trace.energies] == [repr(e) for e in energies]


class TestBoundaryChecks:
    """cost, gradient and anneal reject what the anneal step cannot use."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, w: cost(p, w, 0.5, 1.0),
            lambda p, w: gradient(p, w, 0.5, 1.0),
            lambda p, w: anneal(p, SolverConfig(steps=3), w),
        ],
        ids=["cost", "gradient", "anneal"],
    )
    def test_rejects_biased_problem(self, call):
        p = IsingProblem(J=np.array([[0.0, 1.0], [1.0, 0.0]]), b=[0.5, 0.0])
        with pytest.raises(ValueError, match="^problem has a nonzero bias; call solve instead$"):
            call(p, np.zeros(2))

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda p, w: cost(p, w, 0.5, 1.0), "w"),
            (lambda p, w: gradient(p, w, 0.5, 1.0), "w"),
            (lambda p, w: anneal(p, SolverConfig(steps=3), w), "w0"),
        ],
        ids=["cost", "gradient", "anneal"],
    )
    @pytest.mark.parametrize("w", [np.zeros(3), np.zeros((2, 1)), 0.0], ids=["(3,)", "(2,1)", "()"])
    def test_rejects_wrong_shape(self, call, name, w, rng):
        shape = re.escape(str(np.shape(w)))
        with pytest.raises(ValueError, match=rf"^{name} has shape {shape}, expected \(2,\)$"):
            call(random_ising(2, rng), w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_anneal_rejects_non_finite_w0(self, bad, rng):
        with pytest.raises(ValueError, match="^w0 must be finite$"):
            anneal(random_ising(2, rng), SolverConfig(steps=3), np.array([0.1, bad]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 0},
            {"gamma": 0.0},
            {"step_size": -1.0},
            {"momentum": 1.5},
            {"optimizer": "sgd"},
            {"trace_stride": -1},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["gamma", "step_size", "init_scale"])
    def test_rejects_non_finite_setting(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SolverConfig(**{name: value})


class TestSolve:
    # three mutually coupled spins: for every spin assignment some row of
    # J @ s sums two 1e308 terms, so the objective overflows. One vanilla
    # step keeps w finite; a longer anneal overflows J @ z once the spins
    # saturate, and Adam's squared gradient overflows at once.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_objective_raises(self):
        J = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        cfg = SolverConfig(steps=1, optimizer="vanilla", seed=1)
        with pytest.raises(SolverError, match=r"non-finite objective .* last step \(1\)") as exc:
            solve(IsingProblem(J=J), cfg)
        assert (exc.value.reason, exc.value.step) == ("non-finite objective", 1)
        back = pickle.loads(pickle.dumps(exc.value))
        assert (back.reason, back.step, str(back)) == ("non-finite objective", 1, str(exc.value))

    def test_biased_problems_reach_oracle_ground(self, rng):
        cfg = SolverConfig(steps=500, gamma=1.0, step_size=0.02, momentum=0.99, optimizer="momentum")
        for k in range(10):
            p = IsingProblem(J=random_symmetric(12, rng), b=rng.uniform(-1.0, 1.0, 12))
            e0, _ = brute_force_ground(p)
            tol = 1e-9 * (np.abs(p.J).sum() + np.abs(p.b).sum())
            seeds = (np.random.SeedSequence([6, k, r]) for r in range(20))
            assert any(
                solve(p, dataclasses.replace(cfg, seed=seed)).energy <= e0 + tol for seed in seeds
            ), k
