"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a PASS line on success (run pytest with -s to see them).  The
slow protocol reproductions (criteria 4 and 5) run in minutes; the
whole module is intended for a full verification run, not the edit
loop.
"""

import numpy as np
import pytest

from lqa import (
    SolverConfig,
    cut_value,
    objective,
)
from lqa.bench import BenchSpec, InstanceSpec, run_batch, summarize
from lqa.generators import gen_random_pm1, gen_wishart
from lqa.oracle import brute_force_ground
from lqa.ising import graph_total_weight
from lqa.solver import anneal, gradient, init_weights
from lqa.cli import main as cli_main
from conftest import finite_difference_gradient, random_ising


def test_criterion_1_gradient_oracle():
    """Analytic gradient matches central finite differences to 1e-5."""
    rng = np.random.default_rng(42)
    cases = [(5, 34), (50, 33), (500, 33)]
    for n, count in cases:
        for _ in range(count):
            p = random_ising(n, rng)
            w = rng.normal(size=n)
            t = rng.uniform(0.0, 1.0)
            gamma = rng.uniform(0.1, 2.0)
            g = gradient(p, w, t * gamma * 2.0, 1.0 - t)
            fd = finite_difference_gradient(p, w, t, gamma)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(g)
            assert rel < 1e-5, f"n={n}: relative error {rel}"
    print("ACCEPTANCE 1 (gradient oracle): PASS")


def test_criterion_2_exactness_small_instances():
    """Momentum anneal finds the exact ground state on >= 80% of 50
    random 20-spin instances within 20 restarts."""
    cfg = SolverConfig(
        steps=500, gamma=1.0, step_size=0.02, momentum=0.99, optimizer="momentum"
    )
    solved = 0
    for inst_seed in range(50):
        p = random_ising(20, np.random.default_rng(inst_seed))
        e0, _ = brute_force_ground(p)
        tol = 1e-9 * np.abs(p.J).sum()
        for restart in range(20):
            w0 = init_weights(20, 0.1, np.random.SeedSequence([2, inst_seed, restart]))
            s, _ = anneal(p, cfg, w0)
            if abs(objective(p, s) - e0) <= tol:
                solved += 1
                break
    assert solved >= 40, f"solved only {solved}/50 instances"
    print(f"ACCEPTANCE 2 (small-instance exactness): PASS ({solved}/50 solved)")


def test_criterion_3_saddle_behaviour():
    """From w0 = 0 vanilla descent never moves; from a small random
    init, momentum reaches a lower mean final cost than no momentum."""
    p = random_ising(20, np.random.default_rng(0))
    n = p.n
    # zero displacement: the traced cost stays on the w = 0 curve
    cfg0 = SolverConfig(
        steps=300, gamma=1.0, step_size=0.01, optimizer="vanilla", trace_stride=1
    )
    s, trace = anneal(p, cfg0, np.zeros(n))
    assert np.all(s == 1.0)
    for t, c in zip(trace.ts, trace.costs):
        assert c == pytest.approx(-(1.0 - t) * n, abs=1e-12)

    final_costs = {}
    for mu in (0.0, 0.99):
        cfg = SolverConfig(
            steps=500, gamma=1.0, step_size=0.01, momentum=mu,
            optimizer="momentum", trace_stride=500,
        )
        costs = []
        for seed in range(50):
            w0 = init_weights(n, 0.1, np.random.SeedSequence([3, seed]))
            _, tr = anneal(p, cfg, w0)
            costs.append(tr.costs[-1])
        final_costs[mu] = float(np.mean(costs))
    assert final_costs[0.99] < final_costs[0.0], final_costs
    print(
        "ACCEPTANCE 3 (saddle behaviour): PASS "
        f"(mean cost {final_costs[0.99]:.3f} with momentum vs {final_costs[0.0]:.3f} without)"
    )


@pytest.mark.slow
def test_criterion_4_wishart_easy_hard_easy():
    """Mean relative error over an alpha sweep rises then falls, and
    the easiest point is solved exactly in at least one trial."""
    alphas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.25, 1.5, 2.0]
    spec = BenchSpec(
        instances=tuple(
            InstanceSpec(id=f"a{idx}", generator="wishart", n=500, alpha=a,
                         gen_seed=100 + idx)
            for idx, a in enumerate(alphas)
        ),
        trials=100,
        seed=4,
        steps=500,
        gamma=1.0,
        step_size=1.0,
        optimizer="adam",
        init_scale=0.1,
    )
    reports = run_batch(spec)
    summaries = summarize(reports)
    means = [s.mean for s in summaries]
    mins = [s.min for s in summaries]

    peak = int(np.argmax(means))
    assert 0 < peak < len(alphas) - 1, f"hardness peak at the boundary: {means}"
    tol = 0.05 * (max(means) - min(means))
    for i in range(peak):
        assert means[i + 1] >= means[i] - tol, f"not rising at alpha={alphas[i + 1]}: {means}"
    for i in range(peak, len(means) - 1):
        assert means[i + 1] <= means[i] + tol, f"not falling at alpha={alphas[i + 1]}: {means}"

    easiest = int(np.argmin(means))
    assert mins[easiest] < 1e-6, f"easiest alpha {alphas[easiest]} never solved: {mins[easiest]}"
    print(
        "ACCEPTANCE 4 (Wishart easy-hard-easy): PASS "
        f"(peak at alpha={alphas[peak]}, easiest alpha={alphas[easiest]} solved exactly)"
    )


@pytest.mark.slow
def test_criterion_5_k2000_scale_protocol():
    """Scaled K2000 protocol: best-so-far cut non-decreasing per trial
    and final cuts concentrated within 1% of the best."""
    p = gen_random_pm1(2000, 1)
    total = graph_total_weight(p)
    cfg = SolverConfig(
        steps=5000, gamma=0.1, step_size=1.0, optimizer="adam",
        init_scale=0.1, trace_stride=100,
    )
    final_cuts = []
    for trial in range(20):
        w0 = init_weights(2000, 0.1, np.random.SeedSequence([5, trial]))
        s, trace = anneal(p, cfg, w0)
        best_energy = np.minimum.accumulate(trace.energies)
        best_cut = (total - best_energy) / 2.0
        assert np.all(np.diff(best_cut) >= 0.0), f"trial {trial}: best-so-far cut decreased"
        final_cuts.append(cut_value(p, s, total))
    spread = max(final_cuts) - min(final_cuts)
    assert spread <= 0.01 * max(final_cuts), f"spread {spread} over best {max(final_cuts)}"
    print(
        "ACCEPTANCE 5 (K2000-scale protocol): PASS "
        f"(best cut {max(final_cuts):.0f}, spread {spread:.0f})"
    )


def test_criterion_6_generator_soundness():
    """Brute force confirms the planted pair as the exact minimiser set
    for every small Wishart instance."""
    checked = 0
    for n in (8, 12, 16):
        for alpha in (0.5, 1.0):
            for seed in range(20):
                inst = gen_wishart(n, alpha, seed)
                _, mins = brute_force_ground(inst.problem)
                expected = sorted([tuple(inst.planted), tuple(-inst.planted)])
                assert sorted(tuple(s) for s in mins) == expected, (
                    f"n={n} alpha={alpha} seed={seed}: minimisers != planted pair"
                )
                checked += 1
    print(f"ACCEPTANCE 6 (generator soundness): PASS ({checked} instances)")


def test_criterion_7_determinism(tmp_path):
    """Repeated solve and bench invocations are byte-identical
    (excluding wall-time columns), at any worker count."""
    inst_path = tmp_path / "inst.txt"
    assert cli_main([
        "generate", "wishart", "--n", "30", "--alpha", "1.0", "--seed", "6",
        "--out", str(inst_path),
    ]) == 0

    solve_outputs = []
    for name in ("s1.txt", "s2.txt"):
        out = tmp_path / name
        code = cli_main([
            "solve", str(inst_path), "--steps", "400", "--gamma", "1.0",
            "--eta", "1", "--optimizer", "adam", "--seed", "7",
            "--output", str(out),
        ])
        assert code == 0
        solve_outputs.append(out.read_bytes())
    assert solve_outputs[0] == solve_outputs[1]

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"version": 1, "seed": 8, "trials": 4, "steps": 200, "gamma": 1.0,'
        ' "step_size": 1.0, "optimizer": "adam", "instances":'
        ' [{"id": "w", "generator": "wishart", "n": 30, "alpha": 1.0, "gen_seed": 6}]}'
    )

    def bench_rows(workers, prefix):
        code = cli_main([
            "bench", str(spec_path), "--workers", str(workers),
            "--output-prefix", str(tmp_path / prefix),
        ])
        assert code == 0
        rows = (tmp_path / f"{prefix}_trials.csv").read_bytes().decode().splitlines()
        # drop only the wall-time column
        return [",".join(r.split(",")[:6] + r.split(",")[7:]) for r in rows]

    rows_by_run = [bench_rows(w, f"run{i}") for i, w in enumerate((1, 1, 4))]
    assert rows_by_run[0] == rows_by_run[1] == rows_by_run[2]
    print("ACCEPTANCE 7 (determinism): PASS")
