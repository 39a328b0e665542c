"""The three benchmark workloads.

Each workload is a closed loop of rounds: the next round starts when the
previous one has finished. A round is one unit of user-visible work, and
`wall_s` is the median over distinct rounds of each one's median repeat:

- k2000_pool: what `lqa bench` does after reading its spec: materialize,
  `run_batch` with workers=2, summarize, write the CSVs;
- solve_file500: one `lqa solve FILE` process;
- small20_oracle: one instance annealed restart by restart until a restart
  matches the oracle or the restarts run out (its time to ground).

Rounds repeat the same seeded work (small20_oracle cycles through its
instances), so every repeat is also a determinism check. Inputs come only from
the workload seed.

The benchmark calls into lqa through module attributes (`lqa.bench.run_batch`)
where the traced run must see the call, and through names bound at import
(`objective` below) in its own checks, which the tracer must not record.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lqa.bench
import lqa.generators
import lqa.ising
import lqa.oracle
import lqa.solver
from lqa.bench import BenchSpec, InstanceSpec, trial_seed
from lqa.ising import IsingProblem, cut_value, graph_total_weight, objective
from lqa.solver import SolverConfig, init_weights

HERE = Path(__file__).resolve().parent
CLI_SHIM = HERE / "cli_shim.py"

ENERGY_TOL = 1e-9  # energies must agree within this times ||J||_1 + ||b||_1
SOLVED_REL = 1e-6  # a trial within this relative error of the ground counts as solved


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, mixed from the workload seed and keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def energy_tol(p: IsingProblem) -> float:
    return ENERGY_TOL * float(np.abs(p.J).sum() + np.abs(p.b).sum())


class Checks:
    """Correctness checks; each failed one counts against `failed`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Round:
    wall_s: float
    trial_ms: list[float]
    failed_trials: int = 0
    batch: tuple[float, float, int] | None = None  # run_batch wall s, summed trial s, workers
    out: object = None
    scale: float = 1.0  # to reference speed; set by the benchmark's clock


@dataclass
class Quality:
    energy_ratio: float  # mean E / E_ref over the workload's fixed trial set
    mean_rel_error: float = 0.0
    solved_frac: float = 0.0
    mean_cut: float = 0.0


def _batch_round(reports, wall_s, batch_wall_s, workers, out) -> Round:
    ms = [r.wall_ms for r in reports]
    return Round(
        wall_s=wall_s,
        trial_ms=ms,
        failed_trials=sum(r.failed for r in reports),
        batch=(batch_wall_s, sum(ms) / 1e3, workers),
        out=out,
    )


def _report_key(reports):
    """Everything a report holds except its timing."""
    return [(r.instance, r.trial, r.final_energy, r.relative_error, r.cut, r.failed, r.trace)
            for r in reports]


def _resolve(spec: BenchSpec, problems, reports):
    """Re-solve each trial of a workers=1 run with public `solve`, seeded as
    `run_batch` seeds it, to get the spins its report leaves out; yields
    (report, problem, result)."""
    index = {inst.id: (i, inst) for i, inst in enumerate(spec.instances)}
    for rep in reports:
        i, inst = index[rep.instance]
        p = problems[inst.id]
        cfg = SolverConfig(
            steps=spec.steps,
            gamma=spec.gamma,
            step_size=inst.step_size if inst.step_size is not None else spec.step_size,
            momentum=spec.momentum,
            optimizer=spec.optimizer,
            init_scale=spec.init_scale,
            trace_stride=spec.trace_stride,
        )
        n = p.n + 1 if p.has_bias else p.n
        w0 = init_weights(n, spec.init_scale, trial_seed(spec.seed, i, rep.trial))
        yield rep, p, lqa.solver.solve(p, cfg, w0)


def _check_resolved(ch: Checks, label: str, rep, p, res) -> None:
    tol = energy_tol(p)
    ch.expect(not rep.failed, f"{label}: trial {rep.trial} failed")
    if rep.failed:
        return
    ch.expect(abs(res.energy - rep.final_energy) <= tol,
              f"{label}: trial {rep.trial} energy differs from its re-solve")
    ch.expect(abs(objective(p, res.spins) - res.energy) <= tol,
              f"{label}: trial {rep.trial} energy != objective(p, spins)")


class K2000Pool:
    name = "k2000_pool"
    parallel = True  # pool workers run on every CPU

    def __init__(self, tiny: bool = False):
        self.n, self.steps, self.trials = (60, 30, 2) if tiny else (2000, 300, 2)
        self.stride = 10 if tiny else 100

    def setup(self, seed, tracer, workdir):
        gen_seed = derive(seed, 2, 0)
        with tracer.span("generators.gen_random_pm1"):
            p = lqa.generators.gen_random_pm1(self.n, gen_seed)
        inst = InstanceSpec(id="k2000", generator="pm1", n=self.n, gen_seed=gen_seed, maxcut=True)
        spec = BenchSpec(instances=(inst,), trials=self.trials, seed=derive(seed, 2, 1),
                         steps=self.steps, gamma=0.1, step_size=1.0, optimizer="adam",
                         init_scale=0.1, trace_stride=self.stride, workers=2)
        return {"spec": spec, "problem": p, "total": graph_total_weight(p),
                "prefix": str(workdir / "k2000")}

    def cycle(self, inp) -> int:
        return 1  # every round repeats the same work

    def run_round(self, inp, k, tracer) -> Round:
        spec, prefix = inp["spec"], inp["prefix"]
        start = time.perf_counter()
        problems = {inst.id: lqa.bench.materialize(inst) for inst in spec.instances}
        batch_start = time.perf_counter()
        with tracer.span("bench.run_batch"):
            reports = lqa.bench.run_batch(spec, problems)
        batch_wall = time.perf_counter() - batch_start
        with tracer.span("bench.summarize"):
            summaries = lqa.bench.summarize(reports)
            rows = lqa.bench.aggregate_traces([r.trace for r in reports if r.trace])
        with tracer.span("bench.write_csv"):
            lqa.bench.write_reports_csv(reports, f"{prefix}_trials.csv")
            lqa.bench.write_summary_csv(summaries, f"{prefix}_summary.csv")
            lqa.bench.write_trace_csv(rows, f"{prefix}_k2000_trace.csv")
        wall = time.perf_counter() - start
        same = np.array_equal(problems["k2000"].J, inp["problem"].J)
        return _batch_round(reports, wall, batch_wall, spec.workers, (reports, summaries, rows, same))

    def check(self, inp, rounds, ch: Checks) -> None:
        spec, p, total = inp["spec"], inp["problem"], inp["total"]
        reports, summaries, rows, _ = rounds[0].out
        for r in rounds:
            ch.expect(r.out[3], "k2000_pool: materialize built a different problem")
        for r in rounds[1:]:
            ch.expect(_report_key(r.out[0]) == _report_key(reports), "k2000_pool: rounds differ")
        # the pool's per-trial cuts, energies and traces must equal a workers=1 run's
        serial = lqa.bench.run_batch(dataclasses.replace(spec, workers=1), {"k2000": p})
        ch.expect(_report_key(reports) == _report_key(serial),
                  "k2000_pool: the pool's reports differ from a workers=1 run")
        for rep, _, res in _resolve(spec, {"k2000": p}, serial):
            _check_resolved(ch, "k2000_pool", rep, p, res)
            if rep.failed:
                continue
            ch.expect(rep.cut == cut_value(p, res.spins, total),
                      f"k2000_pool: trial {rep.trial} cut != cut_value of its spins")
            tr = rep.trace
            ch.expect(tr is not None and tr.steps[-1] == spec.steps
                      and abs(tr.energies[-1] - rep.final_energy) <= energy_tol(p),
                      f"k2000_pool: trial {rep.trial} trace does not end at its final energy")
        # the written envelope must be made of each trial's best-so-far (running
        # minimum) energy, so its best-so-far cut never decreases
        traces = [r.trace for r in reports if r.trace]
        best = [list(itertools.accumulate(tr.energies, min)) for tr in traces]
        want = [(step, float(np.mean(col)), min(col), max(col))
                for step, col in zip(traces[0].steps, zip(*best))] if traces else []
        ch.expect(len(traces) == sum(not r.failed for r in reports) and len(rows) == len(want) > 0
                  and all(row[0] == w[0] and np.isclose(row[1], w[1], rtol=1e-12) and row[2:] == w[2:]
                          for row, w in zip(rows, want)),
                  "k2000_pool: trace envelope is not the trials' best-so-far energies")
        cuts = [r.cut for r in reports if not r.failed]
        ch.expect(summaries[0].metric == "cut" and np.isclose(summaries[0].mean, np.mean(cuts), rtol=1e-12),
                  "k2000_pool: summary is wrong")
        with open(f"{inp['prefix']}_trials.csv", encoding="ascii") as fh:
            ch.expect(len(fh.read().splitlines()) == len(reports) + 1,
                      "k2000_pool: trials CSV has the wrong row count")

    def quality(self, inp, rounds) -> Quality:
        reports = [r for r in rounds[0].out[0] if not r.failed]
        bound = -float(np.abs(inp["problem"].J).sum())  # no spin assignment goes below this
        e = np.array([r.final_energy for r in reports])
        return Quality(energy_ratio=float(np.mean(e / bound)),
                       mean_cut=float(np.mean([r.cut for r in reports])))


class SolveFile500:
    name = "solve_file500"
    parallel = False
    BIAS = 0.1  # b = -BIAS * planted keeps the planted state the unique ground state

    def __init__(self, tiny: bool = False):
        self.n, self.steps = (50, 20) if tiny else (500, 200)
        self.alpha = 0.7

    def setup(self, seed, tracer, workdir):
        with tracer.span("generators.gen_wishart"):
            inst = lqa.generators.gen_wishart(self.n, self.alpha, derive(seed, 3, 0))
        t = inst.planted
        p = IsingProblem(J=inst.problem.J, b=-self.BIAS * t,
                         ground_energy=inst.problem.ground_energy - self.BIAS * self.n)
        path = workdir / "solve500.txt"
        with tracer.span("ising.save_instance"):
            lqa.ising.save_instance(p, path, header_comments=[f"perfbench solve_file500 seed={seed}"])
        return {"problem": p, "planted": t, "path": path, "out": workdir / "solve500.out",
                "spans": workdir / "cli_spans.json", "cli_seed": derive(seed, 3, 1)}

    def cycle(self, inp) -> int:
        return 1  # every round repeats the same work

    def run_round(self, inp, k, tracer) -> Round:
        args = ["solve", str(inp["path"]), "--steps", str(self.steps),
                "--seed", str(inp["cli_seed"]), "--output", str(inp["out"])]
        if tracer.enabled:
            cmd = [sys.executable, str(CLI_SHIM), str(inp["spans"]), *args]
        else:
            cmd = [sys.executable, "-m", "lqa.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - start
        if tracer.enabled and proc.returncode == 0:
            with open(inp["spans"], encoding="utf-8") as fh:
                tracer.extend(json.load(fh))
        output = inp["out"].read_text(encoding="ascii") if inp["out"].exists() else None
        out = (proc.returncode, proc.stdout, proc.stderr, output)
        return Round(wall_s=wall, trial_ms=[wall * 1e3], failed_trials=int(proc.returncode != 0), out=out)

    @staticmethod
    def _parse(stdout: str) -> dict[str, str]:
        return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)

    def check(self, inp, rounds, ch: Checks) -> None:
        p = inp["problem"]
        tol = energy_tol(p)
        for r in rounds:
            code, stdout, stderr, output = r.out
            ch.expect(code == 0, f"solve_file500: lqa solve exited {code}: {stderr.strip()[-200:]}")
            ch.expect(stdout == rounds[0].out[1], "solve_file500: rounds differ")
        code, stdout, _, output = rounds[0].out
        if code != 0:
            return
        fields = self._parse(stdout)
        spins = np.array([1.0 if c == "+" else -1.0 for c in fields.get("spins", "")])
        e = float(fields["energy"])
        ch.expect(spins.shape == (p.n,), "solve_file500: wrong number of printed spins")
        if spins.shape == (p.n,):
            ch.expect(abs(objective(p, spins) - e) <= tol,
                      "solve_file500: printed energy does not match the printed spins")
        ch.expect(e >= p.ground_energy - tol, "solve_file500: energy beats the planted ground")
        ch.expect(abs(objective(p, inp["planted"]) - p.ground_energy) <= tol,
                  "solve_file500: planted state misses ground_energy")
        rel = abs((e - p.ground_energy) / p.ground_energy)
        ch.expect("relative_error" in fields and np.isclose(float(fields["relative_error"]), rel,
                                                            rtol=1e-9, atol=1e-12),
                  "solve_file500: printed relative_error is wrong")
        ch.expect(output == stdout, "solve_file500: --output file differs from stdout")

    def quality(self, inp, rounds) -> Quality:
        g = inp["problem"].ground_energy
        fields = self._parse(rounds[0].out[1])
        if "energy" not in fields:
            return Quality(energy_ratio=0.0)
        e = float(fields["energy"])
        rel = abs((e - g) / g)
        return Quality(energy_ratio=e / g, mean_rel_error=rel, solved_frac=float(rel <= SOLVED_REL))


@dataclass
class _Instance:
    problem: IsingProblem
    ground: float
    minimisers: set
    seeds: list[int]


class Small20Oracle:
    name = "small20_oracle"
    parallel = False
    MAX_RESTARTS = 20

    def __init__(self, tiny: bool = False):
        self.n, self.count, self.steps = (8, 4, 100) if tiny else (20, 64, 500)

    def setup(self, seed, tracer, workdir):
        n = self.n
        iu = np.triu_indices(n, k=1)
        instances = []
        for k in range(self.count):
            rng = np.random.default_rng(derive(seed, 4, k))
            J = np.zeros((n, n))
            J[iu] = rng.uniform(-1.0, 1.0, len(iu[0]))
            J.T[iu] = J[iu]
            p = IsingProblem(J=J)
            ground, mins = lqa.oracle.brute_force_ground(p)
            seeds = [derive(seed, 5, k, r) for r in range(self.MAX_RESTARTS)]
            instances.append(_Instance(p, ground, {tuple(s) for s in mins}, seeds))
        cfg = SolverConfig(steps=self.steps, gamma=1.0, step_size=0.02, momentum=0.99,
                           optimizer="momentum", init_scale=0.1)
        return {"instances": instances, "cfg": cfg}

    def cycle(self, inp) -> int:
        return len(inp["instances"])  # round k anneals instance k % cycle

    def run_round(self, inp, k, tracer) -> Round:
        inst = inp["instances"][k % len(inp["instances"])]
        cfgs = [dataclasses.replace(inp["cfg"], seed=s) for s in inst.seeds]
        tol = energy_tol(inst.problem)
        restarts, ms = [], []
        start = time.perf_counter()
        for cfg in cfgs:
            t0 = time.perf_counter()
            res = lqa.solver.solve(inst.problem, cfg)
            ms.append((time.perf_counter() - t0) * 1e3)
            restarts.append((res.energy, res.spins))
            if abs(res.energy - inst.ground) <= tol:
                break
        return Round(wall_s=time.perf_counter() - start, trial_ms=ms, out=restarts)

    def check(self, inp, rounds, ch: Checks) -> None:
        instances = inp["instances"]
        for k, r in enumerate(rounds):
            inst = instances[k % len(instances)]
            p, tol = inst.problem, energy_tol(inst.problem)
            if k >= len(instances):
                first = rounds[k % len(instances)].out
                ch.expect([e for e, _ in r.out] == [e for e, _ in first], "small20_oracle: rounds differ")
                continue
            for e, s in r.out:
                ch.expect(abs(objective(p, s) - e) <= tol, "small20_oracle: energy != objective(p, spins)")
                ch.expect(e >= inst.ground - tol, "small20_oracle: a restart beats the oracle")
            e, s = r.out[-1]
            if abs(e - inst.ground) <= tol:
                ch.expect(tuple(s) in inst.minimisers, "small20_oracle: hit is not an oracle minimiser")

    def quality(self, inp, rounds) -> Quality:
        ratios, rels, solved = [], [], []
        for inst, r in zip(inp["instances"], rounds):
            g = inst.ground
            for e, _ in r.out:
                ratios.append(e / g)
                rels.append(abs((e - g) / g))
            solved.append(abs(r.out[-1][0] - g) <= energy_tol(inst.problem))
        return Quality(energy_ratio=float(np.mean(ratios)), mean_rel_error=float(np.mean(rels)),
                       solved_frac=float(np.mean(solved)))


WORKLOADS = {w.name: w for w in (K2000Pool, SolveFile500, Small20Oracle)}
