"""Trial-batch execution and statistics for benchmark protocols.

A bench spec names a set of instances (files or generator parameters),
a trial count, and solver settings; the harness runs every
(instance, trial) pair with an independently seeded init, optionally
in parallel, and reports per-trial results plus per-instance summary
statistics as CSV.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
import typing
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .generators import gen_random_pm1, gen_wishart, wishart_columns
from .ising import MAX_SPINS, IsingProblem, graph_total_weight, load_instance, write_csv
from .solver import SolverConfig, SolverError, TrialTrace, solve

SPEC_VERSION = 1
# an id is a field of the ASCII CSVs and part of a trace file's name,
# which a file system caps at 255 bytes; 200 leaves room for the prefix
ID_MAX = 200


@dataclass(frozen=True)
class InstanceSpec:
    """One problem source: either a file path or generator parameters."""

    id: str
    file: str | None = None
    generator: str | None = None
    n: int | None = None
    alpha: float | None = None
    gen_seed: int | None = None  # 0 for a generated instance that names none
    step_size: float | None = None  # per-instance override
    maxcut: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("instance '': id must not be empty")
        unsafe = ',"/' + os.sep
        bad = [c for c in self.id if c in unsafe or not (c.isascii() and c.isprintable())]
        if bad:
            raise ValueError(f"instance {self.id!r}: id must not hold {bad[0]!r}")
        if len(self.id) > ID_MAX:
            raise ValueError(f"instance {self.id!r}: id is longer than {ID_MAX} characters")
        needs = {"pm1": ("n",), "wishart": ("n", "alpha")}.get(self.generator)
        given = [k for k in ("generator", "n", "alpha", "gen_seed") if getattr(self, k) is not None]
        if self.file is not None and given:
            raise ValueError(f"instance {self.id!r}: a file takes no {given[0]!r}")
        if self.file is None and needs is None:
            raise ValueError(f"instance {self.id!r}: no file and unknown generator {self.generator!r}")
        if self.file is None and any(getattr(self, k) is None for k in needs):
            names = " and ".join(needs)
            raise ValueError(f"instance {self.id!r}: generator {self.generator!r} needs {names}")
        unused = [k for k in given if k not in ("generator", *needs, "gen_seed")]
        if unused:
            raise ValueError(f"instance {self.id!r}: generator {self.generator!r} takes no {unused[0]!r}")
        if self.n is not None and self.n < 2:
            raise ValueError(f"instance {self.id!r}: n must be >= 2")
        if self.n is not None and self.n > MAX_SPINS:
            raise ValueError(
                f"instance {self.id!r}: n {self.n} is above the cap of {MAX_SPINS} spins"
            )
        if self.alpha is not None:
            try:
                wishart_columns(self.n, self.alpha)
            except ValueError as exc:
                raise ValueError(f"instance {self.id!r}: {exc}") from None
        if self.file is None:
            object.__setattr__(self, "gen_seed", self.gen_seed or 0)
            if self.gen_seed < 0:
                raise ValueError(f"instance {self.id!r}: gen_seed must be >= 0")


@dataclass(frozen=True)
class BenchSpec:
    """A bench run. The solver settings default to ``SolverConfig``'s and
    are checked by building each instance's config on construction."""

    instances: tuple[InstanceSpec, ...]
    trials: int = 1
    seed: int = 0
    steps: int = SolverConfig.steps
    gamma: float = SolverConfig.gamma
    step_size: float = SolverConfig.step_size
    momentum: float = SolverConfig.momentum
    optimizer: str = SolverConfig.optimizer
    init_scale: float = SolverConfig.init_scale
    trace_stride: int = SolverConfig.trace_stride
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.instances:
            raise ValueError("spec names no instances")
        self.solver_config()
        seen = set()
        for inst in self.instances:
            # run_batch keys problems, and lqa bench its trace files, by id
            if inst.id in seen:
                raise ValueError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)
            try:
                self.solver_config(inst)
            except ValueError as exc:
                raise ValueError(f"instance {inst.id!r}: {exc}") from None

    def solver_config(self, inst: InstanceSpec | None = None) -> SolverConfig:
        """The settings for the trials of ``inst``, whose ``step_size``
        overrides the spec's when set. ``seed`` is not passed: the spec's
        is the base of the per-trial seeds."""
        settings = {f.name: getattr(self, f.name) for f in fields(SolverConfig) if f.name != "seed"}
        if inst is not None and inst.step_size is not None:
            settings["step_size"] = inst.step_size
        return SolverConfig(**settings)


@dataclass
class TrialReport:
    instance: str
    trial: int
    steps: int
    final_energy: float | None
    relative_error: float | None
    cut: float | None
    wall_ms: float
    failed: bool
    # a failed trial's SolverError: what turned non-finite, and at which step
    reason: str | None = None
    step: int | None = None
    trace: TrialTrace | None = None


def _checked(entry: dict, cls, where: str) -> dict:
    """``entry`` as keyword arguments of dataclass ``cls``. A key that
    names no field of ``cls``, or a value whose JSON type does not fit
    the field's type, raises ValueError naming it."""
    hints = typing.get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    for key, value in entry.items():
        if key not in names:
            raise ValueError(f"{where}unknown key {key!r}")
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if float in kinds:
            kinds += (int,)  # JSON writes a whole float such as 1.0 as 1
        # isinstance counts a bool as an int
        if not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds):
            raise ValueError(f"{where}bad value {value!r} for {key!r}")
    return entry


def load_bench_spec(path) -> BenchSpec:
    """Read a JSON bench spec; see README for the schema. A bad spec
    raises ValueError naming the file, before any instance is materialized."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        data = dict(data)
        version = data.pop("version", None)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported spec version {version!r} (expect {SPEC_VERSION})")
        entries = data.pop("instances", [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError("'instances' must be a list of JSON objects")
        insts = []
        for k, entry in enumerate(entries):
            if "id" not in entry:
                raise ValueError(f"instances[{k}]: missing key 'id'")
            insts.append(InstanceSpec(**_checked(entry, InstanceSpec, f"instances[{k}]: ")))
        return BenchSpec(instances=tuple(insts), **_checked(data, BenchSpec, ""))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def materialize(inst: InstanceSpec) -> IsingProblem:
    """Load or generate the problem for one instance spec."""
    if inst.file is not None:
        return load_instance(inst.file)
    if inst.generator == "pm1":
        return gen_random_pm1(inst.n, inst.gen_seed)
    return gen_wishart(inst.n, inst.alpha, inst.gen_seed).problem


def trial_seed(base_seed: int, instance_index: int, trial_index: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed mix.

    Built from the ordered entropy tuple (base, instance, trial) so
    adding trials or instances never perturbs existing seeds.
    """
    return np.random.SeedSequence([base_seed, instance_index, trial_index])


def _run_trial(spec: BenchSpec, problems, inst_idx: int, trial: int) -> TrialReport:
    """Run one trial. ``problems`` holds, per spec instance, its problem
    and, for a Max-Cut instance, its total edge weight (else None)."""
    inst = spec.instances[inst_idx]
    problem, total = problems[inst_idx]
    cfg = replace(spec.solver_config(inst), seed=trial_seed(spec.seed, inst_idx, trial))
    start = time.perf_counter()
    try:
        result = solve(problem, cfg)
    except SolverError as exc:
        wall = (time.perf_counter() - start) * 1e3
        return TrialReport(
            inst.id, trial, spec.steps, None, None, None, wall, True, exc.reason, exc.step
        )
    wall = (time.perf_counter() - start) * 1e3
    # result.energy is objective(problem, spins), so this is cut_value's cut
    cut = None if total is None else (total - result.energy) / 2.0
    return TrialReport(
        instance=inst.id,
        trial=trial,
        steps=spec.steps,
        final_energy=result.energy,
        relative_error=result.relative_error,
        cut=cut,
        wall_ms=wall,
        failed=False,
        trace=result.trace,
    )


_worker_batch = None  # set in each pool worker: (spec, problems) of its batch


def _init_worker(spec: BenchSpec, problems) -> None:
    # Workers anneal on the problems they are handed: under fork, the
    # parent's read-only pages, so a batch holds each J once. A private
    # copy per worker cost each 34 MiB at n=2000 and made its trials
    # about 45% slower (two workers on a 2-vCPU VM: median 424-440
    # against 289-313 ms), the two no longer reading one J.
    global _worker_batch
    _worker_batch = (spec, problems)


def _run_pooled_trial(job: tuple[int, int]) -> TrialReport:
    return _run_trial(*_worker_batch, *job)


def run_batch(spec: BenchSpec, problems: dict[str, IsingProblem] | None = None) -> list[TrialReport]:
    """Run every (instance, trial) pair and return reports in
    deterministic (instance, trial) order regardless of worker count.

    All instances are materialized up front so a bad reference, or a
    biased Max-Cut instance, fails before any trial runs. Failed trials
    (non-finite values) are recorded with failed=True and the batch
    continues. Pool workers receive the problems once, when they start
    (under fork they read the parent's); each job names only an
    (instance, trial) pair.
    """
    if problems is None:
        problems = {inst.id: materialize(inst) for inst in spec.instances}
    work = []  # (problem, total edge weight or None) per instance, in spec order
    for inst in spec.instances:
        p = problems[inst.id]
        if inst.maxcut and p.has_bias:
            raise ValueError(f"instance {inst.id!r}: maxcut needs a problem without bias")
        work.append((p, graph_total_weight(p) if inst.maxcut else None))
    jobs = [(inst_idx, trial) for inst_idx in range(len(work)) for trial in range(spec.trials)]
    workers = min(spec.workers, len(jobs))
    if workers == 1:
        return [_run_trial(spec, work, *job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(spec, work)
    ) as pool:
        # map yields in job order, which is (instance, trial) order
        return list(pool.map(_run_pooled_trial, jobs))


@dataclass
class InstanceSummary:
    instance: str
    trials: int
    failures: int
    # relative_error | cut | final_energy; these five are None when
    # every trial of the instance failed
    metric: str | None = None
    mean: float | None = None
    std: float | None = None
    min: float | None = None
    max: float | None = None


def summarize(reports: list[TrialReport]) -> list[InstanceSummary]:
    """Per-instance mean / std / min / max of the reported metric.

    Relative error is summarized when the optimum is known, else the
    cut value for Max-Cut instances, else the final energy. Failed
    trials are excluded from the statistics but counted; an instance
    whose every trial failed gets a row with no metric or statistics.
    """
    if not reports:
        raise ValueError("no reports to summarize")
    grouped: dict[str, list[TrialReport]] = {}  # in first-seen order
    for r in reports:
        grouped.setdefault(r.instance, []).append(r)
    out = []
    for inst_id, group in grouped.items():
        ok = [r for r in group if not r.failed]
        if not ok:
            out.append(InstanceSummary(inst_id, len(group), len(group)))
            continue
        if ok[0].relative_error is not None:
            metric, values = "relative_error", [r.relative_error for r in ok]
        elif ok[0].cut is not None:
            metric, values = "cut", [r.cut for r in ok]
        else:
            metric, values = "final_energy", [r.final_energy for r in ok]
        arr = np.asarray(values, dtype=np.float64)
        out.append(
            InstanceSummary(
                instance=inst_id,
                trials=len(group),
                failures=len(group) - len(ok),
                metric=metric,
                mean=float(arr.mean()),
                std=float(arr.std()),
                min=float(arr.min()),
                max=float(arr.max()),
            )
        )
    return out


def aggregate_traces(traces: list[TrialTrace]) -> list[tuple[int, float, float, float]]:
    """Best-so-far energy envelope across trials.

    Each trial's energy sequence is turned into its running minimum,
    then rows (step, mean, min, max) are taken across trials. All
    traces must share the same step grid.
    """
    if not traces:
        return []
    steps = traces[0].steps
    for tr in traces:
        if tr.steps != steps:
            raise ValueError("traces have mismatched step grids")
    best = np.array([np.minimum.accumulate(tr.energies) for tr in traces])
    return [
        (step, float(col.mean()), float(col.min()), float(col.max()))
        for step, col in zip(steps, best.T)
    ]


def write_reports_csv(reports: list[TrialReport], path) -> None:
    """Per-trial CSV, one line per report. ``reason`` and ``step`` say why
    and at which anneal step a failed trial stopped; both are empty for a
    trial that did not fail."""
    rows = [
        (r.instance, r.trial, r.steps, r.final_energy, r.relative_error, r.cut,
         f"{r.wall_ms:.3f}", int(r.failed), r.reason, r.step)
        for r in reports
    ]
    header = "instance,trial,steps,final_energy,relative_error,cut,wall_ms,failed,reason,step"
    write_csv(path, header, rows)


def write_summary_csv(summaries: list[InstanceSummary], path) -> None:
    header = ",".join(f.name for f in fields(InstanceSummary))
    write_csv(path, header, map(astuple, summaries))


def write_trace_csv(rows: list[tuple[int, float, float, float]], path) -> None:
    write_csv(path, "step,best_energy_mean,best_energy_min,best_energy_max", rows)
