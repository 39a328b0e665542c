"""lqa benchmark: runs one workload (or all of them) and prints its metrics.

    python3 perfbench/run.py --workload k2000_pool --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root; lqa is imported from `src/`. With `--trace 0`
the last line of stdout is one JSON object whose metrics are the
`end_to_end` metrics of BENCHMARK.json; with `--trace 1` they are its
`per_layer` metrics, taken from a traced run. The lines before it give every
metric with its unit and direction, the failed checks, and a `manifest:` line
saying which code, numpy/BLAS, thread settings and seed produced the result.
See perfbench/README.md for what each metric means.
"""

import os

# Pinned before numpy is imported; pool workers and the CLI process inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_SETUPS = 9  # setup_s is the median of this many set-ups, spread over the run


def import_lqa() -> None:
    """Make `import lqa` load the sources of this checkout, or exit non-zero."""
    if not (SRC / "lqa" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lqa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import lqa

    if Path(lqa.__file__).resolve().parent != (SRC / "lqa").resolve():
        sys.exit(f"perfbench: imported lqa from {lqa.__file__}, not from {SRC}")


def load_catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# What reference() and reference_on_every_cpu() take in the fast phase of the
# 2-vCPU development VM; every reported time is scaled to that speed.
REF_S = 0.002
REF_EVERY_CPU_S = 0.004
_REF_A = np.random.default_rng(0).uniform(-0.1, 0.1, (20, 20))
_REF_X = np.ones(20)


def reference() -> float:
    """Seconds taken by a fixed mix of pure-Python and small-numpy work.

    It calls no lqa code, so a change to lqa leaves it alone, but it slows
    down with the CPU: on a shared 2-vCPU VM the whole machine switches
    between a fast phase and one up to 2x slower, for seconds to minutes at
    a time, and a 40 s run can fall entirely in either. Python interpreter
    work and small numpy calls slow down by different factors; their sum
    tracked the lqa solver within a few percent in both phases.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    z = _REF_X
    for _ in range(300):
        z = np.tanh(_REF_A @ z) + _REF_X
    return time.perf_counter() - start


def reference_on_every_cpu() -> float:
    """Mean over the CPUs this process may use, pinned to each in turn, of
    reference() plus one product of a 32 MB matrix with a vector: the speed
    of the host for matvec-bound work spread over every CPU, as in the pool
    workers. The matrix is made per call, so workers forked later do not
    inherit it."""
    cpus = os.sched_getaffinity(0)
    big = np.ones((2000, 2000))
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            big @ big[0]
            times.append(time.perf_counter() - start + reference())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Clock:
    """Scales measured times to reference speed.

    Every timed step (a round or a set-up) is bracketed by reference
    measurements, and `scale()` gives their nominal time over the mean of the
    two, so the step's time times the scale is what it would take on the
    development VM in its fast phase. Each vCPU changes speed on its own, so
    a workload whose work runs on every CPU (`parallel`) takes its reference
    on every CPU.
    """

    def __init__(self, parallel: bool = False):
        self.measure, self.nominal = ((reference_on_every_cpu, REF_EVERY_CPU_S) if parallel
                                      else (reference, REF_S))
        self.samples = [self.measure()]

    def scale(self) -> float:
        """Scale for the step that just ended; times the next bracket."""
        self.samples.append(self.measure())
        return 2 * self.nominal / (self.samples[-2] + self.samples[-1])


def timing_metrics(rounds, cycle: int) -> dict:
    """Medians of the rounds' times at reference speed.

    Round k repeats round k % cycle: small20_oracle cycles through its
    instances, the other workloads repeat one round. `wall_s` is the median
    over distinct rounds of each one's median repeat.
    """
    repeats = {}
    for k, r in enumerate(rounds):
        repeats.setdefault(k % cycle, []).append(r.wall_s * r.scale)
    return {
        "wall_s": median([median(v) for v in repeats.values()]),
        "trials_per_s": median([len(r.trial_ms) / (r.wall_s * r.scale) for r in rounds]),
        "trial_ms.p50": median([ms * r.scale for r in rounds for ms in r.trial_ms]),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def summary_metrics(rounds, quality, failed: int, attempted: int, clock: Clock) -> dict:
    """Per-layer metrics that need no spans."""
    ms = [m * r.scale for r in rounds for m in r.trial_ms]
    return {
        "host.reference_ms": 1e3 * median(clock.samples),
        "trial_ms.p90": statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100 else 0.0,
        "trial_ms.samples": float(len(ms)),
        "quality.mean_rel_error": quality.mean_rel_error,
        "quality.solved_frac": quality.solved_frac,
        "quality.mean_cut": quality.mean_cut,
        "bench.failed_frac": failed / attempted,
    }


def span_metrics(spans, rounds) -> dict:
    """Per-layer metrics from the traced run's spans; a layer the program
    never called reads 0."""
    from tracer import LayerStats

    st = LayerStats(spans)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = st.meta_total("solver.anneal")
    anneals = st.calls("solver.anneal")
    flops = st.meta_total("solver.gradient")  # 2 n^2 per J @ z
    trace_s = (st.total_under("solver.cost", "solver.anneal")
               + st.total_under("solver.spin_readout", "solver.anneal"))
    batches = [r.batch for r in rounds if r.batch is not None]  # (wall s, summed trial s, workers)
    load_s = st.total("ising.load_instance")
    return {
        "solver.anneal.us_per_step": 1e6 * ratio(st.total("solver.anneal"), steps),
        "solver.anneal.self_frac": ratio(st.self_total("solver.anneal"), st.total("solver.anneal")),
        "solver.gradient.calls": ratio(st.calls("solver.gradient"), steps),
        "solver.gradient.us_per_call": 1e6 * st.per_call("solver.gradient"),
        "solver.update.us_per_call": 1e6 * st.per_call("solver.update"),
        "solver.matvec.ops_per_byte": ratio(flops, 4.0 * flops),  # 8 n^2 bytes of J per GEMV
        "solver.matvec.gflops": ratio(flops, st.total("solver.gradient")) / 1e9,
        "solver.trace.ms_per_trial": 1e3 * ratio(trace_s, anneals),
        "bench.pool.efficiency": ratio(sum(b[1] for b in batches), sum(b[2] * b[0] for b in batches)),
        "bench.pool.overhead_s": ratio(sum(b[0] - b[1] / b[2] for b in batches), len(batches)),
        "bench.materialize.ms": 1e3 * st.per_call("bench.materialize"),
        "bench.summarize.ms": 1e3 * st.per_call("bench.summarize"),
        "bench.write_csv.ms": 1e3 * st.per_call("bench.write_csv"),
        "ising.load_instance.s": st.per_call("ising.load_instance"),
        "ising.load_instance.mb_per_s": ratio(st.meta_total("ising.load_instance"), load_s) / 1e6,
        "ising.absorb_bias.ms": 1e3 * st.per_call("ising.absorb_bias"),
        "ising.objective.ms": 1e3 * st.per_call("ising.objective"),
        "cli.import_s": st.per_call("cli.import"),
        "ising.save_instance.s": st.per_call("ising.save_instance"),
        "generators.gen_wishart.ms": 1e3 * st.per_call("generators.gen_wishart"),
        "generators.gen_random_pm1.ms": 1e3 * st.per_call("generators.gen_random_pm1"),
        "oracle.brute_force_ground.ms": 1e3 * st.per_call("oracle.brute_force_ground"),
        "oracle.minimisers": ratio(st.meta_total("oracle.brute_force_ground"),
                                   st.calls("oracle.brute_force_ground")),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Set up, measure and check one workload; returns the metrics and counts."""
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[name](tiny)
    tracer = Tracer() if trace else NullTracer()
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    setup_s = []
    clock = Clock(wl.parallel)

    def setup():
        start = time.perf_counter()
        inputs = wl.setup(seed, tracer, workdir)
        setup_s.append((time.perf_counter() - start) * clock.scale())
        return inputs

    def run_round(k, trc):
        r = wl.run_round(inp, k, trc)
        r.scale = clock.scale()
        return r

    # the traced run spends half its time traced and replays as many rounds untraced
    budget = seconds / 2 if trace else seconds
    try:
        with tracer.installed() if trace else contextlib.nullcontext():
            inp = setup()
            rounds = []
            start = time.perf_counter()
            while (len(rounds) < wl.cycle(inp) or len(setup_s) < N_SETUPS
                   or time.perf_counter() - start < budget):
                if (len(setup_s) < N_SETUPS
                        and time.perf_counter() - start >= budget * len(setup_s) / N_SETUPS):
                    setup()  # same inputs again, timed in another phase of the run
                    continue
                rounds.append(run_round(len(rounds), tracer))
            wl.check(inp, rounds, checks)
        quality = wl.quality(inp, rounds)
        if trace:
            null = NullTracer()
            replay = [run_round(k, null) for k in range(len(rounds))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    trial_ms = [m for r in rounds for m in r.trial_ms]
    attempted = len(trial_ms) + checks.attempted
    failed = sum(r.failed_trials for r in rounds) + len(checks.failures)
    result = {"attempted": attempted, "failed": failed, "failures": checks.failures}
    if trace:
        result["metrics"] = {
            **span_metrics(tracer.spans, rounds),
            **summary_metrics(replay, quality, failed, attempted, clock),
            "trace.overhead": (timing_metrics(rounds, wl.cycle(inp))["wall_s"]
                               / timing_metrics(replay, wl.cycle(inp))["wall_s"]),
        }
    else:
        result["metrics"] = {
            "setup_s": median(setup_s),
            **timing_metrics(rounds, wl.cycle(inp)),
            "peak_rss_mb": peak_rss_mb(),
            "energy_ratio": quality.energy_ratio,
        }
        result["extras"] = summary_metrics(rounds, quality, failed, attempted, clock)
    return result


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lqa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "lqa_git_rev": git_rev(),
        "lqa_src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def print_metric(name: str, value: float, entry: dict) -> None:
    print(f"  {name:32s} {value!r:>24} {entry['unit']:10s} ({entry['better']} is better)")


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_lqa()
    if args.workload == "all":
        return run_all(args, names)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale == "tiny")
    listed = {m["name"]: m for m in catalogue["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != set(listed):
        sys.exit(f"perfbench: computed metrics {sorted(result['metrics'])} "
                 f"do not match BENCHMARK.json {sorted(listed)}")
    layer = {m["name"]: m for m in catalogue["per_layer"]}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in listed.items():
        print_metric(name, result["metrics"][name], entry)
    for name, value in result.get("extras", {}).items():
        print_metric(name, value, layer[name])
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")
    info = manifest(args)
    if args.trace:
        info["trace_overhead"] = result["metrics"]["trace.overhead"]
    print("manifest: " + json.dumps(info, sort_keys=True))
    metrics = {name: {"value": result["metrics"][name], "unit": entry["unit"]}
               for name, entry in listed.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
