"""Command-line entry point: solve, generate, bench, oracle.

Exit codes: 0 success, 1 usage, input parse or file error, 2 runtime
failure. All randomness flows from --seed; when omitted a seed is
drawn and printed so the run stays reproducible after the fact.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

# `solve` needs only these; the other commands import their modules
# themselves, so start-up stays short
from .ising import atomic_write, load_instance, save_instance
from .solver import OPTIMIZERS, SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
# `lqa oracle` prints at most this many minimisers after their count
ORACLE_SHOWN = 16


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="path to a text-format instance file")
    p_solve.add_argument("--steps", type=int, default=SolverConfig.steps,
                         help="anneal steps N (default %(default)s)")
    p_solve.add_argument("--gamma", type=float, default=SolverConfig.gamma,
                         help="coupling-term strength (default %(default)s)")
    p_solve.add_argument("--eta", type=float, default=SolverConfig.step_size,
                         help="step size (default %(default)s)")
    p_solve.add_argument("--optimizer", choices=OPTIMIZERS, default=SolverConfig.optimizer,
                         help="update rule (default %(default)s)")
    p_solve.add_argument("--momentum", type=float, default=SolverConfig.momentum,
                         help="momentum coefficient (default %(default)s)")
    p_solve.add_argument("--init-scale", type=float, default=SolverConfig.init_scale,
                         help="initial weight scale (default %(default)s)")
    p_solve.add_argument("--seed", type=int, default=None, help="RNG seed (random if omitted)")
    p_solve.add_argument("--trace", metavar="PATH", help="write per-step trace CSV here")
    # the stride once --trace is given; SolverConfig.trace_stride's 0 means no trace
    p_solve.add_argument("--trace-stride", type=int, default=1,
                         help="record every k-th step of the trace (default %(default)s)")
    p_solve.add_argument("--output", metavar="PATH", help="also write the result lines to a file")

    p_gen = sub.add_parser("generate", help="generate an instance file")
    p_gen.add_argument("family", choices=("pm1", "wishart"), help="instance family")
    p_gen.add_argument("--n", type=int, required=True, help="number of spins")
    # None, not 1.0, so a pm1 run can tell that --alpha was given
    p_gen.add_argument("--alpha", type=float, default=None,
                       help="Wishart aspect ratio m/n (default 1.0)")
    p_gen.add_argument("--seed", type=int, default=None, help="RNG seed (random if omitted)")
    p_gen.add_argument("--out", required=True, help="output instance path")

    p_bench = sub.add_parser("bench", help="run a benchmark spec")
    p_bench.add_argument("spec", help="path to a JSON bench spec")
    p_bench.add_argument("--output-prefix", default="bench",
                         help="CSV prefix; its directory must exist (default 'bench')")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="trial parallelism (overrides the spec's workers)")

    p_oracle = sub.add_parser("oracle", help="brute-force ground state of a small instance")
    p_oracle.add_argument("instance", help="path to a text-format instance file")
    return parser


def _pick_seed(seed: int | None) -> int:
    if seed is None:
        import secrets

        seed = secrets.randbits(32)
        print(f"seed: {seed}")
    elif seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def _spin_string(s: np.ndarray) -> str:
    return "".join("+" if v > 0 else "-" for v in s)


def _check_output(path: str) -> None:
    # fail before any work, not when the file is written
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output {path!r} is a directory")


def _cmd_solve(args) -> int:
    if args.trace and args.trace_stride < 1:
        raise ValueError("--trace-stride must be >= 1")
    cfg = SolverConfig(
        steps=args.steps,
        gamma=args.gamma,
        step_size=args.eta,
        momentum=args.momentum,
        optimizer=args.optimizer,
        init_scale=args.init_scale,
        trace_stride=args.trace_stride if args.trace else 0,
    )
    for path in (args.output, args.trace):
        if path:
            _check_output(path)
    problem = load_instance(args.instance)
    cfg.seed = _pick_seed(args.seed)
    result = solve(problem, cfg)
    lines = [f"energy: {result.energy!r}"]
    if result.relative_error is not None:
        lines.append(f"relative_error: {result.relative_error!r}")
    lines.append(f"spins: {_spin_string(result.spins)}")
    text = "\n".join(lines)
    print(text)
    if args.output:
        atomic_write(args.output, text + "\n")
    if args.trace:
        result.trace.write_csv(args.trace)
    return EXIT_OK


def _cmd_generate(args) -> int:
    from .generators import FAMILIES, check_args, generate

    alpha = 1.0 if args.alpha is None and "alpha" in FAMILIES[args.family] else args.alpha
    given = {"n": args.n, "alpha": alpha}
    check_args(args.family, **given)
    _check_output(args.out)
    seed = _pick_seed(args.seed)
    problem = generate(args.family, seed=seed, **given)
    params = "".join(f" {k}={v!r}" for k, v in given.items() if v is not None)
    save_instance(problem, args.out, header_comments=[f"generator: {args.family}{params} seed={seed}"])
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    spec = bench_mod.load_bench_spec(args.spec)
    if args.workers is not None:
        spec = dataclasses.replace(spec, workers=args.workers)
    for name in ("trials", "summary"):
        _check_output(f"{args.output_prefix}_{name}.csv")
    reports = bench_mod.run_batch(spec)
    bench_mod.write_reports_csv(reports, f"{args.output_prefix}_trials.csv")
    summaries = bench_mod.summarize(reports)
    bench_mod.write_summary_csv(summaries, f"{args.output_prefix}_summary.csv")
    for inst in spec.instances:  # untraced and failed trials have no trace
        traces = [r.trace for r in reports if r.instance == inst.id and r.trace]
        if traces:
            rows = bench_mod.aggregate_traces(traces)
            bench_mod.write_trace_csv(rows, f"{args.output_prefix}_{inst.id}_trace.csv")
    for s in summaries:  # the trials CSV says why each trial failed
        if s.failures == s.trials:
            msg = f"instance {s.instance!r}: every trial failed"
            print(f"lqa: runtime failure: {msg}", file=sys.stderr)
            return EXIT_RUNTIME
    failures = sum(r.failed for r in reports)
    print(f"ran {len(reports)} trials ({failures} failed); wrote {args.output_prefix}_*.csv")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import brute_force_ground

    problem = load_instance(args.instance)
    e, minimisers = brute_force_ground(problem)
    print(f"ground_energy: {e!r}")
    print(f"minimisers: {len(minimisers)}")
    for s in minimisers[:ORACLE_SHOWN]:
        print(_spin_string(s))
    if len(minimisers) > ORACLE_SHOWN:
        print(f"... {len(minimisers) - ORACLE_SHOWN} more")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"lqa: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"lqa: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
