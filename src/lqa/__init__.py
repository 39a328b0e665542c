"""Quantum-inspired local annealing for QUBO / Ising optimisation.

The solver relaxes each spin to a continuous angle, follows a
time-interpolated cost function by gradient descent (one update per
time step), and reads out spins as the sign of the final parameters.
Companion modules provide exact reductions between QUBO and Ising
forms, seeded benchmark-instance generators (random +-J and Wishart
planted ensembles), a brute-force oracle for small systems, and a
trial-batch benchmark harness.
"""

import importlib

from .ising import (
    IsingProblem,
    ProblemFormatError,
    QuboProblem,
    cut_value,
    load_instance,
    objective,
    qubo_to_ising,
    save_instance,
)
from .solver import (
    SolverConfig,
    SolverError,
    anneal,
    cost,
    gradient,
    solve,
)

# Names from bench, generators and oracle are imported on first access
# (PEP 562), so `lqa solve` loads neither those modules nor theirs.
_LAZY = {
    "BenchSpec": "bench",
    "load_bench_spec": "bench",
    "run_batch": "bench",
    "summarize": "bench",
    "gen_random_pm1": "generators",
    "gen_wishart": "generators",
    "brute_force_ground": "oracle",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BenchSpec",
    "IsingProblem",
    "ProblemFormatError",
    "QuboProblem",
    "SolverConfig",
    "SolverError",
    "anneal",
    "brute_force_ground",
    "cost",
    "cut_value",
    "gen_random_pm1",
    "gen_wishart",
    "gradient",
    "load_bench_spec",
    "load_instance",
    "objective",
    "qubo_to_ising",
    "run_batch",
    "save_instance",
    "solve",
    "summarize",
]
