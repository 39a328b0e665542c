"""Quantum-inspired local annealing for QUBO / Ising optimisation.

The solver relaxes each spin to a continuous angle, follows a
time-interpolated cost function by gradient descent (one update per
time step), and reads out spins as the sign of the final parameters.
Companion modules provide exact reductions between QUBO and Ising
forms, seeded benchmark-instance generators (random +-J and Wishart
planted ensembles), a brute-force oracle for small systems, and a
trial-batch benchmark harness.
"""

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
from .generators import gen_random_pm1, gen_wishart
from .oracle import brute_force_ground
from .bench import BenchSpec, load_bench_spec, run_batch, summarize

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
