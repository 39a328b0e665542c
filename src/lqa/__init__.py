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
    graph_total_weight,
    load_instance,
    objective,
    qubo_to_ising,
    save_instance,
)
from .solver import (
    SolveResult,
    SolverConfig,
    SolverError,
    TrialTrace,
    anneal,
    cost,
    gradient,
    init_weights,
    solve,
)
from .generators import PlantedInstance, gen_random_pm1, gen_wishart
from .oracle import brute_force_ground, single_flip_stable
from .bench import BenchSpec, TrialReport, load_bench_spec, run_batch, summarize

__all__ = [
    "BenchSpec",
    "IsingProblem",
    "PlantedInstance",
    "ProblemFormatError",
    "QuboProblem",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "TrialReport",
    "TrialTrace",
    "anneal",
    "brute_force_ground",
    "cost",
    "cut_value",
    "gen_random_pm1",
    "gen_wishart",
    "gradient",
    "graph_total_weight",
    "init_weights",
    "load_bench_spec",
    "load_instance",
    "objective",
    "qubo_to_ising",
    "run_batch",
    "save_instance",
    "single_flip_stable",
    "solve",
    "summarize",
]
