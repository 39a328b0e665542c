"""Quantum-inspired local annealing for QUBO / Ising optimisation.

The solver relaxes each spin to a continuous angle, follows a
time-interpolated cost function by gradient descent (one update per
time step), and reads out spins as the sign of the final parameters.
Companion modules provide exact reductions between QUBO and Ising
forms, seeded benchmark-instance generators (random +-J and Wishart
planted ensembles) in `lqa.generators`, a brute-force oracle for small
systems in `lqa.oracle`, and a trial-batch benchmark harness in
`lqa.bench`; import those modules by name.
"""

from .ising import (
    IsingProblem,
    ProblemFormatError,
    cut_value,
    load_instance,
    objective,
    qubo_to_ising,
    save_instance,
)
from .solver import (
    SolverConfig,
    SolverError,
    solve,
)

__all__ = [
    "IsingProblem",
    "ProblemFormatError",
    "SolverConfig",
    "SolverError",
    "cut_value",
    "load_instance",
    "objective",
    "qubo_to_ising",
    "save_instance",
    "solve",
]
