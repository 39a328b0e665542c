"""Annealed cost function, analytic gradient, optimizers, and the anneal loop.

Each spin i carries a real parameter w_i mapped to an angle
theta_i = (pi/2) tanh(w_i). The annealed cost at interpolation time
t in [0, 1] is

    C(t, w) = t * gamma * z^T J z - (1 - t) * sum(x)

with z_i = sin(theta_i) and x_i = cos(theta_i). At t = 0 the minimum
is w = 0 (all angles zero); at t = 1 the cost approaches
gamma * s^T J s with s = sign(w) as |w| grows. The anneal loop makes
one gradient update per time step and reads out sign(w) at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ising import IsingProblem, absorb_bias, normalize_ancilla, objective, write_csv

HALF_PI = math.pi / 2.0

# numpy takes a slower path for a Python float operand than for a 0-d
# array (550-610 against 360-390 ns an operation on 20 values, numpy 2.4
# on a 2-vCPU VM), so the step's constants, and the two coefficients
# anneal refills each step, are 0-d float64 arrays; the arithmetic, and
# its bits, are the same
_HALF_PI = np.array(HALF_PI)
_ONE = np.array(1.0)
_HALF_PI.flags.writeable = _ONE.flags.writeable = False

OPTIMIZERS = ("vanilla", "momentum", "adam")

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SolverError(RuntimeError):
    """Raised when the optimisation produces non-finite values.

    ``reason`` names what turned non-finite, without commas so that it
    fits one CSV field ("non-finite parameters", "non-finite Adam second
    moment", "non-finite cost", "non-finite objective"), and ``step`` is
    the anneal step at which it was seen. The message defaults to
    "<reason> at step <step>".
    """

    def __init__(self, reason: str, step: int, message: str | None = None):
        super().__init__(message or f"{reason} at step {step}")
        self.reason = reason
        self.step = step

    def __reduce__(self):
        # keeps the error picklable with its fields, as tests/test_solver.py pins
        return type(self), (self.reason, self.step, str(self))


@dataclass
class SolverConfig:
    """Hyperparameters for one annealing run.

    The one source of the solver defaults: the CLI flags and the bench
    spec take theirs from these fields. Step i of N anneals at
    t = i / N. ``trace_stride`` > 0 records (step, t, cost, energy)
    every that many steps; 0 disables tracing.
    """

    steps: int = 1000
    gamma: float = 0.1
    step_size: float = 1.0
    momentum: float = 0.99
    optimizer: str = "adam"
    init_scale: float = 0.1
    seed: int | np.random.SeedSequence = 0
    trace_stride: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # the chained comparisons are False for nan
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be > 0 and finite")
        if not 0.0 < self.step_size < math.inf:
            raise ValueError("step_size must be > 0 and finite")
        if not math.isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must be in [0, 1]")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.trace_stride < 0:
            raise ValueError("trace_stride must be >= 0")


def spin_readout(w: np.ndarray) -> np.ndarray:
    """sign(w) with the tie-break sign(0) = +1."""
    return np.where(np.asarray(w) >= 0.0, 1.0, -1.0)


def _angles(w: np.ndarray):
    """(tanh w, z, x) for theta = (pi/2) tanh w, as new arrays."""
    th = np.tanh(w)
    z = np.multiply(th, _HALF_PI)  # theta, until sin overwrites it
    x = np.cos(z)
    np.sin(z, out=z)
    return th, z, x


def cost(p: IsingProblem, w: np.ndarray, t: float, gamma: float) -> float:
    """Annealed cost t*gamma*z^T J z - (1-t)*sum(x), for an unbiased p and
    a float64 w of shape (n,): unchecked, as :func:`anneal` ensures both."""
    _, z, x = _angles(w)
    return float(t * gamma * (z @ (p.J @ z)) - (1.0 - t) * x.sum())


def gradient(
    p: IsingProblem, w: np.ndarray, cz: float | np.ndarray, cx: float | np.ndarray
) -> np.ndarray:
    """Analytic gradient of the annealed cost with respect to w, as a
    new array, given the step's coefficients cz = t * gamma * 2.0 and
    cx = 1.0 - t (floats, or 0-d float64 arrays as :func:`anneal`
    passes them).

    grad = (pi/2) * [cz (J z) . x + cx z] . (1 - tanh(w)^2)
    where . is elementwise multiplication. The J z product dominates
    the runtime at large n; ``J.dot`` gives the bits of ``J @ z`` with
    less dispatch. The formula is evaluated in place on the step's own
    temporaries, in the order of the expression above (IEEE * and + are
    commutative, so the bits are those of the one-line form). p and w
    are unchecked, as in :func:`cost`.
    """
    th, z, x = _angles(w)
    g = p.J.dot(z)
    g *= cz
    g *= x
    z *= cx
    g += z
    g *= _HALF_PI
    th *= th
    np.subtract(_ONE, th, out=th)
    g *= th
    return g


def update_momentum(
    w: np.ndarray, v: np.ndarray, grad: np.ndarray, eta: float, mu: float
) -> None:
    """Momentum step, in place: v <- mu*v - eta*grad; w <- w + v.
    At mu = 0 this is plain gradient descent, the "vanilla" optimizer."""
    v *= mu
    v -= eta * grad
    w += v


def update_adam(
    w: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    grad: np.ndarray,
    eta: float,
    k: int,
) -> np.ndarray:
    """Adam step k >= 1 with bias correction, updating w and the moments
    m1, m2 in place. Returns the bias-corrected second moment m2_hat."""
    m1 *= ADAM_BETA1
    m1 += (1.0 - ADAM_BETA1) * grad
    m2 *= ADAM_BETA2
    m2 += (1.0 - ADAM_BETA2) * grad * grad
    m1_hat = m1 / (1.0 - ADAM_BETA1**k)
    m2_hat = m2 / (1.0 - ADAM_BETA2**k)
    w -= eta * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
    return m2_hat


@dataclass
class TrialTrace:
    """Per-step records captured during an anneal, at a fixed stride."""

    steps: list[int] = field(default_factory=list)
    ts: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)

    def append(self, step: int, t: float, c: float, e: float) -> None:
        self.steps.append(step)
        self.ts.append(t)
        self.costs.append(c)
        self.energies.append(e)

    def write_csv(self, path) -> None:
        write_csv(path, "step,t,cost,energy", zip(self.steps, self.ts, self.costs, self.energies))


def init_weights(n: int, init_scale: float, seed) -> np.ndarray:
    """Seeded initial parameters init_scale * uniform[-1, 1]^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return init_scale * rng.uniform(-1.0, 1.0, size=n)


def anneal(
    p: IsingProblem, cfg: SolverConfig, w0: np.ndarray
) -> tuple[np.ndarray, TrialTrace | None]:
    """Run the anneal loop and return (sign(w), trace or None).

    For i = 1..N: t = i / N, one gradient evaluation, one
    optimizer update. Deterministic given (p, cfg, w0); no randomness
    is consumed inside the loop. The solver's one input check: p has
    no bias, and w0 is finite with shape (n,).
    """
    if p.has_bias:
        raise ValueError("problem has a nonzero bias; call solve instead")
    w = np.array(w0, dtype=np.float64)  # a copy: the loop updates w in place
    if w.shape != (p.n,):
        raise ValueError(f"w0 has shape {w.shape}, expected ({p.n},)")
    if not np.isfinite(w).all():
        raise ValueError("w0 must be finite")
    v, m1, m2 = np.zeros_like(w), np.zeros_like(w), np.zeros_like(w)
    ones = np.ones_like(w)  # watched @ ones sums watched, faster than .sum()
    # Adam's step m1_hat / sqrt(m2_hat) is 0 where m2_hat overflowed and
    # nan where the gradient did, so under Adam m2_hat is the array that
    # turns non-finite; m2_hat >= m2, so it overflows no later than m2.
    # Under the other rules a non-finite gradient reaches w
    watched = w
    adam = cfg.optimizer == "adam"
    what = "Adam second moment" if adam else "parameters"
    trace = TrialTrace() if cfg.trace_stride > 0 else None
    steps, gamma = cfg.steps, cfg.gamma
    eta = np.array(cfg.step_size, dtype=np.float64)  # 0-d, like _HALF_PI
    mu = np.array(0.0 if cfg.optimizer == "vanilla" else cfg.momentum, dtype=np.float64)
    cz, cx = np.empty(()), np.empty(())  # the step's coefficients, refilled each step
    # no numpy warning for an overflow or inf / inf = nan: the check below
    # reports any non-finite value as a SolverError naming the step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            t = i / steps
            cz[()] = t * gamma * 2.0
            cx[()] = 1.0 - t
            g = gradient(p, w, cz, cx)
            if adam:
                watched = update_adam(w, m1, m2, g, eta, i)
            else:
                update_momentum(w, v, g, eta, mu)
            # exact: a nan or inf entry makes the sum non-finite, and a
            # sum that overflowed from finite entries is checked again
            if not math.isfinite(watched.dot(ones)) and not np.isfinite(watched).all():
                raise SolverError(f"non-finite {what}", i)
            if trace is not None and (i % cfg.trace_stride == 0 or i == steps):
                c = cost(p, w, t, gamma)
                s = spin_readout(w)
                e = float(s @ (p.J @ s))
                if not math.isfinite(c):
                    raise SolverError("non-finite cost", i)
                trace.append(i, t, c, e)
    return spin_readout(w), trace


@dataclass
class SolveResult:
    """Outcome of a full solve: spins for the original problem plus
    the objective value and relative error when the optimum is known."""

    spins: np.ndarray
    energy: float
    relative_error: float | None
    trace: TrialTrace | None


def solve(p: IsingProblem, cfg: SolverConfig, w0: np.ndarray | None = None) -> SolveResult:
    """Solve p end to end: absorb any bias, anneal, normalise the
    ancilla on readout, and report the objective of the original
    problem. w0, drawn from cfg.seed when not given, has a last entry
    for the ancilla when p has biases."""
    work = absorb_bias(p) if p.has_bias else p
    if w0 is None:
        w0 = init_weights(work.n, cfg.init_scale, cfg.seed)
    s, trace = anneal(work, cfg, w0)
    if p.has_bias:
        s = normalize_ancilla(s)
    # finite couplings can still overflow the sum; that is reported below
    with np.errstate(over="ignore"):
        e = objective(p, s)
    if not math.isfinite(e):
        raise SolverError(
            "non-finite objective", cfg.steps,
            f"non-finite objective {e!r} after the last step ({cfg.steps})",
        )
    rel = None
    if p.ground_energy is not None and p.ground_energy != 0.0:
        rel = abs((e - p.ground_energy) / p.ground_energy)
    return SolveResult(spins=s, energy=e, relative_error=rel, trace=trace)
