"""Golden outputs of the anneal loop.

The expected spins and trace values below are a recorded reference run;
a change to the loop or the optimizers must reproduce them bit for bit.
Floats are compared exactly, via their repr.
"""

import numpy as np
import pytest

from lqa import SolverConfig, anneal
from lqa.solver import init_weights
from conftest import random_ising

# (n, optimizer) -> (spins, trace costs, trace energies)
GOLDEN = {
    (5, "vanilla"): (
        [1, 1, -1, -1, 1],
        [-3.7495471194543697, -2.500024382774765, -1.251978146006325, -0.3563479805318535],
        [-0.36341177764495214, -4.777195594864269, -6.825500172390893, -6.825500172390893],
    ),
    (5, "momentum"): (
        [1, 1, -1, -1, 1],
        [-3.749500272311008, -2.500253048476404, -2.096961553496463, -3.387553683702865],
        [3.00304419595186, -6.825500172390893, -6.825500172390893, -6.825500172390893],
    ),
    (5, "adam"): (
        [-1, -1, 1, 1, -1],
        [-3.748906942143141, -2.50120143735863, -2.523747424391397, -3.348084272214608],
        [-5.967859636854733, -6.825500172390893, -6.825500172390893, -6.825500172390893],
    ),
    (20, "vanilla"): (
        [1, 1, 1, 1, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1, -1, 1, 1, -1, -1, 1],
        [-14.999439288210837, -10.103316405511332, -16.52879295520964, -25.125189025812443],
        [-31.47832797165703, -61.20740745273105, -49.30992951642118, -57.15960908976625],
    ),
    (20, "momentum"): (
        [-1, -1, -1, -1, 1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, -1, -1, 1, 1, -1],
        [-14.99436566501544, -16.171792492626054, -21.898524292428554, -28.445110118275],
        [-32.99650668367165, -49.30992951642118, -57.15960908976625, -57.15960908976625],
    ),
    (20, "adam"): (
        [1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1],
        [-14.994857223907418, -12.900035419666354, -22.986985823597237, -30.34326625953272],
        [1.6279982446761645, -61.20740745273105, -61.20740745273105, -61.20740745273105],
    ),
}


@pytest.mark.parametrize("n, optimizer", sorted(GOLDEN))
def test_anneal_matches_golden_output(n, optimizer):
    spins, costs, energies = GOLDEN[(n, optimizer)]
    p = random_ising(n, np.random.default_rng(1000 + n))
    cfg = SolverConfig(
        steps=60, gamma=0.5, step_size=0.05, momentum=0.9,
        optimizer=optimizer, trace_stride=15,
    )
    s, trace = anneal(p, cfg, init_weights(n, 0.1, 7))
    assert [int(v) for v in s] == spins
    assert trace.steps == [15, 30, 45, 60]
    assert [repr(c) for c in trace.costs] == [repr(c) for c in costs]
    assert [repr(e) for e in trace.energies] == [repr(e) for e in energies]
