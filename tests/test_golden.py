"""Golden outputs of the anneal loop, the instance generators and the oracle.

The expected spins and trace values below are a recorded reference run;
a change to the loop or the optimizers must reproduce them bit for bit.
Floats are compared exactly, via their repr. Generated instances are
compared by the sha256 of their bytes, oracle minimisers by the sha256 of
the stacked minimiser array, and instance files by the sha256 of the file
save_instance writes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqa
from lqa import IsingProblem, SolverConfig, anneal, save_instance
from lqa.generators import gen_random_pm1, gen_wishart
from lqa.oracle import brute_force_ground
from lqa.solver import init_weights
from conftest import random_ising, random_symmetric

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


def _sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


# n -> sha256 of gen_random_pm1(n, 1).J; 255-257 straddle a 256-wide tile edge
GOLDEN_PM1 = {
    2: "24cc908a4ef61eb71d1f811b447b0defc382d05c4d7c327a0436b1f6faf9326b",
    3: "d32078da87f45090f51152774d69886528e19102a9ab373e66a4e59fd3843685",
    255: "a439413fe027bd59f3c3efd1d07253bce97f7cc5d03e9beb7e34c7443a6b1197",
    256: "3af8be4eb2bf703c29a9fdd0ebbededbd91d1d1c38a36febecda73184ef1822d",
    257: "cdf65b12c06a46beadc4be5f5e88dfa123221a1f388ed45e2a18cd758b5f6046",
    2000: "d1e2ac7c0a6068dad9e243a8e569acc0172429e490841009045619ab36f839bb",
}

# (n, alpha) -> sha256 of J, sha256 of planted, ground_energy of
# gen_wishart(n, alpha, 2) with one BLAS thread: the last bits of the BLAS
# product W @ W.T follow the thread count (at n=500, not at n=60)
GOLDEN_WISHART = {
    (60, 0.8): (
        "14e33d9bd82872a0beb5c9831c80c50b982481052e39703009eecc8ad734a581",
        "615f2d760b6146251e5797b8ef56648964d36b5aee296f2e759a49dc422b9d90",
        -46.99879227265736,
    ),
    (500, 0.7): (
        "207325cb10c55b166f62618d023213164056d909b91a7cc67fbfda1d424b2453",
        "0f6d6054d69757f8d9f2d21b6d163448123309222b042e649c5cc063d7bb0ea7",
        -349.51858333328437,
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_PM1))
def test_random_pm1_matches_golden_bytes(n):
    assert _sha256(gen_random_pm1(n, 1).J) == GOLDEN_PM1[n]


# every BLAS/OpenMP thread variable; each must be set before numpy loads
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


@pytest.fixture(scope="module")
def wishart_one_thread():
    """(n, alpha) -> the GOLDEN_WISHART fields of gen_wishart(n, alpha, 2),
    generated in a subprocess that runs BLAS on one thread."""
    code = (
        "import hashlib, json, sys\n"
        "from lqa.generators import gen_wishart\n"
        "sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()\n"
        "out = []\n"
        "for n, alpha in json.loads(sys.argv[1]):\n"
        "    inst = gen_wishart(n, alpha, 2)\n"
        "    out.append([sha(inst.problem.J), sha(inst.planted), repr(inst.problem.ground_energy)])\n"
        "print(json.dumps(out))\n"
    )
    cases = sorted(GOLDEN_WISHART)
    src = str(Path(lqa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **{var: "1" for var in BLAS_THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cases)],
        capture_output=True, text=True, check=True, env=env,
    )
    return dict(zip(cases, json.loads(proc.stdout)))


@pytest.mark.parametrize("n, alpha", sorted(GOLDEN_WISHART))
def test_wishart_matches_golden_bytes(n, alpha, wishart_one_thread):
    J_hash, planted_hash, ground = GOLDEN_WISHART[(n, alpha)]
    assert wishart_one_thread[(n, alpha)] == [J_hash, planted_hash, repr(ground)]


# (kind, n, seed) -> repr of the ground energy, minimiser count, sha256 of np.stack(minimisers)
GOLDEN_ORACLE = {
    ("uniform", 20, 20): (
        "-66.90885779364348", 2,
        "6e9c93f809cfdb3ea5e15190762b4ba86b415c5ac11919acd7e02a57f22715eb",
    ),
    ("biased", 13, 13): (
        "-43.29520415726782", 1,
        "17ac0812d0e07fce4963e0cdf05c34853cf1635c6e809045c3db9bfd07056c43",
    ),
    ("biased", 24, 24): (
        "-101.66038408426594", 1,
        "7fccecfee0e0ca75a5b2ec3f617285756b091eb888cc5742a4893c8b04d4622d",
    ),
    ("tiny", 16, 16): (
        "-4.8690926753964815e-306", 2,
        "d8b3edc82b02cfc5c941848e1a8969a750e6fcde92f0b8735644f5d73ba24fe1",
    ),
    ("uniform", 24, 24): (
        "-101.13155949172827", 2,
        "9107db37e13765901bf290183f48e0addd89065daeabb04eb57399494135cf14",
    ),
    ("ternary", 20, 4): (
        "-84.0", 14,
        "9fd51908ed274e0ba66688707ce7e6ce40c953a2af656b8cfe0b4356dcbbb45f",
    ),
    ("zero", 10, 0): (
        "0.0", 1024,
        "e0b702494f61c87781badb5f15a8028b1199cca894b26632595b8551b899359c",
    ),
}


def _oracle_instance(kind, n, seed):
    """uniform: U[-1, 1] couplings as in small20_oracle; biased: plus a U[-1, 1]
    bias per spin; tiny: uniform scaled by 1e-307, so partial sums of the
    cross term come near the subnormal range; ternary: couplings in
    {-1, 0, 1}, so minimisers tie; zero: no couplings, so all 2^n
    configurations are minimisers."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return IsingProblem(J=np.zeros((n, n)))
    if kind == "ternary":
        J = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        J[iu] = rng.integers(-1, 2, len(iu[0])).astype(np.float64)
        J.T[iu] = J[iu]
        return IsingProblem(J=J)
    J = random_symmetric(n, rng)
    if kind == "tiny":
        J *= 1e-307
    return IsingProblem(J=J, b=rng.uniform(-1.0, 1.0, n) if kind == "biased" else None)


@pytest.mark.parametrize("kind, n, seed", sorted(GOLDEN_ORACLE))
def test_oracle_matches_golden_minimisers(kind, n, seed):
    ground, count, mins_hash = GOLDEN_ORACLE[(kind, n, seed)]
    e, mins = brute_force_ground(_oracle_instance(kind, n, seed))
    assert repr(e) == ground
    assert len(mins) == count
    assert _sha256(np.stack(mins)) == mins_hash


# name -> byte count and sha256 of the file save_instance writes
GOLDEN_FILES = {
    "wishart-bias-header": (47086, "d633fd5b836572b6a5ad0eeb34bf1c17b1ee346510fcac332a16b9c3ae78340e"),
    "pm1-257": (383149, "6c1a4bf4196fbb2c5893fc84f1dbeb1067649b2c402bdbd2376457b1c209c177"),
    "all-zero": (7, "33649e899a3a6f5e9a0e04e3cfcd023d730dbe7d26ff41470639c5fb6252a958"),
    "negative-zero": (17, "b05fb50d1eb65c6286f1d4925b03d497070c3a820279b4db6938334c53ecf8b6"),
}


def _file_instance(name):
    """The problem and header comments of one GOLDEN_FILES entry. The
    all-zero problem writes only its spin count, "# n: 3\\n"; -0.0 entries
    and a -0.0 offset are not written."""
    if name == "wishart-bias-header":
        inst = gen_wishart(60, 0.8, 2)
        p = IsingProblem(J=inst.problem.J, b=-0.1 * inst.planted,
                         ground_energy=inst.problem.ground_energy - 0.1 * 60)
        return p, ["planted wishart n=60 alpha=0.8 seed=2"]
    if name == "pm1-257":
        return gen_random_pm1(257, 1), ()
    if name == "all-zero":
        return IsingProblem(J=np.zeros((3, 3))), ()
    J = np.array([[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0], [0.5, -0.0, 0.0]])
    return IsingProblem(J=J, b=[-0.0, 0.25, 0.0], offset=-0.0), ()


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_save_instance_matches_golden_bytes(name, tmp_path):
    size, file_hash = GOLDEN_FILES[name]
    p, header = _file_instance(name)
    path = tmp_path / "p.txt"
    save_instance(p, path, header_comments=header)
    data = path.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == file_hash
