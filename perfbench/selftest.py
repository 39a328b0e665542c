"""Self-tests of the benchmark (not part of the lqa test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import hashlib
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread variables first)

run.import_lqa()

import lqa.solver  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = run.load_catalogue()
NAMES = [w["name"] for w in CATALOGUE["workloads"]]


def test_catalogue_lists_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_all_workloads_emits_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(NAMES) + 1  # one per workload, then the combined line
    listed = CATALOGUE["per_layer" if trace else "end_to_end"]
    for name, result in zip(NAMES, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [m["name"] for m in listed] == list(result["metrics"])
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if not trace:
                assert result["metrics"][m["name"]]["value"] > 0, (name, m["name"])
    for m in listed:
        printed = [line.split() for line in lines if line.split()[:1] == [m["name"]]]
        assert len(printed) >= len(NAMES)
        assert all(p[2] == m["unit"] and p[3:] == [f"({m['better']}", "is", "better)"] for p in printed)
    combined = results[-1]
    assert combined["correct"]
    assert set(combined["metrics"]) == {f"{w}.{m['name']}" for w in NAMES for m in listed}


def test_timings_are_medians_at_reference_speed():
    R = workloads.Round
    # two distinct rounds (cycle 2), each run twice; scale 2 means the host ran at half speed
    rounds = [R(0.1, [40.0, 60.0]), R(0.3, [300.0]), R(0.2, [80.0, 120.0], scale=0.5),
              R(0.2, [100.0], scale=2.0)]
    m = run.timing_metrics(rounds, cycle=2)
    assert m["wall_s"] == pytest.approx(0.225)  # median of median(0.1, 0.1) and median(0.3, 0.4)
    assert m["trials_per_s"] == pytest.approx((20 + 10 / 3) / 2)  # median of 20, 10/3, 20 and 2.5
    assert m["trial_ms.p50"] == pytest.approx(60.0)  # median of 40, 60, 300, 40, 60, 200


def test_clock_scales_by_the_bracketing_references(monkeypatch):
    times = iter([run.REF_S, 3 * run.REF_S, 2 * run.REF_S])
    monkeypatch.setattr(run, "reference", lambda: next(times))
    clock = run.Clock()
    assert clock.scale() == pytest.approx(0.5)  # mean of the bracket is twice REF_S
    assert clock.scale() == pytest.approx(0.4)
    assert clock.samples == [run.REF_S, 3 * run.REF_S, 2 * run.REF_S]


def test_reference_on_every_cpu_restores_the_affinity():
    before = os.sched_getaffinity(0)
    assert run.reference_on_every_cpu() > 0
    assert os.sched_getaffinity(0) == before


def _fingerprint(inputs: dict) -> str:
    digest = hashlib.sha256(pickle.dumps(inputs))
    for value in inputs.values():
        if isinstance(value, Path) and value.is_file():
            digest.update(value.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_seed_determines_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name](tiny=True)
    null = tracer.NullTracer()
    first = _fingerprint(wl.setup(1, null, tmp_path))
    again = _fingerprint(wl.setup(1, null, tmp_path))
    other = _fingerprint(wl.setup(2, null, tmp_path))
    assert first == again
    assert first != other


def _wrapped_attrs():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.WRAPPED}


def test_traced_run_restores_wrapped_functions():
    before = _wrapped_attrs()
    result = run.run_workload("small20_oracle", 1, 0.1, trace=True, tiny=True)
    assert result["metrics"]["solver.gradient.calls"] == 1.0
    after = _wrapped_attrs()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restored_when_the_block_raises():
    before = _wrapped_attrs()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert lqa.solver.gradient is not before[("lqa.solver", "gradient")]
            raise RuntimeError
    after = _wrapped_attrs()
    assert all(after[key] is before[key] for key in before)


def test_layer_the_program_stops_calling_reads_zero():
    # as if anneal no longer called the public gradient, and a wrapped name were deleted
    wrapped = tuple(w for w in tracer.WRAPPED if w[1] != "gradient")
    wrapped += (("lqa.solver", "no_such_function", "solver.gone", None),)
    t = tracer.Tracer(wrapped)
    p = lqa.IsingProblem(J=[[0.0, 1.0], [1.0, 0.0]])
    with t.installed():
        lqa.solver.anneal(p, lqa.SolverConfig(steps=5), [0.1, -0.1])
    metrics = run.span_metrics(t.spans, [])
    assert metrics["solver.gradient.calls"] == 0.0
    assert metrics["solver.matvec.gflops"] == 0.0
    assert metrics["solver.anneal.us_per_step"] > 0.0
    assert not hasattr(lqa.solver, "no_such_function")
