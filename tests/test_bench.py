import concurrent.futures
import dataclasses
import functools
import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqa.bench
from lqa import IsingProblem
from lqa.bench import (
    ID_MAX,
    BenchSpec,
    InstanceSpec,
    TrialReport,
    aggregate_traces,
    load_bench_spec,
    materialize,
    run_batch,
    summarize,
    trial_seed,
    write_reports_csv,
    write_summary_csv,
    write_trace_csv,
)
from lqa.solver import SolverConfig, TrialTrace


def make_report(instance="a", trial=0, rel=None, cut=None, energy=0.0, failed=False):
    return TrialReport(
        instance=instance,
        trial=trial,
        steps=10,
        final_energy=None if failed else energy,
        relative_error=rel,
        cut=cut,
        wall_ms=1.0,
        failed=failed,
    )


class TestSummarize:
    def test_single_report(self):
        s = summarize([make_report(rel=0.25)])[0]
        assert s.mean == s.min == s.max == 0.25
        assert s.std == 0.0

    def test_two_values(self):
        s = summarize([make_report(rel=1.0), make_report(rel=3.0, trial=1)])[0]
        assert (s.mean, s.min, s.max) == (2.0, 1.0, 3.0)

    def test_std_matches_two_pass(self, rng):
        vals = rng.uniform(0, 1, 100)
        reports = [make_report(rel=v, trial=i) for i, v in enumerate(vals)]
        s = summarize(reports)[0]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert s.std == pytest.approx(var**0.5, abs=1e-12)

    def test_min_le_mean_le_max(self, rng):
        reports = [make_report(rel=v, trial=i) for i, v in enumerate(rng.uniform(0, 5, 30))]
        s = summarize(reports)[0]
        assert s.min <= s.mean <= s.max

    def test_failed_trials_counted_but_excluded(self):
        reports = [make_report(rel=0.5), make_report(trial=1, failed=True)]
        s = summarize(reports)[0]
        assert s.failures == 1 and s.trials == 2 and s.mean == 0.5

    def test_every_trial_failed_leaves_statistics_empty(self):
        reports = [make_report(rel=0.5), make_report(instance="bad", failed=True)]
        s = summarize(reports)[1]
        assert (s.instance, s.trials, s.failures) == ("bad", 1, 1)
        assert (s.metric, s.mean, s.std, s.min, s.max) == (None,) * 5

    def test_metric_fallbacks(self):
        assert summarize([make_report(cut=7.0)])[0].metric == "cut"
        assert summarize([make_report(energy=-3.0)])[0].metric == "final_energy"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTrialSeeds:
    def test_stable_under_extension(self):
        # adding trials or instances never changes existing seeds
        a = trial_seed(1, 0, 0).generate_state(4)
        b = trial_seed(1, 0, 0).generate_state(4)
        assert np.array_equal(a, b)
        others = [trial_seed(1, 0, 1), trial_seed(1, 1, 0), trial_seed(2, 0, 0)]
        for ss in others:
            assert not np.array_equal(a, ss.generate_state(4))


class TestRunBatch:
    def _spec(self, **overrides):
        kwargs = dict(
            instances=(InstanceSpec(id="ferro", file=None, generator="wishart", n=8, alpha=1.0),),
            trials=3,
            seed=5,
            steps=100,
            gamma=1.0,
            step_size=0.5,
            optimizer="adam",
        )
        kwargs.update(overrides)
        return BenchSpec(**kwargs)

    def test_two_spin_ferromagnet_exact(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# ground_energy: -2.0\n0 1 1.0\n")
        spec = self._spec(
            instances=(InstanceSpec(id="afm", file=str(f)),), trials=1, steps=200
        )
        report = run_batch(spec)[0]
        assert report.relative_error == 0.0

    def test_deterministic_rerun(self):
        spec = self._spec()
        a = run_batch(spec)
        b = run_batch(spec)
        for ra, rb in zip(a, b):
            assert (ra.instance, ra.trial, ra.final_energy, ra.relative_error) == (
                rb.instance,
                rb.trial,
                rb.final_energy,
                rb.relative_error,
            )

    def _mixed_spec(self, workers):
        # a planted instance (relative error) and a traced Max-Cut one (cut)
        return self._spec(
            instances=(
                InstanceSpec(id="w", generator="wishart", n=8, alpha=1.0),
                InstanceSpec(id="cut", generator="pm1", n=12, gen_seed=3, maxcut=True),
            ),
            trials=2,
            trace_stride=10,
            workers=workers,
        )

    @staticmethod
    def _untimed(reports):
        return [dataclasses.replace(r, wall_ms=0.0) for r in reports]

    @staticmethod
    def _count_problem_pickles(monkeypatch):
        pickles = []
        reduce_ex = IsingProblem.__reduce_ex__

        def counting(self, protocol):
            pickles.append(self.n)
            return reduce_ex(self, protocol)

        monkeypatch.setattr(IsingProblem, "__reduce_ex__", counting)
        return pickles

    def test_worker_count_does_not_change_results(self):
        serial = run_batch(self._mixed_spec(workers=1))
        assert all(r.cut is not None and r.trace for r in serial if r.instance == "cut")
        assert all(r.relative_error is not None for r in serial if r.instance == "w")
        for workers in (2, 5):  # 5 is more than the 4 jobs
            assert self._untimed(run_batch(self._mixed_spec(workers))) == self._untimed(serial)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawned_workers_give_the_same_results(self, monkeypatch, method):
        # spawn and forkserver (Python 3.14's Linux default), unlike fork,
        # pickle the problems into each worker they start
        serial = run_batch(self._mixed_spec(workers=1))
        context = multiprocessing.get_context(method)
        pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(lqa.bench, "_usable_cpus", lambda: 2)  # a pool on any host
        pickles = self._count_problem_pickles(monkeypatch)
        assert self._untimed(run_batch(self._mixed_spec(workers=2))) == self._untimed(serial)
        assert 0 < len(pickles) <= 2 * 2  # two problems, at most once per worker

    def test_problems_pickled_at_most_once_per_worker(self, monkeypatch):
        pickles = self._count_problem_pickles(monkeypatch)
        run_batch(self._spec(trials=6, workers=2))
        assert len(pickles) <= 2

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="only fork workers inherit memory"
    )
    def test_forked_workers_read_the_parents_couplings(self, monkeypatch):
        # fork keeps virtual addresses, so a worker reading the parent's J
        # sees it where the parent does; a copy would live elsewhere
        def address(spec, problems, inst_idx, trial):
            return problems[inst_idx][0].J.ctypes.data

        monkeypatch.setattr(lqa.bench, "_run_trial", address)
        spec = self._mixed_spec(workers=2)
        problems = {inst.id: materialize(inst) for inst in spec.instances}
        parent = [problems[inst.id].J.ctypes.data for inst in spec.instances]
        assert run_batch(spec, problems) == [a for a in parent for _ in range(spec.trials)]

    @staticmethod
    def _record_pool_sizes(monkeypatch, cpus):
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(lqa.bench, "_usable_cpus", lambda: cpus)
        return sizes

    def test_pool_never_larger_than_the_job_count(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch, cpus=8)
        run_batch(self._spec(trials=2, workers=8))
        run_batch(self._spec(trials=1, workers=4))  # one job runs in this process
        assert sizes == [2]

    def test_pool_never_larger_than_the_usable_cpus(self, monkeypatch):
        # a pool starts all its workers at the first job, so a spec's
        # "workers": 10000 must not fork 10000 processes
        sizes = self._record_pool_sizes(monkeypatch, cpus=2)
        run_batch(self._spec(trials=8, workers=8))
        assert sizes == [2]

    def test_report_order_is_instance_then_trial(self):
        spec = self._spec(
            instances=(
                InstanceSpec(id="a", generator="wishart", n=6, alpha=1.0),
                InstanceSpec(id="b", generator="wishart", n=6, alpha=1.0, gen_seed=1),
            ),
            trials=2,
        )
        reports = run_batch(spec)
        assert [(r.instance, r.trial) for r in reports] == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1)
        ]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_failed_trial_recorded_batch_continues(self):
        # IsingProblem rejects non-finite couplings; these finite ones
        # overflow the objective of every spin assignment
        bad = IsingProblem(J=np.full((3, 3), 1e308) - np.diag([1e308] * 3))
        # the problem is passed in, so the generator never runs
        spec = self._spec(
            instances=(InstanceSpec(id="bad", generator="pm1", n=3),), trials=2, steps=5,
            optimizer="vanilla",
        )
        reports = run_batch(spec, problems={"bad": bad})
        assert len(reports) == 2
        assert all(r.failed and r.final_energy is None for r in reports)
        # J @ z overflows once the spins leave their small start
        assert [(r.reason, r.step) for r in reports] == [("non-finite parameters", 2)] * 2

    def test_best_so_far_trace_monotone(self):
        spec = self._spec(trace_stride=5)
        reports = run_batch(spec)
        for r in reports:
            best = np.minimum.accumulate(r.trace.energies)
            assert np.all(np.diff(best) <= 0)

    def test_biased_maxcut_fails_before_trials(self):
        # cut_value would also reject it, but only inside a trial and without the id
        biased = IsingProblem(J=np.zeros((2, 2)), b=np.array([1.0, 0.0]))
        spec = self._spec(instances=(InstanceSpec(id="cut", generator="pm1", n=2, maxcut=True),))
        with pytest.raises(ValueError, match="instance 'cut': maxcut needs a problem without bias"):
            run_batch(spec, problems={"cut": biased})

    def test_overflowing_maxcut_fails_before_trials(self):
        # the total edge weight 3e308 is inf: each cut would read inf or nan
        J = np.full((3, 3), 1e308) - np.diag([1e308] * 3)
        spec = self._spec(instances=(InstanceSpec(id="cut", generator="pm1", n=3, maxcut=True),))
        with pytest.raises(
            ValueError, match="^instance 'cut': maxcut needs a finite total edge weight$"
        ):
            run_batch(spec, problems={"cut": IsingProblem(J=J)})

    def test_unknown_generator_fails_before_trials(self):
        # the spec itself is rejected, before any instance is built
        with pytest.raises(ValueError, match="nope"):
            run_batch(self._spec(instances=(InstanceSpec(id="x", generator="nope"),)))


class TestAggregateTraces:
    def test_envelope(self):
        t1 = TrialTrace(steps=[1, 2], ts=[0.5, 1.0], costs=[0, 0], energies=[4.0, 2.0])
        t2 = TrialTrace(steps=[1, 2], ts=[0.5, 1.0], costs=[0, 0], energies=[3.0, 5.0])
        rows = aggregate_traces([t1, t2])
        assert rows == [(1, 3.5, 3.0, 4.0), (2, 2.5, 2.0, 3.0)]

    def test_mismatched_grids_rejected(self):
        t1 = TrialTrace(steps=[1], ts=[1.0], costs=[0], energies=[0.0])
        t2 = TrialTrace(steps=[2], ts=[1.0], costs=[0], energies=[0.0])
        with pytest.raises(ValueError):
            aggregate_traces([t1, t2])


class TestSpecFile:
    def test_load_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "version": 1,
            "seed": 9,
            "trials": 2,
            "steps": 50,
            "optimizer": "momentum",
            "momentum": 0.99,
            "instances": [
                {"id": "w", "generator": "wishart", "n": 10, "alpha": 0.5, "gen_seed": 3,
                 "step_size": 2.0},
            ],
        }))
        spec = load_bench_spec(spec_path)
        assert spec.trials == 2 and spec.optimizer == "momentum"
        assert spec.instances[0].step_size == 2.0
        assert spec.solver_config(spec.instances[0]).step_size == 2.0
        assert materialize(spec.instances[0]).n == 10

    def test_omitted_settings_take_solver_config_defaults(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"version": 1, "instances": [{"id": "a", "generator": "pm1", "n": 4}]}'
        )
        spec = load_bench_spec(spec_path)
        assert spec.solver_config() == spec.solver_config(spec.instances[0]) == SolverConfig()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"momentm": 0.5}, r"unknown key 'momentm'"),
            ({"instances": [{"id": "a", "generator": "pm1", "nn": 4}]},
             r"instances\[0\]: unknown key 'nn'"),
            ({"instances": [{"generator": "pm1", "n": 4}]}, r"instances\[0\]: missing key 'id'"),
            ({"instances": {"id": "a"}}, "'instances' must be a list"),
            ({"trials": "2"}, "bad value '2' for 'trials'"),
            ({"steps": True}, "bad value True for 'steps'"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 4}]},
             "instance 'w': generator 'wishart' needs n and alpha"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 6},
                            {"id": "a", "generator": "pm1", "n": 8}]},
             "duplicate instance id 'a'"),
            ({"optimizer": "sgd"}, "optimizer must be one of"),
            ({"momentum": 1.5}, r"momentum must be in \[0, 1\]"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 4, "step_size": 0}]},
             "instance 'a': step_size must be > 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"workers": -3}, "workers must be >= 1"),
            ({"workers": 0}, "workers must be >= 1"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 4, "gen_seed": -1}]},
             "instance 'a': gen_seed must be >= 0"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 4, "alpha": math.inf}]},
             "instance 'w': alpha must be > 0 and finite"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 4, "alpha": math.nan}]},
             "instance 'w': alpha must be > 0 and finite"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 1}]},
             "instance 'a': n must be >= 2"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 20000}]},
             "instance 'a': n 20000 is above the cap of 16384 spins"),
            ({"instances": [{"id": "", "generator": "pm1", "n": 4}]},
             "instance '': id must not be empty"),
            ({"instances": [{"id": "a,b", "generator": "pm1", "n": 4}]},
             "instance 'a,b': id must not hold ','"),
            ({"instances": [{"id": 'a"b', "generator": "pm1", "n": 4}]},
             "instance 'a\"b': id must not hold '\"'"),
            ({"instances": [{"id": "a\nb", "generator": "pm1", "n": 4}]},
             r"instance 'a\\nb': id must not hold '\\n'"),
            ({"instances": [{"id": "a\rb", "generator": "pm1", "n": 4}]},
             r"instance 'a\\rb': id must not hold '\\r'"),
            ({"instances": [{"id": "a\0b", "generator": "pm1", "n": 4}]},
             r"instance 'a\\x00b': id must not hold '\\x00'"),
            ({"instances": [{"id": "x/y", "generator": "pm1", "n": 4}]},
             "instance 'x/y': id must not hold '/'"),
            ({"instances": [{"id": "caf\u00e9", "generator": "pm1", "n": 4}]},
             "instance 'caf\u00e9': id must not hold '\u00e9'"),
            ({"instances": [{"id": "x" * 201, "generator": "pm1", "n": 4}]},
             "instance 'x{201}': id is longer than 200 characters"),
            ({"instances": [{"id": "x", "file": "a.txt", "generator": "wishart", "n": 50,
                             "alpha": 0.5}]},
             "instance 'x': a file takes no 'generator'"),
            ({"instances": [{"id": "x", "file": "a.txt", "n": 50}]},
             "instance 'x': a file takes no 'n'"),
            ({"instances": [{"id": "x", "generator": "nope"}]},
             "instance 'x': no file and unknown generator 'nope'"),
            ({"instances": [{"id": "x"}]}, "instance 'x': no file and unknown generator None"),
            ({"instances": [{"id": "x", "generator": "pm1", "n": 4, "alpha": 0.5}]},
             "instance 'x': generator 'pm1' takes no 'alpha'"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 2, "alpha": 0.1}]},
             "instance 'w': alpha \\* n rounds to 0 columns; need at least 1"),
            ({"instances": [{"id": "x", "file": "a.txt", "gen_seed": 3}]},
             "instance 'x': a file takes no 'gen_seed'"),
            # alpha * n overflows to inf; round() of it would raise OverflowError
            ({"instances": [{"id": "w", "generator": "wishart", "n": 2, "alpha": 1e308}]},
             "instance 'w': alpha \\* n is above the cap of 16384 columns"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 8, "alpha": 2048.1}]},
             "instance 'w': alpha \\* n is above the cap of 16384 columns"),
        ],
        ids=[
            "unknown-key", "unknown-instance-key", "missing-id", "instances-not-list",
            "string-for-int", "bool-for-int", "wishart-without-alpha", "duplicate-id",
            "bad-optimizer", "bad-momentum", "bad-instance-step-size",
            "negative-seed", "negative-workers", "zero-workers",
            "negative-gen-seed", "infinite-alpha", "nan-alpha", "n-below-two", "n-above-cap",
            "empty-id", "comma-in-id", "quote-in-id", "newline-in-id", "return-in-id",
            "nul-in-id", "slash-in-id", "non-ascii-id", "long-id",
            "file-and-generator", "file-and-n", "unknown-generator", "no-source",
            "pm1-with-alpha", "wishart-without-columns", "file-with-gen-seed",
            "alpha-times-n-overflows", "columns-above-cap",
        ],
    )
    def test_bad_spec_rejected(self, tmp_path, edit, message):
        spec_path = tmp_path / "spec.json"
        spec = {"version": 1, "steps": 20, "instances": [{"id": "a", "generator": "pm1", "n": 4}]}
        spec_path.write_text(json.dumps({**spec, **edit}))
        with pytest.raises(ValueError, match=message) as exc:
            load_bench_spec(spec_path)
        assert str(exc.value).startswith(f"{spec_path}: ")

    def test_longest_id_accepted(self):
        assert InstanceSpec(id="x" * ID_MAX, generator="pm1", n=4).id == "x" * ID_MAX

    def test_gen_seed_defaults_to_zero_for_a_generator_only(self):
        assert InstanceSpec(id="a", generator="pm1", n=4).gen_seed == 0
        assert InstanceSpec(id="a", file="a.txt").gen_seed is None

    def test_wrong_version_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"version": 99, "instances": [{"id": "x", "generator": "pm1", "n": 4}]}')
        with pytest.raises(ValueError, match="version"):
            load_bench_spec(spec_path)


# valid instance entries, and boundary JSON values for their keys; a
# built instance stays small (n <= 8)
_ENTRIES = {
    "pm1": {"id": "a", "generator": "pm1", "n": 8},
    "wishart": {"id": "w", "generator": "wishart", "n": 8, "alpha": 0.5},
    "file": {"id": "f", "file": "p.txt"},
}
_NUMBERS = [-1, 0, 1, 2, 8, 16385, 0.5, 1e308, math.inf, math.nan, None]
_ENTRY_EDITS = {
    "file": ["p.txt", None],
    "generator": ["pm1", "wishart", "nope", None],
    "n": _NUMBERS, "alpha": _NUMBERS, "gen_seed": _NUMBERS,
}


class TestSpecProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        base=st.sampled_from(sorted(_ENTRIES)),
        edits=st.lists(st.sampled_from(sorted(_ENTRY_EDITS)), max_size=2, unique=True).flatmap(
            lambda ks: st.fixed_dictionaries({k: st.sampled_from(_ENTRY_EDITS[k]) for k in ks})
        ),
    )
    def test_spec_entry_rejected_at_load_or_built(self, tmp_path_factory, base, edits):
        """An instance entry with up to two keys set to boundary values is
        either rejected by ``load_bench_spec``, with a ValueError naming the
        spec file, or loads and builds; never another exception."""
        root = tmp_path_factory.mktemp("spec")
        (root / "p.txt").write_text("0 1 1.0\n1 2 -0.5\nb 0 0.7\n")
        spec_path = root / "spec.json"
        entry = {**_ENTRIES[base], **edits}
        if entry.get("file"):
            entry["file"] = str(root / entry["file"])
        spec_path.write_text(json.dumps({"version": 1, "steps": 5, "instances": [entry]}))
        try:
            spec = load_bench_spec(spec_path)
        except ValueError as exc:
            assert str(exc).startswith(f"{spec_path}: ")
            return
        (inst,) = spec.instances
        assert materialize(inst).n == (3 if inst.file else inst.n)


class TestCsvOutput:
    def test_reports_csv(self, tmp_path):
        path = tmp_path / "trials.csv"
        failed = dataclasses.replace(make_report(trial=1, failed=True), reason="non-finite cost", step=7)
        write_reports_csv([make_report(rel=0.5, energy=-2.0), failed], path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "instance,trial,steps,final_energy,relative_error,cut,wall_ms,failed,reason,step"
        )
        assert lines[1] == "a,0,10,-2.0,0.5,,1.000,0,,"
        assert lines[2] == "a,1,10,,,,1.000,1,non-finite cost,7"

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize([make_report(rel=0.5)]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "instance,trials,failures,metric,mean,std,min,max"
        assert lines[1] == "a,1,0,relative_error,0.5,0.0,0.5,0.5"

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv([(5, 3.5, 3.0, 4.0), (10, 0.1 + 0.2, -1e-300, 2.0)], path)
        assert path.read_text() == (
            "step,best_energy_mean,best_energy_min,best_energy_max\n"
            "5,3.5,3.0,4.0\n"
            "10,0.30000000000000004,-1e-300,2.0\n"
        )

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_reports_csv([make_report()], path)
        before = path.read_text()
        with pytest.raises(UnicodeEncodeError):
            write_reports_csv([make_report(instance="\u00e9")], path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_no_partial_file_left_behind(self, tmp_path):
        path = tmp_path / "out.csv"
        write_reports_csv([make_report()], path)
        assert not (tmp_path / "out.csv.tmp").exists()
