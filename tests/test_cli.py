import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqa
import lqa.generators
from lqa import SolverConfig, load_instance
from lqa.bench import aggregate_traces, load_bench_spec, run_batch
from lqa.cli import build_parser, main
from lqa.ising import MAX_SPINS
from lqa.oracle import brute_force_ground
from lqa.solver import OPTIMIZERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ferro_file(tmp_path):
    f = tmp_path / "afm.txt"
    f.write_text("# ground_energy: -2.0\n0 1 1.0\n")
    return str(f)


@pytest.fixture
def biased_file(tmp_path):
    # ground state -++ at energy -4.0 (see TestOracle)
    f = tmp_path / "biased.txt"
    f.write_text("0 1 1.0\n1 2 -0.5\nb 0 0.7\nb 2 -0.3\n")
    return str(f)


class TestSolve:
    def test_two_spin_instance(self, capsys, ferro_file):
        code, out, _ = run_cli(
            capsys, "solve", ferro_file, "--steps", "200", "--seed", "1"
        )
        assert code == 0
        assert "energy: -2.0" in out
        assert "relative_error: 0.0" in out
        assert "spins: " in out

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_biased_instance(self, capsys, biased_file, seed):
        code, out, _ = run_cli(capsys, "solve", biased_file, "--steps", "200", "--seed", str(seed))
        assert code == 0
        assert out.splitlines() == ["energy: -4.0", "spins: -++"]

    def test_missing_file_names_path(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/no/such/file.txt")
        assert code == 1
        assert "/no/such/file.txt" in err

    def test_non_ascii_file_names_line(self, capsys, tmp_path):
        f = tmp_path / "u.txt"
        f.write_bytes("0 1 1.0\n# caf\u00e9\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "solve", str(f), "--steps", "5")
        assert code == 1
        assert err == f"lqa: error: {f}:2: not ASCII text\n"
        assert out == ""

    def test_repeat_runs_byte_identical(self, capsys, tmp_path, ferro_file):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "solve", ferro_file,
                "--steps", "500", "--gamma", "0.1", "--eta", "1",
                "--optimizer", "adam", "--seed", "7",
                "--output", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_output_naming_a_directory_exits_one(self, capsys, tmp_path, ferro_file):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = run_cli(
            capsys, "solve", ferro_file, "--steps", "10", "--seed", "1", "--output", str(out_dir)
        )
        assert code == 1
        assert err.startswith("lqa: error: ")
        assert "Traceback" not in err
        assert out_dir.is_dir() and not list(out_dir.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afm.txt", "out"]

    def test_negative_seed_exits_one(self, capsys, ferro_file):
        code, out, err = run_cli(capsys, "solve", ferro_file, "--seed", "-1")
        assert code == 1
        assert err == "lqa: error: seed must be >= 0\n"
        assert out == ""

    @pytest.mark.parametrize("flag", [["--steps", "0"], ["--gamma", "-1"], ["--momentum", "nan"]])
    def test_bad_flag_rejected_before_seed_is_drawn(self, capsys, ferro_file, flag):
        code, out, err = run_cli(capsys, "solve", ferro_file, *flag)
        assert code == 1 and err.startswith("lqa: error: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("flag", ["--output", "--trace"])
    def test_missing_output_directory_rejected_before_solving(self, capsys, tmp_path, ferro_file, flag):
        path = tmp_path / "nodir" / "o.txt"
        code, out, err = run_cli(capsys, "solve", ferro_file, "--seed", "1", flag, str(path))
        assert (code, out) == (1, "")
        assert err == f"lqa: error: output directory {str(tmp_path / 'nodir')!r} does not exist\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afm.txt"]

    def test_omitted_seed_is_printed(self, capsys, ferro_file):
        code, out, _ = run_cli(capsys, "solve", ferro_file, "--steps", "10")
        assert code == 0
        assert "seed: " in out

    def test_trace_csv(self, capsys, tmp_path, ferro_file):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", ferro_file, "--steps", "20", "--seed", "1",
            "--trace", str(trace), "--trace-stride", "5",
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,t,cost,energy"
        assert len(lines) == 5  # steps 5,10,15,20 at stride 5

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_trace_stride_below_one_exits_one(self, capsys, tmp_path, ferro_file, stride):
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(
            capsys, "solve", ferro_file, "--seed", "1", "--trace", str(trace), "--trace-stride", stride
        )
        assert code == 1
        assert err == "lqa: error: --trace-stride must be >= 1\n"
        assert out == ""
        assert not trace.exists()

    def test_trace_csv_holds_the_solver_trace(self, capsys, tmp_path, biased_file):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", biased_file, "--steps", "20", "--seed", "3",
            "--trace", str(trace), "--trace-stride", "3",
        )
        assert code == 0
        result = lqa.solve(load_instance(biased_file), SolverConfig(steps=20, seed=3, trace_stride=3))
        tr = result.trace
        assert tr.steps == [3, 6, 9, 12, 15, 18, 20]
        rows = zip(tr.steps, tr.ts, tr.costs, tr.energies)
        expected = "step,t,cost,energy\n" + "".join(f"{s},{t!r},{c!r},{e!r}\n" for s, t, c, e in rows)
        assert trace.read_text() == expected


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("0 1 1.0\n0 2 inf\n", 1, ":2: non-finite coupling inf"),
            ("0 1 nan\n", 1, ":1: non-finite coupling nan"),
            (f"0 1 1.0\n0 {2**40} 1.0\n", 1, f":2: index {2**40} is at or above the cap"),
            # finite couplings whose objective overflows for every assignment;
            # one vanilla step leaves w finite (see test_overflowed_objective_raises)
            ("0 1 1e308\n0 2 1e308\n1 2 1e308\n", 2, "non-finite objective -?inf"),
            ("# ground_energy: nan\n0 1 1.0\n", 1, ":1: bad ground_energy value"),
            ("0 1 1.0\n# ground_energy: -inf\n", 1, ":2: bad ground_energy value"),
            ("0 1 1.0\n# offset: 1e400\n", 1, ":2: bad offset value"),
        ],
    )
    def test_bad_values_exit_code(self, capsys, tmp_path, text, code, message):
        f = tmp_path / "p.txt"
        f.write_text(text)
        got, out, err = run_cli(
            capsys, "solve", str(f), "--steps", "1", "--optimizer", "vanilla", "--seed", "1"
        )
        assert got == code
        assert re.search(message, err)
        assert "energy" not in out


class TestGenerate:
    def test_wishart_ground_energy_matches_oracle(self, capsys, tmp_path):
        out_path = tmp_path / "w.txt"
        code, _, _ = run_cli(
            capsys, "generate", "wishart", "--n", "12", "--alpha", "1.0",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        p = load_instance(out_path)
        e, _ = brute_force_ground(p)
        assert e == pytest.approx(p.ground_energy, rel=1e-9)

    def test_pm1_line_count(self, capsys, tmp_path):
        out_path = tmp_path / "pm1.txt"
        code, _, _ = run_cli(
            capsys, "generate", "pm1", "--n", "40", "--seed", "1", "--out", str(out_path)
        )
        assert code == 0
        coupling_lines = [
            l for l in out_path.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(coupling_lines) == 40 * 39 // 2

    def test_wishart_alpha_defaults_to_one(self, capsys, tmp_path):
        files = [tmp_path / "default.txt", tmp_path / "given.txt"]
        for path, alpha in zip(files, [[], ["--alpha", "1.0"]]):
            code, _, _ = run_cli(
                capsys, "generate", "wishart", "--n", "8", *alpha, "--seed", "3", "--out", str(path)
            )
            assert code == 0
        text = files[0].read_text()
        assert text.startswith("# generator: wishart n=8 alpha=1.0 seed=3\n")
        assert text == files[1].read_text()

    def test_bad_n_rejected_before_writing(self, capsys, tmp_path, monkeypatch):
        real = lqa.generators.gen_random_pm1

        def capped(n, seed):
            # a problem above the cap would take gigabytes; never build one
            assert n <= MAX_SPINS, f"generated a problem with n = {n}"
            return real(n, seed)

        monkeypatch.setattr(lqa.generators, "gen_random_pm1", capped)
        out_path = tmp_path / "x.txt"
        for argv, message in [
            (["pm1", "--n", "0", "--seed", "1"], "n must be >= 2"),
            (["wishart", "--n", "10", "--alpha", "inf", "--seed", "1"],
             "alpha must be > 0 and finite"),
            (["wishart", "--n", "10", "--alpha", "nan", "--seed", "1"],
             "alpha must be > 0 and finite"),
            (["pm1", "--n", "10", "--seed", "-1"], "seed must be >= 0"),
            (["pm1", "--n", "16385", "--seed", "1"], "n 16385 is above the cap of 16384 spins"),
            (["pm1", "--n", "4", "--alpha", "0.5", "--seed", "1"], "generator 'pm1' takes no 'alpha'"),
            # no seed drawn and printed either
            (["pm1", "--n", "4", "--alpha", "0.5"], "generator 'pm1' takes no 'alpha'"),
            (["pm1", "--n", "1"], "n must be >= 2"),
            (["wishart", "--n", "10", "--alpha", "inf"], "alpha must be > 0 and finite"),
            (["wishart", "--n", "2", "--alpha", "1e308", "--seed", "1"],
             "alpha * n is above the cap of 16384 columns"),
        ]:
            code, out, err = run_cli(capsys, "generate", *argv, "--out", str(out_path))
            assert (code, out, err) == (1, "", f"lqa: error: {message}\n"), argv
            assert not out_path.exists()

    def test_missing_output_directory_rejected_before_generating(self, capsys, tmp_path, monkeypatch):
        def no_generate(*args, **kwargs):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(lqa.generators, "generate", no_generate)
        out_path = tmp_path / "nodir" / "x.txt"
        code, out, err = run_cli(capsys, "generate", "pm1", "--n", "10", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"lqa: error: output directory {str(tmp_path / 'nodir')!r} does not exist\n"
        assert list(tmp_path.iterdir()) == []

    def test_families_are_the_generators(self):
        # argparse's choices are the one other list of the families
        for family in lqa.generators.FAMILIES:
            assert build_parser().parse_args(["generate", family, "--n", "2", "--out", "x"])
        assert sorted(lqa.generators.FAMILIES) == ["pm1", "wishart"]


class TestBench:
    def _spec_file(self, tmp_path, **extra):
        spec = {
            "version": 1,
            "seed": 2,
            "trials": 1,
            "steps": 100,
            "gamma": 1.0,
            "step_size": 0.5,
            "optimizer": "adam",
            "instances": [{"id": "w", "generator": "wishart", "n": 10, "alpha": 1.0}],
        }
        spec.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_one_trial_csv(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        code, _, _ = run_cli(
            capsys, "bench", spec, "--output-prefix", str(tmp_path / "run")
        )
        assert code == 0
        lines = (tmp_path / "run_trials.csv").read_text().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "run_summary.csv").exists()

    def test_trace_stride_writes_one_envelope_per_instance(self, capsys, tmp_path):
        instances = [
            {"id": "w", "generator": "wishart", "n": 10, "alpha": 1.0},
            {"id": "p", "generator": "pm1", "n": 8, "maxcut": True},
        ]
        spec = self._spec_file(tmp_path, trials=2, trace_stride=30, instances=instances)
        code, _, _ = run_cli(capsys, "bench", spec, "--output-prefix", str(tmp_path / "run"))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "spec.json", "run_trials.csv", "run_summary.csv", "run_w_trace.csv", "run_p_trace.csv"
        }
        reports = run_batch(load_bench_spec(spec))
        for inst in ("w", "p"):
            rows = aggregate_traces([r.trace for r in reports if r.instance == inst])
            assert [step for step, *_ in rows] == [30, 60, 90, 100]
            expected = "step,best_energy_mean,best_energy_min,best_energy_max\n" + "".join(
                f"{step},{mean!r},{lo!r},{hi!r}\n" for step, mean, lo, hi in rows
            )
            assert (tmp_path / f"run_{inst}_trace.csv").read_text() == expected

    def test_bad_spec_fails_before_output(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path, version=42)
        code, _, _ = run_cli(
            capsys, "bench", spec, "--output-prefix", str(tmp_path / "run")
        )
        assert code == 1
        assert not (tmp_path / "run_trials.csv").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"momentm": 0.5}, "unknown key 'momentm'"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 6},
                            {"id": "a", "generator": "pm1", "n": 8}]},
             "duplicate instance id 'a'"),
            # the setting is checked before the missing file is opened
            ({"momentum": 1.5, "instances": [{"id": "f", "file": "/no/such/file.txt"}]},
             "momentum must be in"),
            # a comma would add a CSV field, a slash a directory to the trace path
            ({"trace_stride": 5, "instances": [{"id": "a,b", "generator": "pm1", "n": 4},
                                               {"id": "x/y", "generator": "pm1", "n": 4}]},
             "instance 'a,b': id must not hold ','"),
            # one problem source per instance, known before any instance is built
            ({"instances": [{"id": "x", "file": "a.txt", "generator": "wishart", "n": 50,
                             "alpha": 0.5}]},
             "instance 'x': a file takes no 'generator'"),
            ({"instances": [{"id": "a", "generator": "pm1", "n": 4},
                            {"id": "x", "generator": "nope"}]},
             "instance 'x': no file and unknown generator 'nope'"),
            # a key the generator does not take is not ignored
            ({"instances": [{"id": "x", "generator": "pm1", "n": 4, "alpha": 0.5}]},
             "instance 'x': generator 'pm1' takes no 'alpha'"),
            # known from the spec, so no earlier instance is built first
            ({"instances": [{"id": "a", "generator": "pm1", "n": 4},
                            {"id": "w", "generator": "wishart", "n": 2, "alpha": 0.1}]},
             "instance 'w': alpha * n rounds to 0 columns; need at least 1"),
            ({"instances": [{"id": "x", "file": "a.txt", "gen_seed": 3}]},
             "instance 'x': a file takes no 'gen_seed'"),
            ({"instances": [{"id": "w", "generator": "wishart", "n": 2, "alpha": 1e308}]},
             "instance 'w': alpha * n is above the cap of 16384 columns"),
        ],
        ids=[
            "unknown-key", "duplicate-id", "bad-setting", "unsafe-id", "file-and-generator",
            "unknown-generator", "pm1-with-alpha", "wishart-without-columns",
            "file-with-gen-seed", "alpha-times-n-overflows",
        ],
    )
    def test_bad_spec_exits_one(self, capsys, tmp_path, extra, message):
        spec = self._spec_file(tmp_path, **extra)
        code, _, err = run_cli(
            capsys, "bench", spec, "--output-prefix", str(tmp_path / "run")
        )
        assert code == 1
        assert err.startswith(f"lqa: error: {spec}: ") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_worker_counts_agree(self, capsys, tmp_path):
        def run(workers, prefix):
            spec = self._spec_file(tmp_path, trials=3)
            code, _, _ = run_cli(
                capsys, "bench", spec, "--workers", str(workers),
                "--output-prefix", str(tmp_path / prefix),
            )
            assert code == 0
            rows = (tmp_path / f"{prefix}_trials.csv").read_text().splitlines()
            # drop the wall-time column before comparing
            return [",".join(r.split(",")[:6]) for r in rows]

        assert run(1, "serial") == run(2, "parallel")

    def test_every_trial_failed_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1e308\n0 2 1e308\n1 2 1e308\n")
        instances = [
            {"id": "ok", "generator": "pm1", "n": 8, "maxcut": True},
            {"id": "bad", "file": str(bad)},
        ]
        spec = self._spec_file(
            tmp_path, trials=2, steps=50, trace_stride=10, instances=instances
        )
        code, _, err = run_cli(capsys, "bench", spec, "--output-prefix", str(tmp_path / "mix"))
        assert (code, err) == (2, "lqa: runtime failure: instance 'bad': every trial failed\n")
        rows = (tmp_path / "mix_trials.csv").read_text().splitlines()[1:]
        # failed, with its reason and step, on each of bad's rows
        assert [row.split(",")[-3:] for row in rows[2:]] == [
            ["1", "non-finite Adam second moment", "1"]
        ] * 2
        # the instance that ran keeps its summary row and its trace
        summary = (tmp_path / "mix_summary.csv").read_text().splitlines()[1:]
        assert summary[0].startswith("ok,2,0,cut,")
        assert summary[1] == "bad,2,2,,,,,"
        assert (tmp_path / "mix_ok_trace.csv").exists()
        assert not (tmp_path / "mix_bad_trace.csv").exists()

    def test_missing_output_directory_exits_one_before_any_trial(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(lqa.bench, "materialize", no_trials)
        monkeypatch.setattr(lqa.bench, "_run_trial", no_trials)
        spec = self._spec_file(tmp_path)
        prefix = str(tmp_path / "nodir" / "run")
        code, _, err = run_cli(capsys, "bench", spec, "--output-prefix", prefix)
        assert code == 1
        assert err == f"lqa: error: output directory {str(tmp_path / 'nodir')!r} does not exist\n"
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_zero_workers_exits_one(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        code, _, err = run_cli(
            capsys, "bench", spec, "--workers", "0", "--output-prefix", str(tmp_path / "run")
        )
        assert code == 1
        assert "workers must be >= 1" in err
        assert not (tmp_path / "run_trials.csv").exists()


class TestOracle:
    def test_prints_ground_state(self, capsys, ferro_file):
        code, out, _ = run_cli(capsys, "oracle", ferro_file)
        assert code == 0
        assert "ground_energy: -2.0" in out
        assert "+-" in out and "-+" in out

    def test_biased_file_prints_its_own_spins(self, capsys, biased_file):
        code, out, _ = run_cli(capsys, "oracle", biased_file)
        assert code == 0
        assert out.splitlines() == ["ground_energy: -4.0", "minimisers: 1", "-++"]

    def test_prints_at_most_sixteen_minimisers(self, capsys, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("# n: 12\n")  # no couplings: all 4096 configurations tie
        code, out, _ = run_cli(capsys, "oracle", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["ground_energy: 0.0", "minimisers: 4096"]
        assert lines[2:18] == [
            "-" * 8 + "".join("+" if (j >> (3 - b)) & 1 else "-" for b in range(4))
            for j in range(16)
        ]
        assert lines[18:] == ["... 4080 more"]

    def test_cap_has_no_override(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        lines = [f"{i} {i+1} 1.0" for i in range(24)]  # 25 spins
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "oracle", str(f))
        assert code == 1
        assert "capped at 24 spins (got 25)" in err
        assert out == ""
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(f), "--force"])
        assert exc.value.code == 1


class TestStartup:
    """`lqa solve` imports only ising, solver and cli; the other modules
    load when a command needs them."""

    def test_cli_import_leaves_other_modules_out(self):
        code = (
            "import sys, lqa.cli; "
            "print([m for m in ('lqa.bench', 'lqa.generators', 'lqa.oracle', "
            "'concurrent.futures', 'secrets') if m in sys.modules])"
        )
        src = str(Path(lqa.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "[]"

    def test_every_exported_name_resolves(self):
        assert sorted(lqa.__all__) == sorted([
            "IsingProblem", "ProblemFormatError", "SolverConfig", "SolverError", "cut_value",
            "load_instance", "objective", "qubo_to_ising", "save_instance", "solve",
        ])
        for name in lqa.__all__:
            assert getattr(lqa, name).__name__ == name
        # the anneal kernel, the step functions and the bench, generators and
        # oracle names are reached through their modules only; a QUBO is two arrays
        for name in (
            "anneal", "cost", "gradient", "run_batch", "gen_wishart", "brute_force_ground",
            "QuboProblem", "no_such_name",
        ):
            assert not hasattr(lqa, name)
        assert not hasattr(lqa.ising, "QuboProblem")

    def test_every_traced_name_resolves(self):
        # the tracer skips a missing name, and its layer metrics would read 0
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.WRAPPED
        for module, attribute, *_ in tracer.WRAPPED:
            assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)

    def test_readme_exports_table_is_all(self):
        # README's count and rows of the exported names, against lqa.__all__
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        count, table = re.search(
            r"^The (\d+) names in `lqa\.__all__`.*\n\n((?:\|.*\n)+)", readme, re.M
        ).groups()
        rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
        assert len(table.splitlines()) == 2 + len(rows)  # a header and a rule
        assert sorted(rows) == sorted(lqa.__all__)
        assert int(count) == len(lqa.__all__)

    def test_star_import_binds_every_exported_name(self):
        namespace = {}
        exec("from lqa import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(lqa.__all__)


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_solve_help_lists_all_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--steps", "--gamma", "--eta", "--optimizer", "--momentum",
            "--init-scale", "--seed", "--trace", "--trace-stride", "--output",
        ):
            assert flag in out

    def test_solve_defaults_are_solver_config_defaults(self):
        args = build_parser().parse_args(["solve", "f"])
        cfg = SolverConfig()
        flags = (args.steps, args.gamma, args.eta, args.momentum, args.optimizer, args.init_scale)
        fields = (cfg.steps, cfg.gamma, cfg.step_size, cfg.momentum, cfg.optimizer, cfg.init_scale)
        assert flags == fields

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # missing instance argument
        assert exc.value.code == 1


# boundary values the input-space properties below draw from; a run
# that is accepted stays small (n <= 8, steps <= 5)
_INTS = ["-1", "0", "1", "2", "8", "16385"]
_FLOATS = ["-1", "0", "0.5", "1", "2", "8", "16385", "1e308", "inf", "nan"]
_OUTPUTS = ["missing-dir", "directory", "file"]
# what a drawn argv edits, and the values each edit may take; an
# argument that is not edited keeps a valid value
_GENERATE_EDITS = {
    "--n": _INTS, "--alpha": _FLOATS, "--seed": ["-1", "0", "1"], "--out": _OUTPUTS,
}
_SOLVE_EDITS = {
    "instance": ["missing", "malformed"],
    "--steps": ["-1", "0", "1", "2"],
    "--gamma": _FLOATS, "--eta": _FLOATS, "--momentum": _FLOATS, "--init-scale": _FLOATS,
    "--optimizer": list(OPTIMIZERS),
    "--seed": ["-1", "0", "1"],
    "--trace-stride": ["-1", "0", "1", "2"],
    "--output": _OUTPUTS, "--trace": _OUTPUTS,
}


def _edits(table):
    """Up to two entries of ``table``, each with one of its values."""
    keys = st.lists(st.sampled_from(sorted(table)), max_size=2, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: st.sampled_from(table[k]) for k in ks}))


def _run_main(argv):
    """``main(argv)`` with stdout and stderr captured. An exception it
    does not catch (a traceback, for the user) propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _out_path(root, kind):
    """A path under ``root`` of the kind drawn: a new file, a file in a
    directory that does not exist, or an existing empty directory."""
    if kind == "directory":
        os.makedirs(os.path.join(root, "dir"), exist_ok=True)
        return os.path.join(root, "dir")
    return os.path.join(root, "missing" if kind == "missing-dir" else "", "out.txt")


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, dirs, files in os.walk(root) for f in dirs + files)


def _assert_rejected(out, err, before, root):
    # exit 1: one error line, nothing on stdout, nothing written
    assert err.startswith("lqa: error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert out == ""
    assert _tree(root) == before


class TestEntryPointProperties:
    """A valid ``lqa generate`` or ``lqa solve`` argv with up to two
    arguments set to boundary values either exits 1 before it prints or
    writes anything, or runs to complete outputs; none ends in a
    traceback."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(family=st.sampled_from(["pm1", "wishart"]), edits=_edits(_GENERATE_EDITS))
    def test_generate_fails_fast_or_writes(self, tmp_path_factory, family, edits):
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as root:
            args = {"--n": "8", **edits, "--out": _out_path(root, edits.get("--out", "file"))}
            argv = ["generate", family, *(a for kv in args.items() for a in kv)]
            before = _tree(root)
            code, out, err = _run_main(argv)
            if code == 1:
                _assert_rejected(out, err, before, root)
                return
            assert (code, err) == (0, "")
            lines = out.splitlines()
            if "--seed" not in args:
                assert re.fullmatch(r"seed: \d+", lines.pop(0))
            assert lines == [f"wrote {args['--out']}"]
            assert load_instance(args["--out"]).n == int(args["--n"])
            assert _tree(root) == sorted(before + ["out.txt"])

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(edits=_edits(_SOLVE_EDITS))
    def test_solve_fails_fast_or_runs(self, tmp_path_factory, edits):
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as root:
            path = os.path.join(root, "p.txt")
            kind = edits.pop("instance", "biased")
            if kind != "missing":
                text = "0 1 1.0\n1 2 -0.5\nb 0 0.7\nb 2 -0.3\n"
                Path(path).write_text(text if kind == "biased" else text + "0 1\n")
            args = {"--steps": "5", **edits}
            for flag in ("--output", "--trace"):  # one kind drawn twice names one path
                if flag in args:
                    args[flag] = _out_path(root, args[flag])
            argv = ["solve", path, *(a for kv in args.items() for a in kv)]
            before = _tree(root)
            code, out, err = _run_main(argv)
            if code == 1:
                _assert_rejected(out, err, before, root)
                return
            lines = out.splitlines()
            if "--seed" not in args:
                assert re.fullmatch(r"seed: \d+", lines.pop(0))
            if code == 2:
                assert err.startswith("lqa: runtime failure: ") and err.count("\n") == 1, err
                assert lines == [] and _tree(root) == before
                return
            assert (code, err) == (0, "")
            assert [line.split(":")[0] for line in lines] == ["energy", "spins"]
            written = {args[f] for f in ("--output", "--trace") if f in args}
            assert _tree(root) == sorted(set(before) | {os.path.relpath(p, root) for p in written})
            if "--trace" in args:
                assert Path(args["--trace"]).read_text().startswith("step,t,cost,energy\n")
            elif "--output" in args:
                assert Path(args["--output"]).read_text() == "\n".join(lines) + "\n"
