"""End-to-end tests of the command-line interface.

Commands run in-process through `cli(argv)` so exit codes and file
outputs can be checked without spawning subprocesses; only the
`python -m athena.cli` entry point is run in a fresh interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import athena.cli
from athena.cli import cli
from test_harness import Runaway, reject_constant


def write_trace_csv(path, times, columns):
    names = list(columns)
    with open(path, "w") as fh:
        fh.write("time," + ",".join(names) + "\n")
        for k, t in enumerate(times):
            cells = [format(t, ".17g")]
            cells += [format(columns[name][k], ".17g") for name in names]
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def flat_speed_csv(tmp_path):
    path = tmp_path / "flat.csv"
    times = [k * 0.05 for k in range(401)]
    write_trace_csv(path, times, {"Speed": [100.0] * 401})
    return str(path)


@pytest.fixture
def sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    times = [k * 0.05 for k in range(201)]
    write_trace_csv(path, times, {"x": [math.sin(t) for t in times]})
    return str(path)


class TestArgHandling:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli(["falsify", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_catalog_excludes_inline_flags(self, capsys):
        rc = cli(["falsify", "--catalog", "AT1", "--plant", "passthrough"])
        assert rc == 2
        assert "excludes" in capsys.readouterr().err

    def test_catalog_excludes_auto_scale(self, capsys):
        rc = cli(["falsify", "--catalog", "AT1", "--auto-scale", "5"])
        assert rc == 2
        assert "excludes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_auto_scale_exits_2(self, tmp_path, capsys, value):
        rc = cli(["falsify", "--plant", "passthrough", "--formula", "G[0,10] (y < 2)",
                  "--assumption", "x:linear:0,1:3", "--auto-scale", value,
                  "--out", str(tmp_path / "tc")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: auto_scale must be finite, got {value}\n"
        assert not (tmp_path / "tc.json").exists()

    def test_bench_non_finite_auto_scale_exits_2(self, tmp_path, capsys):
        # json writes and reads the NaN literal
        cfg = {"plant": "passthrough", "formula": "G[0,10] (y < 2)",
               "assumption": "x:linear:0,1:3", "auto_scale": math.nan, "repetitions": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["bench", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: auto_scale must be finite, got nan\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("step", True, "step must be a number, got True"),
            ("step", "0.1", "step must be a number, got '0.1'"),
            ("step", math.nan, "step must be finite, got nan"),
            ("auto_scale", "2", "auto_scale must be a number, got '2'"),
        ],
    )
    def test_bench_non_numeric_step_or_auto_scale_exits_2(
        self, tmp_path, capsys, key, value, message
    ):
        cfg = {"plant": "passthrough", "formula": "G[0,10] (y < 2)",
               "assumption": "x:linear:0,1:3", "repetitions": 1, key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["bench", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_p_excludes_p_schedule(self, tmp_path, capsys):
        rc = cli(["falsify", "--catalog", "AT1", "--p", "0.9", "--p-schedule", "1,0",
                  "--out", str(tmp_path / "tc")])
        assert rc == 2
        assert "exclusive" in capsys.readouterr().err
        assert not (tmp_path / "tc.json").exists()

    def test_unknown_catalog_id_exits_2(self, capsys):
        assert cli(["falsify", "--catalog", "AT99"]) == 2
        assert "AT99" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = cli(["falsify", "--catalog", "AT1", "--seed", "-1", "--out", str(tmp_path / "tc")])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "tc.json").exists()


class TestModuleEntryPoint:
    """`python -m athena.cli` runs the command line, and `import athena`
    loads no third-party module but numpy, each in a fresh interpreter."""

    def python(self, cwd, *args):
        src = Path(athena.cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def run(self, cwd, *argv):
        return self.python(cwd, "-m", "athena.cli", *argv)

    def test_falsify_writes_its_report(self, tmp_path):
        proc = self.run(tmp_path, "falsify", "--catalog", "AT1", "--max-iters", "3", "--out", "tc")
        assert proc.returncode in (0, 1), proc.stderr
        payload = json.loads((tmp_path / "tc.json").read_text())
        assert payload["entry"] == "AT1" and payload["budget"] == 3
        assert payload["iterations_used"] <= 3
        assert "wrote tc.json" in proc.stdout

    def test_bad_flag_exits_2(self, tmp_path):
        proc = self.run(tmp_path, "falsify", "--bogus")
        assert proc.returncode == 2
        assert "--bogus" in proc.stderr

    def test_import_loads_only_the_standard_library_and_numpy(self, tmp_path):
        # numpy is the one runtime dependency; modules that the interpreter
        # loaded before the import (such as a site hook's) are not counted
        code = (
            "import sys; before = set(sys.modules); import athena; "
            "print(*sorted(set(sys.modules) - before))"
        )
        proc = self.python(tmp_path, "-c", code)
        assert proc.returncode == 0, proc.stderr
        top = {name.partition(".")[0] for name in proc.stdout.split()}
        assert {"athena", "numpy"} <= top
        foreign = [
            name
            for name in sorted(top)
            if name not in sys.stdlib_module_names
            and name not in ("athena", "numpy")
            and not (name.startswith("__") and name.endswith("__"))
        ]
        assert foreign == []


class TestFalsify:
    def test_found_writes_testcase_and_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "tc")
        rc = cli(["falsify", "--catalog", "AT1", "--seed", "7", "--out", out])
        assert rc == 0
        assert "failure found" in capsys.readouterr().out
        with open(out + ".json") as fh:
            payload = json.load(fh)
        assert payload["outcome"] == "failure-found"
        assert payload["entry"] == "AT1"
        assert payload["mode"] == "athena"
        assert payload["p"] == 0.5
        assert payload["testcase"]["robustness"] < 0.0
        ports = set(payload["testcase"]["control_points"])
        assert ports == {"Throttle", "Brake"}
        with open(out + ".inputs.csv") as fh:
            header = fh.readline().strip()
        assert header == "time,Throttle,Brake"

    def test_found_testcase_replays_through_cli(self, tmp_path, capsys):
        out = str(tmp_path / "tc")
        assert cli(["falsify", "--catalog", "AT1", "--seed", "7", "--out", out]) == 0
        sim = str(tmp_path / "sim.csv")
        rc = cli(["simulate", "--plant", "at_lite", "--inputs", out + ".inputs.csv",
                  "--out", sim])
        assert rc == 0
        capsys.readouterr()
        rc = cli(["robustness", "--formula", "G[0,20] (Speed < 120)", "--trace", sim])
        assert rc == 0
        replayed = float(capsys.readouterr().out)
        with open(out + ".json") as fh:
            reported = json.load(fh)["testcase"]["robustness"]
        assert replayed == reported

    @pytest.mark.parametrize(
        "flags, p, schedule", [([], 0.5, None), (["--p-schedule", "1,0"], 0.5, [1.0, 0.0])]
    )
    def test_payload_records_the_schedule(self, tmp_path, capsys, flags, p, schedule):
        out = str(tmp_path / "tc")
        rc = cli(["falsify", "--plant", "passthrough", "--formula", "G[0,10] (x < 2)",
                  "--assumption", "x:const:0,1:1", "--max-iters", "5",
                  "--out", out] + flags)
        assert rc == 1
        capsys.readouterr()
        with open(out + ".json") as fh:
            payload = json.load(fh)
        assert payload["p"] == p
        assert payload["p_schedule"] == schedule

    def test_no_failure_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "nff")
        rc = cli(["falsify", "--plant", "passthrough", "--formula", "G[0,10] (x < 2)",
                  "--assumption", "x:const:0,1:1", "--max-iters", "15",
                  "--seed", "3", "--out", out])
        assert rc == 1
        assert "no failure" in capsys.readouterr().out
        with open(out + ".json") as fh:
            payload = json.load(fh)
        assert payload["outcome"] == "no-failure-found"
        assert payload["testcase"] is None
        assert payload["best_robustness"] > 0.0
        assert payload["iterations_used"] == 15
        assert not (tmp_path / "nff.inputs.csv").exists()

    def test_all_diverged_payload_is_valid_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(athena.cli, "builtin", lambda name: Runaway())
        out = str(tmp_path / "runaway")
        rc = cli(["falsify", "--plant", "runaway", "--formula", "G[0,2] (v < 10)",
                  "--assumption", "u:const:0,1:1", "--step", "0.01",
                  "--max-iters", "3", "--out", out])
        assert rc == 1
        capsys.readouterr()
        text = (tmp_path / "runaway.json").read_text()
        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["best_robustness"] is None
        assert payload["best_combined"] == 1.0

    def test_minus_infinite_testcase_robustness_is_valid_json(self, tmp_path, capsys):
        # every sample sits past 1e308, so the margin -1e308 - x overflows
        # to -inf at the first candidate
        out = str(tmp_path / "inf")
        rc = cli(["falsify", "--plant", "passthrough", "--formula", "G[0,1] (x <= -1e308)",
                  "--assumption", "x:linear:1.5e308,1.7e308:2", "--step", "0.5",
                  "--out", out])
        assert rc == 0
        assert "robustness -inf" in capsys.readouterr().out
        payload = json.loads((tmp_path / "inf.json").read_text(), parse_constant=reject_constant)
        assert payload["testcase"]["iteration"] == 0
        assert payload["testcase"]["robustness"] is None
        assert payload["best_robustness"] is None

    def test_inline_needs_plant_formula_assumption(self, capsys):
        rc = cli(["falsify", "--plant", "passthrough", "--formula", "G[0,1] (x < 2)"])
        assert rc == 2
        capsys.readouterr()

    def test_same_seed_same_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            cli(["falsify", "--catalog", "CC1", "--seed", "11", "--out", out])
        capsys.readouterr()
        with open(a + ".json") as fh, open(b + ".json") as gh:
            assert fh.read() == gh.read()


class TestRobustness:
    def test_constant_speed_prints_margin(self, flat_speed_csv, capsys):
        rc = cli(["robustness", "--formula", "G[0,20] (Speed < 120)",
                  "--trace", flat_speed_csv])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "20"

    def test_overflowing_margin_prints_minus_inf(self, tmp_path, capsys):
        # the nested window's margin passes the float maximum; numpy warns
        # of nothing (the suite turns warnings into errors)
        path = tmp_path / "big.csv"
        write_trace_csv(path, [0.0, 0.5, 1.0], {"x": [1.7e308] * 3})
        rc = cli(["robustness", "--formula", "G[0,0.5] (F[0,0.5] (x <= -1e308))",
                  "--trace", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "-inf"

    def test_bad_formula_exits_2(self, flat_speed_csv, capsys):
        rc = cli(["robustness", "--formula", "G[0,20 (Speed < 120)",
                  "--trace", flat_speed_csv])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, capsys):
        rc = cli(["robustness", "--formula", "G[0,1] (x < 1)",
                  "--trace", "/nonexistent/t.csv"])
        assert rc == 2
        capsys.readouterr()

    def test_nan_cell_exits_2_naming_channel(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_trace_csv(path, [0.0, 0.5, 1.0], {"Speed": [1.0, math.nan, 1.0]})
        rc = cli(["robustness", "--formula", "G[0,1] (Speed < 120)",
                  "--trace", str(path)])
        assert rc == 2
        assert "channel 'Speed'" in capsys.readouterr().err

    def test_missing_channel_exits_2(self, flat_speed_csv, capsys):
        rc = cli(["robustness", "--formula", "G[0,20] (RPM < 120)",
                  "--trace", flat_speed_csv])
        assert rc == 2
        capsys.readouterr()


class TestRejections:
    """Each malformed input exits 2 with a message naming its fault."""

    @pytest.mark.parametrize(
        "file_text, argv, message",
        [
            ("t,x\n0,1\n1,2\n", ["robustness", "--formula", "x < 1", "--trace"],
             "first CSV column must be 'time'"),
            ("time,x\n0,1,2\n1,2,3\n", ["robustness", "--formula", "x < 1", "--trace"],
             "header names 2 columns, rows have 3"),
            ("time,x\n0,1\n", ["robustness", "--formula", "x < 1", "--trace"],
             "need at least two samples"),
            ("time,x\n1,1\n2,2\n", ["robustness", "--formula", "x < 1", "--trace"],
             "time must start at 0"),
            # a repeated or empty column name is not read as the last column
            ("time,x,x\n0,0,5\n0.5,0,5\n1,0,5\n",
             ["robustness", "--formula", "G[0,1] (x <= 1)", "--trace"],
             "CSV column 'x' is named more than once"),
            ("time,throttle,brake,throttle\n0,0.5,0,1\n0.5,0.5,0,1\n1,0.5,0,1\n",
             ["simulate", "--plant", "chasing_cars", "--inputs"],
             "CSV column 'throttle' is named more than once"),
            ("time,x,time\n0,0,0\n1,0,1\n", ["robustness", "--formula", "x < 1", "--trace"],
             "CSV column 'time' is named more than once"),
            ("time,,x\n0,0,0\n1,0,1\n", ["robustness", "--formula", "x < 1", "--trace"],
             "CSV header has an empty column name"),
            (None, ["falsify", "--catalog", "AT1", "--p-schedule", "0.5"],
             "p schedule must look like start,end"),
            ("[1, 2]", ["bench", "--config"], "config must be a JSON object"),
        ],
        ids=["csv-first-column", "csv-widths", "csv-one-sample", "csv-start",
             "csv-repeated-robustness", "csv-repeated-simulate", "csv-repeated-time",
             "csv-empty-name", "p-schedule", "bench-not-object"],
    )
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, file_text, argv, message):
        if file_text is not None:
            path = tmp_path / "input"
            path.write_text(file_text)
            argv = [*argv, str(path)]
        assert cli(argv) == 2
        assert message in capsys.readouterr().err


class TestSimulate:
    def test_passthrough_round_trips_exactly(self, tmp_path, sine_csv, capsys):
        out = str(tmp_path / "sim.csv")
        rc = cli(["simulate", "--plant", "passthrough", "--inputs", sine_csv,
                  "--out", out])
        assert rc == 0
        src = np.loadtxt(sine_csv, delimiter=",", skiprows=1)
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        with open(out) as fh:
            names = fh.readline().strip().split(",")
        assert names == ["time", "y", "x"]
        assert len(got) == len(src)
        # y echoes x, and the echoed x column must survive the CSV round trip
        assert np.array_equal(got[:, 1], src[:, 1])
        assert np.array_equal(got[:, 2], src[:, 1])

    def test_stdout_when_no_out(self, sine_csv, capsys):
        rc = cli(["simulate", "--plant", "passthrough", "--inputs", sine_csv])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time,y,x"
        assert len(lines) == 202

    def test_resamples_onto_requested_grid(self, tmp_path, sine_csv, capsys):
        out = str(tmp_path / "fine.csv")
        rc = cli(["simulate", "--plant", "passthrough", "--inputs", sine_csv,
                  "--dt", "0.025", "--horizon", "5", "--out", out])
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(data) == 201
        assert data[-1, 0] == pytest.approx(5.0)

    def test_unknown_plant_exits_2(self, sine_csv, capsys):
        rc = cli(["simulate", "--plant", "nope", "--inputs", sine_csv])
        assert rc == 2
        assert "unknown plant" in capsys.readouterr().err

    def test_nan_cell_exits_2_naming_channel(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_trace_csv(path, [0.0, 0.5, 1.0, 1.5], {"x": [0.0, 1.0, math.nan, 3.0]})
        # the coarser grid skips the NaN row; the cell is rejected anyway
        rc = cli(["simulate", "--plant", "passthrough", "--inputs", str(path),
                  "--dt", "1.5"])
        assert rc == 2
        assert "channel 'x'" in capsys.readouterr().err

    def test_non_uniform_times_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        write_trace_csv(path, [0.0, 0.1, 0.3], {"x": [0.0, 1.0, 2.0]})
        rc = cli(["simulate", "--plant", "passthrough", "--inputs", str(path)])
        assert rc == 2
        assert "uniformly spaced" in capsys.readouterr().err


class TestBenchAndCompare:
    @pytest.fixture
    def config_path(self, tmp_path):
        cfg = {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            "mode": "athena",
            "repetitions": 8,
            "base_seed": 3,
            "search": {"max_iterations": 40},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_bench_writes_one_report_per_mode(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "rep")
        rc = cli(["bench", "--config", config_path,
                  "--modes", "automatic,manual,athena",
                  "--out", out, "--no-timestamp"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for mode in ("automatic", "manual", "athena"):
            with open(f"{out}-{mode}.json") as fh:
                report = json.load(fh)
            assert report["mode"] == mode
            assert report["repetitions"] == 8
            assert "timestamp" not in report
            assert (tmp_path / f"rep-{mode}.runs.csv").exists()

    def test_bench_reps_override(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "rep")
        rc = cli(["bench", "--config", config_path, "--reps", "4",
                  "--out", out, "--no-timestamp"])
        assert rc == 0
        capsys.readouterr()
        with open(out + "-athena.json") as fh:
            assert json.load(fh)["repetitions"] == 4

    def test_bench_reruns_byte_identical(self, tmp_path, config_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            cli(["bench", "--config", config_path, "--out", out, "--no-timestamp"])
        capsys.readouterr()
        with open(a + "-athena.json", "rb") as fh, open(b + "-athena.json", "rb") as gh:
            assert fh.read() == gh.read()

    def test_bench_summary_counts_sims_and_errors(self, config_path, capsys):
        rc = cli(["bench", "--config", config_path, "--reps", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        line = captured.out.strip()
        assert "sims/s" in line
        assert line.endswith(", 0 errored")
        assert captured.err == ""

    def test_bench_errored_runs_exit_2(self, tmp_path, capsys):
        # the lead car starts 40 m ahead, so every run errors when it first
        # scores the infinite manual term
        cfg = {
            "plant": "chasing_cars",
            "formula": "G[0,10] (y5 - y4 < 40)",
            "manual": "max(y5,[0,10]) * 1e308",
            "assumption": "throttle:pchip:0,1:7;brake:pchip:0,1:3",
            "repetitions": 2,
            "search": {"max_iterations": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "0/2 failure-revealing" in captured.out
        assert captured.out.strip().endswith(", 2 errored")
        assert "ValueError" in captured.err
        assert "fitness parts must be finite" in captured.err

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("formula", "G[0,10] (y9 <= 40)", "channel 'y9' not in trace"),
            ("manual", "max(throttle,[0,150])", "window end 150.0 exceeds grid end 100.0"),
            ("assumption", "throttle:linear:-1e308,1e308:3;brake:pchip:0,1:3", "width"),
            ("manual", "slope_up(throttle,[1,2])", "need >= 2 control points inside [1.0, 2.0]"),
            ("manual", "slope_up(y5,[0,100])", "control points of input 'y5'"),
        ],
    )
    def test_bench_bad_problem_exits_2_before_running(self, tmp_path, capsys, field, text, message):
        cfg = {
            "plant": "chasing_cars",
            "formula": "G[0,10] (y5 - y4 <= 40)",
            "assumption": "throttle:pchip:0,1:7;brake:pchip:0,1:3",
            "repetitions": 2,
            "search": {"max_iterations": 5},
        }
        cfg[field] = text
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "failure-revealing" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"search": {"sigma": math.nan}}, "sigma must be finite, got nan"),
            ({"search": {"threshold": math.nan}}, "threshold must be finite, got nan"),
            ({"search": {"sigma": "0.1"}}, "sigma must be a number, got '0.1'"),
            ({"search": {"max_iterations": 5.5}}, "max_iterations must be an integer, got 5.5"),
            ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
            ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
            ({"p": "0.5"}, "p must be a number, got '0.5'"),
            ({"p_schedule": ["1", "0"]}, "p_schedule start must be a number, got '1'"),
        ],
    )
    def test_bench_bad_number_exits_2(self, tmp_path, capsys, raw, message):
        cfg = {"entry": "CC1", "repetitions": 2, "search": {"max_iterations": 5}}
        cfg.update(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "failure-revealing" not in captured.out
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, value",
        [("assumption", 5), ("formula", 5), ("manual", ["x"]), ("plant", ["passthrough"])],
    )
    def test_bench_text_field_of_another_type_exits_2(self, tmp_path, capsys, key, value):
        cfg = {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            "repetitions": 2,
            "search": {"max_iterations": 5},
        }
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "failure-revealing" not in captured.out
        assert captured.err == f"error: {key} must be a string, got {value!r}\n"

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("assumption", "z:const:0,1:1", "do not match plant inputs"),
            ("formula", "F[0.01,0.02] (y > 0)", "selects no grid samples at step 0.05"),
        ],
    )
    def test_bench_problem_no_run_could_start_exits_2(
        self, tmp_path, capsys, field, text, message
    ):
        # resolve rejects both, so no run starts and no error row is written
        cfg = {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            "repetitions": 2,
            "search": {"max_iterations": 5},
        }
        cfg[field] = text
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "failure-revealing" not in captured.out
        assert message in captured.err

    def test_bench_unknown_mode_exits_2(self, config_path, capsys):
        rc = cli(["bench", "--config", config_path, "--modes", "turbo"])
        assert rc == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_bench_bad_jobs_env_exits_2(self, config_path, monkeypatch, capsys):
        monkeypatch.setenv("ATHENA_JOBS", "abc")
        rc = cli(["bench", "--config", config_path, "--reps", "1"])
        assert rc == 2
        assert "ATHENA_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_nonpositive_jobs_exits_2(self, config_path, capsys, jobs):
        rc = cli(["bench", "--config", config_path, "--reps", "1", "--jobs", jobs])
        assert rc == 2
        assert "jobs must be a positive integer" in capsys.readouterr().err

    def test_bench_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli(["bench", "--config", str(path)])
        assert rc == 2
        capsys.readouterr()

    def test_compare_two_reports(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "rep")
        cli(["bench", "--config", config_path, "--modes", "automatic,athena",
             "--out", out, "--no-timestamp"])
        capsys.readouterr()
        rc = cli(["compare", "--a", out + "-automatic.json",
                  "--b", out + "-athena.json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"percentage_a", "percentage_b", "percentage_delta",
                               "found_a", "found_b", "u_a", "p_value"}
        assert 0.0 <= result["p_value"] <= 1.0

    def test_compare_missing_file_exits_2(self, capsys):
        rc = cli(["compare", "--a", "/nonexistent/a.json", "--b", "/nonexistent/b.json"])
        assert rc == 2
        capsys.readouterr()
