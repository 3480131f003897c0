"""End-to-end tests of the command-line interface.

All commands run in-process through `cli(argv)` so exit codes and file
outputs can be checked without spawning subprocesses.
"""

import json
import math

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

    def test_unknown_catalog_id_exits_2(self, capsys):
        assert cli(["falsify", "--catalog", "AT99"]) == 2
        assert "AT99" in capsys.readouterr().err


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

    def test_missing_channel_exits_2(self, flat_speed_csv, capsys):
        rc = cli(["robustness", "--formula", "G[0,20] (RPM < 120)",
                  "--trace", flat_speed_csv])
        assert rc == 2
        capsys.readouterr()


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

    def test_bench_unknown_mode_exits_2(self, config_path, capsys):
        rc = cli(["bench", "--config", config_path, "--modes", "turbo"])
        assert rc == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_bench_bad_jobs_env_exits_2(self, config_path, monkeypatch, capsys):
        monkeypatch.setenv("ATHENA_JOBS", "abc")
        rc = cli(["bench", "--config", config_path, "--reps", "1"])
        assert rc == 2
        assert "ATHENA_JOBS" in capsys.readouterr().err

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
