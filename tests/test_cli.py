import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varest import cli
from varest.cli import main
from varest.estimators import ESTIMATOR_IDS
from varest.harness import INITIAL_IDS, SummaryStats, read_records_csv


def run_cli(args):
    """Invoke the CLI in-process, capturing the exit code."""
    return main(args)


def read_lines(path):
    return path.read_text().splitlines()


@pytest.fixture()
def toy_dataset(tmp_path):
    # the 2x1 hand example: naive -> 2, dicker -> 7/6
    data = tmp_path / "toy.csv"
    data.write_text("y,x1\n1.0,1.0\n1.0,2.0\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "mean": 0.0, "covariance": "identity", "fourth_moments": 3.0,
        "independent_columns": True, "gaussian": True,
    }))
    return data, model


class TestSimulate:
    def test_summary_rows_for_each_estimator(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "30", "--p", "8", "--tau2", "1", "--tau2b", "0.4",
            "--b-size", "3", "--reps", "3", "--seed", "7",
            "--estimators", "naive,single,selection,oracle",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 0
        rows = read_lines(tmp_path / "s.csv")
        assert rows[0] == "estimator,mean,bias,se,rmse,rmse_sd"
        assert {r.split(",")[0] for r in rows[1:]} == \
            {"naive", "single", "selection", "oracle"}
        out = capsys.readouterr().out
        assert "naive" in out

    def test_missing_tau2_exits_2(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "4", "--tau2b", "0.2", "--seed", "1",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        assert "tau2" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "4", "--tau2", "1", "--tau2b", "0.2",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_golden_determinism(self, tmp_path):
        args = [
            "simulate", "--n", "25", "--p", "6", "--tau2", "1", "--tau2b", "0.5",
            "--b-size", "2", "--reps", "4", "--seed", "42",
            "--estimators", "naive,dicker",
        ]
        run_cli(args + ["--records-out", str(tmp_path / "r1.csv"),
                        "--summary-out", str(tmp_path / "s1.csv")])
        run_cli(args + ["--records-out", str(tmp_path / "r2.csv"),
                        "--summary-out", str(tmp_path / "s2.csv")])
        # summaries byte-identical; records identical apart from wall-clock ms
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

        def strip_wall(path):
            rows = list(csv.reader(open(path)))
            return [row[:-1] for row in rows]

        assert strip_wall(tmp_path / "r1.csv") == strip_wall(tmp_path / "r2.csv")

    def test_scenario_file(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n": 20, "p": 5, "tau2": 1.0, "tau2_b": 0.4, "b_size": 2,
            "reps": 2, "seed": 3,
        }))
        rc = run_cli([
            "simulate", "--scenario", str(scenario),
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--seed", "1", "--sigma2", "inf"], "sigma2 must be finite, got inf"),
        (["--seed", "1", "--tau2", "inf", "--tau2b", "1"], "tau2 must be finite, got inf"),
        (["--seed", "1", "--reps", "1"], "reps must be at least 2 to summarize, got 1"),
    ], ids=["negative-seed", "infinite-sigma2", "infinite-tau2", "one-rep"])
    def test_bad_scenario_value_exits_2(self, tmp_path, capsys, flags, message):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "4", "--tau2", "1", "--tau2b", "0.2",
            "--b-size", "2", *flags,
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.csv").exists()  # refused before the run

    def test_scenario_file_wrong_type_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n": "10", "p": 4, "tau2": 1.0, "tau2_b": 0.2,
                                        "b_size": 2, "seed": 1}))
        rc = run_cli(["simulate", "--scenario", str(scenario),
                      "--records-out", str(tmp_path / "r.csv"),
                      "--summary-out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: n must be an integer, got '10'\n"

    def test_scenario_file_not_object_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("5")
        rc = run_cli(["simulate", "--scenario", str(scenario), "--seed", "1",
                      "--records-out", str(tmp_path / "r.csv"),
                      "--summary-out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: invalid scenario: the file must hold a JSON object\n"

    @pytest.mark.parametrize("kind", ["scenario", "model"])
    def test_json_nested_too_deep_exits_2(self, tmp_path, toy_dataset, capsys, kind):
        path = tmp_path / f"{kind}.json"
        path.write_text('{"mean": ' + "[" * 100_000 + "]" * 100_000 + "}")
        argv = (["simulate", "--scenario", str(path), "--seed", "1"] if kind == "scenario"
                else ["estimate", "--data", str(toy_dataset[0]), "--model", str(path)])
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: maximum "
                                                  "recursion depth exceeded")

    def test_scenario_file_not_utf8_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(b'{"n": 20, "p": 5, "tau2": 1.0, "tau2_b": 0.4, "x": "\xff"}')
        rc = run_cli(["simulate", "--scenario", str(scenario), "--seed", "1",
                      "--records-out", str(tmp_path / "r.csv"),
                      "--summary-out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {scenario}: 'utf-8'")

    @pytest.mark.parametrize("flag", ["--records-out", "--summary-out"])
    def test_missing_output_directory_exits_2_before_the_run(self, tmp_path, capsys,
                                                              monkeypatch, flag):
        def no_run(*args):
            raise AssertionError("run_scenario ran")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        (tmp_path / "r.csv").write_text("kept\n")
        (tmp_path / "s.csv").write_text("kept\n")
        missing = tmp_path / "missing" / "out.csv"
        args = TestEmpiricalFlags.base_args("simulate", tmp_path, None)
        assert run_cli(args + [flag, str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
        # the output file that exists is not opened for writing
        assert read_lines(tmp_path / "r.csv") == read_lines(tmp_path / "s.csv") == ["kept"]

    def test_scenario_number_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"n": 10, "p": 4, "tau2": 1' + "0" * 400 + ', "tau2_b": 0.2}')
        rc = run_cli(["simulate", "--scenario", str(scenario), "--seed", "1",
                      "--records-out", str(tmp_path / "r.csv"),
                      "--summary-out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: tau2 must be finite, got 1000")

    def test_no_estimators_exits_2(self, tmp_path, capsys):
        args = TestEmpiricalFlags.base_args("simulate", tmp_path, None)
        assert run_cli(args + ["--estimators", ","]) == 2
        assert capsys.readouterr().err == "error: no estimators requested\n"

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "4", "--tau2", "1", "--tau2b", "0.2",
            "--b-size", "2", "--seed", "1", "--estimators", "bogus",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exits_2(self, tmp_path, capsys, workers):
        rc = run_cli(TestEmpiricalFlags.base_args("simulate", tmp_path, None)
                     + ["--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"

    def test_empirical_is_asked_for_by_its_id(self, tmp_path, capsys):
        args = TestEmpiricalFlags.base_args("simulate", tmp_path, None)
        assert run_cli(args + ["--empirical"]) == 2  # no such flag
        assert "unrecognized arguments: --empirical" in capsys.readouterr().err
        assert run_cli(args + ["--estimators", "naive,empirical"]) == 0
        assert [row[1] for row in csv.reader(open(tmp_path / "r.csv"))][1:3] == \
            ["naive", "empirical"]


class TestSummaryTable:
    """The printed summary table shows the summary CSV's fields, right-aligned."""

    @staticmethod
    def table(out):
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # every column lines up
        return [line.split() for line in lines]

    def test_simulate_prints_the_summary_csv(self, tmp_path, capsys):
        rc = run_cli(TestEmpiricalFlags.base_args("simulate", tmp_path, None)
                     + ["--estimators", "naive,single,dicker"])
        assert rc == 0
        scenario, *table = capsys.readouterr().out.splitlines()
        assert scenario == "scenario: n=10 p=4 tau2=1 tau2_b=0.2 sigma2=1 reps=2 seed=1"
        assert self.table("\n".join(table)) == list(csv.reader(open(tmp_path / "s.csv")))

    def test_summarize_prints_the_summary_csv(self, tmp_path, capsys):
        # wide values next to narrow ones
        path = tmp_path / "records.csv"
        path.write_text("rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"
                        "0,naive,-1.5e75,0,,0\n1,naive,-1e75,0,,0\n"
                        "0,single,2,0,,0\n1,single,2,0,,0\n")
        rc = run_cli(["summarize", "--records", str(path), "--true-tau2", "2",
                      "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        table = self.table(capsys.readouterr().out)
        assert table == list(csv.reader(open(tmp_path / "s.csv")))
        assert table[1][:3] == ["naive", "-1.25e+75", "1.25e+75"]
        assert table[2] == ["single", "2", "0", "0", "0", "0"]

    def test_widest_values_keep_their_columns(self, capsys):
        widest = -np.finfo(float).max
        cli._print_summary_table([SummaryStats("naive", *[widest] * 5),
                                  SummaryStats("single", 0.0, 0.0, 0.0, 0.0, float("nan"))])
        table = self.table(capsys.readouterr().out)
        assert table[1:] == [["naive", *["-1.79769e+308"] * 5],
                             ["single", "0", "0", "0", "0", "nan"]]


class TestFileErrors:
    """A file that cannot be read or written, or a malformed records, data, scenario or
    model file, exits 2 with one line, ``error: <path>[:<line>]: <reason>``."""

    CASES = {
        "records-out": (["simulate", "--records-out", "{missing}/r.csv"],
                        "{missing}/r.csv: No such file or directory"),
        "summary-out": (["simulate", "--summary-out", "{missing}/s.csv"],
                        "{missing}/s.csv: No such file or directory"),
        "estimate-out": (["estimate", "--out", "{missing}/e.csv"],
                         "{missing}/e.csv: No such file or directory"),
        "records-missing": (["summarize", "--records", "{missing}/r.csv"],
                            "{missing}/r.csv: No such file or directory"),
        "records-directory": (["summarize", "--records", "{tmp}"], "{tmp}: Is a directory"),
        "records-not-utf8": (["summarize", "--records", "{tmp}/not-utf8.csv"],
                             "{tmp}/not-utf8.csv:3: byte 0xff is not UTF-8"),
        "records-header": (["summarize", "--records", "{tmp}/header.csv"],
                           "{tmp}/header.csv:1: expected header rep,estimator,"),
        "records-ragged": (["summarize", "--records", "{tmp}/ragged.csv"],
                           "{tmp}/ragged.csv:3: expected 6 fields, got 5"),
        "summarize-out": (["summarize", "--out", "{missing}/s.csv"],
                          "{missing}/s.csv: No such file or directory"),
        # a quote in the header that runs over a line end: the row named ends on line 3
        "data-header-quote": (["estimate", "--data", "{tmp}/quote.csv"],
                              "{tmp}/quote.csv:3: expected 3 fields, got 2\n"),
        "data-header-quote-cr": (["estimate", "--data", "{tmp}/quote-cr.csv"],
                                 "{tmp}/quote-cr.csv:3: expected 3 fields, got 2\n"),
        "data-header-quote-open": (["estimate", "--data", "{tmp}/quote-open.csv"],
                                   "{tmp}/quote-open.csv:3: unexpected end of data\n"),
        "scenario-syntax": (["simulate", "--scenario", "{tmp}/syntax.json"],
                            "{tmp}/syntax.json:2: Expecting value\n"),
        "model-syntax": (["estimate", "--model", "{tmp}/syntax.json"],
                         "{tmp}/syntax.json:2: Expecting value\n"),
        "scenario-missing": (["simulate", "--scenario", "{missing}/s.json"],
                             "{missing}/s.json: No such file or directory\n"),
        "model-missing": (["estimate", "--model", "{missing}/m.json"],
                          "{missing}/m.json: No such file or directory\n"),
        # json.load raises a plain ValueError on an integer of more than 4300 digits
        "scenario-long-int": (["simulate", "--scenario", "{tmp}/long-int.json"],
                              "{tmp}/long-int.json: Exceeds the limit"),
        "model-long-int": (["estimate", "--model", "{tmp}/long-int.json"],
                           "{tmp}/long-int.json: Exceeds the limit"),
        "true-tau2-nan": (["summarize", "--true-tau2", "nan"],
                          "true_tau2 must be finite, got nan\n"),
        "true-tau2-inf": (["summarize", "--true-tau2", "inf"],
                          "true_tau2 must be finite, got inf\n"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_file(self, tmp_path, toy_dataset, capsys, case):
        header = b"rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"
        (tmp_path / "records.csv").write_bytes(header + b"0,naive,1,0,,0\n1,naive,2,0,,0\n")
        (tmp_path / "not-utf8.csv").write_bytes(header + b"0,naive,1,0,,0\n1,naive,\xff,0,,0\n")
        (tmp_path / "header.csv").write_bytes(b"rep,estimator\n0,naive\n")
        (tmp_path / "ragged.csv").write_bytes(header + b"0,naive,1,0,,0\n1,naive,2,0,\n")
        (tmp_path / "quote.csv").write_bytes(b'y,"x1\n1",2\n3,4\n')
        (tmp_path / "quote-cr.csv").write_bytes(b'y,"x1\r1",2\r3,4\r')
        (tmp_path / "quote-open.csv").write_bytes(b'y,"x1\n1,2\n3,4\n')
        (tmp_path / "syntax.json").write_text('{"n": 20,\n "p": }\n')
        (tmp_path / "long-int.json").write_text('{"n": ' + "1" * 5000 + "}\n")
        flags, message = self.CASES[case]
        command, *flags = [f.format(tmp=tmp_path, missing=tmp_path / "missing") for f in flags]
        argv = {"simulate": TestEmpiricalFlags.base_args("simulate", tmp_path, toy_dataset),
                "estimate": TestEmpiricalFlags.base_args("estimate", tmp_path, toy_dataset),
                "summarize": ["summarize", "--records", str(tmp_path / "records.csv"),
                              "--true-tau2", "1", "--out", str(tmp_path / "s.csv")]}[command]
        assert run_cli(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = message.format(tmp=tmp_path, missing=tmp_path / "missing")
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1


class TestEmpiricalFlags:
    @staticmethod
    def base_args(command, tmp_path, toy_dataset):
        if command == "simulate":
            return ["simulate", "--n", "10", "--p", "4", "--tau2", "1", "--tau2b", "0.2",
                    "--b-size", "2", "--reps", "2", "--seed", "1",
                    "--records-out", str(tmp_path / "r.csv"),
                    "--summary-out", str(tmp_path / "s.csv")]
        data, model = toy_dataset
        return ["estimate", "--data", str(data), "--model", str(model)]

    @pytest.mark.parametrize("flags, message", [
        (["--initial", "bogus"], "unknown initial estimator 'bogus'; expected one of "
                                 "['naive', 'dicker', 'full', 'single', 'selection']"),
        (["--boot", "1"], "boot must be at least 2, got 1"),
    ], ids=["initial", "boot"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_bad_value_exits_2(self, tmp_path, toy_dataset, capsys, command, flags, message):
        args = self.base_args(command, tmp_path, toy_dataset)
        rc = run_cli(args + ["--estimators", "naive,empirical", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_ignored_without_empirical(self, tmp_path, toy_dataset, command):
        # the bootstrap flags are checked even when the empirical estimator does not run
        args = self.base_args(command, tmp_path, toy_dataset)
        assert run_cli(args + ["--initial", "bogus", "--boot", "1"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--boot", "1"], "boot must be at least 2, got 1"),
        (["--select-split-fraction", "1.5"], "select_split_fraction must be in (0, 1), got 1.5"),
        (["--variance", "bogus"], "unknown variance method 'bogus'; "
                                  "expected None or one of ['gaussian-plugin', 'tilde']"),
    ], ids=["boot", "fraction", "variance"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_checked_whatever_estimators_run(self, tmp_path, toy_dataset, capsys, monkeypatch,
                                             command, flags, message):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(cli, "run_scenario", no_work)
        monkeypatch.setattr(cli, "estimate", no_work)
        args = self.base_args(command, tmp_path, toy_dataset)
        assert run_cli(args + ["--estimators", "naive", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSelectionFlags:
    base_args = staticmethod(TestEmpiricalFlags.base_args)

    @pytest.mark.parametrize("flags, message", [
        (["--select-split", "--select-split-fraction", "1.5"],
         "select_split_fraction must be in (0, 1), got 1.5"),
        (["--select-split", "--select-split-fraction", "0"],
         "select_split_fraction must be in (0, 1), got 0.0"),
        (["--select-cap", "-1"], "select_cap must be nonnegative, got -1"),
    ], ids=["fraction-above-1", "fraction-0", "negative-cap"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_bad_value_exits_2(self, tmp_path, toy_dataset, capsys, command, flags, message):
        args = self.base_args(command, tmp_path, toy_dataset)
        rc = run_cli(args + ["--estimators", "naive,selection", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_ignored_without_selection(self, tmp_path, toy_dataset, command):
        # the selection flags are checked even when the selection estimator does not run
        args = self.base_args(command, tmp_path, toy_dataset)
        flags = ["--select-split", "--select-split-fraction", "1.5", "--select-cap", "-1"]
        assert run_cli(args + flags) == 2

    def test_fraction_ignored_without_split(self, tmp_path, toy_dataset):
        # the split fraction is checked even without --select-split
        args = self.base_args("simulate", tmp_path, toy_dataset)
        assert run_cli(args + ["--estimators", "selection", "--select-split-fraction", "1.5"]) == 2


class TestOutputDirectories:
    """Each command checks its output directories before it reads or computes anything."""

    def test_estimate_runs_no_estimator(self, tmp_path, toy_dataset, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(cli, "estimate", no_work)
        missing = tmp_path / "missing" / "e.csv"
        args = TestEmpiricalFlags.base_args("estimate", tmp_path, toy_dataset)
        rc = run_cli(args + ["--estimators", "naive,empirical", "--out", str(missing)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_summarize_exits_2_before_a_failing_summary(self, tmp_path, capsys):
        # these records overflow the summary, which exits 1 when the output can be written
        path = tmp_path / "huge.csv"
        path.write_text("rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"
                        "0,naive,1e308,0,,0\n1,naive,-1e308,0,,0\n")
        missing = tmp_path / "missing" / "s.csv"
        rc = run_cli(["summarize", "--records", str(path), "--true-tau2", "1.0",
                      "--out", str(missing)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


class TestEstimate:
    def test_naive_toy_value(self, toy_dataset, capsys):
        data, model = toy_dataset
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "naive"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "estimator,tau2,sigma2,var_hat,aux"
        fields = out[1].split(",")
        assert fields[0] == "naive"
        assert float(fields[1]) == 2.0

    def test_dicker_toy_value(self, toy_dataset, capsys):
        data, model = toy_dataset
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "dicker"])
        assert rc == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[1]) == pytest.approx(7.0 / 6.0, rel=1e-5)

    def test_clamp_flag(self, tmp_path, capsys):
        # orthogonal-ish toy data with negative naive estimate
        data = tmp_path / "neg.csv"
        data.write_text("y,x1\n1.0,1.0\n1.0,-1.0\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
        run_cli(["estimate", "--data", str(data), "--model", str(model),
                 "--estimators", "naive"])
        raw = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert raw < 0.0
        run_cli(["estimate", "--data", str(data), "--model", str(model),
                 "--estimators", "naive", "--clamp"])
        clamped = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert clamped == 0.0

    def test_degenerate_single_warns(self, toy_dataset, capsys):
        data, model = toy_dataset  # p = 1: the single path is degenerate
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "single"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("single,,") and "warning=" in line

    def test_failed_estimator_keeps_other_rows(self, toy_dataset, capsys):
        data, model = toy_dataset  # n = 2: full needs n >= 3
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "naive,single,full"])
        captured = capsys.readouterr()
        assert rc == 1
        out = captured.out.splitlines()
        assert out[1].startswith("naive,") and float(out[1].split(",")[1]) == 2.0
        assert out[2].startswith("single,,") and "warning=" in out[2]
        assert out[3] == "full,,,,error=TooFewObservations: t_full needs n >= 3"
        assert captured.err == "error: full: t_full needs n >= 3\n"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("y,x1\n1.0,2.0\noops,3.0\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity"}))
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model)])
        assert rc == 2
        assert ":3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_reports_line(self, tmp_path, capsys, bad):
        data = tmp_path / "bad.csv"
        data.write_text(f"y,x1\n1.0,2.0\n\n0.5,{bad}\n2.0,1.0\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity"}))
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and ":4:" in err and "finite" in err

    def test_overflow_is_an_error_row(self, tmp_path, toy_dataset, capsys):
        data = tmp_path / "large.csv"
        data.write_text("y,x1,x2,x3\n1.0,0.5,1e200,-0.3\n0.2,-1.1,0.4,0.9\n"
                        "-0.7,0.3,-0.2,1.4\n1.5,0.8,0.1,-0.6\n")
        estimators = ["naive", "dicker", "full", "single", "selection"]
        rc = run_cli(["estimate", "--data", str(data), "--model", str(toy_dataset[1]),
                      "--estimators", ",".join(estimators), "--variance", "tilde"])
        captured = capsys.readouterr()
        assert rc == 1
        rows = captured.out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == estimators
        assert all(",,,,error=NonFiniteResult: " in r for r in rows)
        assert captured.err.splitlines() == [
            f"error: {eid}: estimator '{eid}': overflow encountered in multiply"
            for eid in estimators]

    @pytest.mark.parametrize("content", [
        {"covariance": "foo"},
        {"mean": "abc"},
        {"fourth_moments": [3, "x"]},
        {"mean": None},
        {"independent_columns": "false"},
        {"gaussian": 1},
        [1, 2],
    ], ids=["covariance-string", "mean-string", "fourth-moments-string", "mean-null",
            "independent-string", "gaussian-number", "top-level-list"])
    def test_malformed_model_exits_2(self, tmp_path, toy_dataset, capsys, content):
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(content))
        rc = run_cli(["estimate", "--data", str(toy_dataset[0]), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: invalid covariate model")

    @pytest.mark.parametrize("raw_x", [False, True], ids=["whitened", "raw-x"])
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("content", [
        {"mean": [[0.0, 0.0], [0.0, 0.0]]},
        {"mean": [[1.0, 2.0], [3.0, 4.0]], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        {"mean": [0.0, 0.0, 0.0]},
        {"mean": [1.0]},
        {"fourth_moments": [3.0, 3.0, 3.0]},
        {"fourth_moments": [[3.0, 3.0]]},
    ], ids=["mean-2d", "mean-2d-with-covariance", "mean-too-long", "mean-too-short",
            "fourth-moments-too-long", "fourth-moments-2d"])
    def test_model_vector_of_wrong_shape_exits_2(self, tmp_path, capsys, content, rows, raw_x):
        data = tmp_path / "data.csv"
        data.write_text("y,x1,x2\n" + "".join(f"{i},{i + 1},{2 * i}\n" for i in range(rows)))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content))
        argv = ["estimate", "--data", str(data), "--model", str(model)]
        assert run_cli(argv + ["--raw-x"] * raw_x) == 2
        key = next(iter(content))
        assert capsys.readouterr().err == (
            f"error: invalid covariate model: {key} must be a number or a list of 2 numbers\n")

    @pytest.mark.parametrize("content, message", [
        ({"fourth_moments": "3"}, "fourth_moments must hold numbers, got '3'"),
        ({"fourth_moments": [True]}, "fourth_moments must hold numbers, got True"),
        ({"mean": "0.5"}, "mean must hold numbers, got '0.5'"),
        ({"mean": True}, "mean must hold numbers, got True"),
        ({"mean": [False]}, "mean must hold numbers, got False"),
        ({"covariance": [[True]]}, "covariance must hold numbers, got True"),
        ({"covariance": [["1"]]}, "covariance must hold numbers, got '1'"),
    ], ids=["fourth-moments-string", "fourth-moments-bool", "mean-string", "mean-bool",
            "mean-list-bool", "covariance-bool", "covariance-string-entry"])
    def test_model_numbers_are_not_strings_or_booleans(self, tmp_path, toy_dataset, capsys,
                                                       content, message):
        # numpy would read "3" as 3.0 and true as 1.0
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(content))
        rc = run_cli(["estimate", "--data", str(toy_dataset[0]), "--model", str(model),
                      "--raw-x"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: invalid covariate model: {message}\n"

    @pytest.mark.parametrize("raw_x", [False, True], ids=["whitened", "raw-x"])
    @pytest.mark.parametrize("smallest", [1e-12, 0.0, -1.0])
    def test_singular_covariance_exits_2(self, tmp_path, capsys, smallest, raw_x):
        # one singularity rule, applied when the model file is read
        data = tmp_path / "data.csv"
        data.write_text("y,x1,x2\n1,2,3\n4,5,6\n7,8,10\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": [[1.0, 0.0], [0.0, smallest]]}))
        argv = ["estimate", "--data", str(data), "--model", str(model)]
        assert run_cli(argv + ["--raw-x"] * raw_x) == 2
        assert capsys.readouterr().err == (
            f"error: invalid covariate model: covariance has smallest eigenvalue "
            f"{smallest:g}, not above 1e-10 * 1\n")

    def test_model_not_utf8_exits_2(self, tmp_path, toy_dataset, capsys):
        model = tmp_path / "bad_model.json"
        model.write_bytes(b'{"covariance": "identity", "x": "\xff"}')
        rc = run_cli(["estimate", "--data", str(toy_dataset[0]), "--model", str(model)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: 'utf-8'")

    def test_identity_model_builds_no_whitening(self, tmp_path):
        # 2000 x 2000 doubles are 32 MB; the model itself is one length-p vector.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"mean": 0.0, "covariance": "identity"}))
        tracemalloc.start()
        try:
            covariates, whitening = cli._load_model(str(model), 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whitening is None
        assert covariates.p == 2000
        assert peak < 1_000_000

    @staticmethod
    def write_selection_data(tmp_path, n, beta):
        g = np.random.default_rng(0)
        p = len(beta)
        x = g.standard_normal((n, p))
        y = x @ np.asarray(beta) + g.standard_normal(n)
        rows = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
        for i in range(n):
            rows.append(",".join(format(v, ".8g") for v in [y[i], *x[i]]))
        data = tmp_path / "sel.csv"
        data.write_text("\n".join(rows) + "\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
        return data, model

    def test_selection_aux_lists_columns(self, tmp_path, capsys):
        data, model = self.write_selection_data(tmp_path, 60, [1.0, 0.9, 0.0, 0.0, 0.0, 0.0])
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "selection", "--select-split"])
        assert rc == 0
        (row,) = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert len(row) == 5 and "selected=" in row[4]

    def test_multi_column_selection_row_has_five_fields(self, tmp_path, capsys):
        # the aux of a selection of two columns holds "selected=(0, 1)": the
        # table quotes that field and no other
        data, model = self.write_selection_data(tmp_path, 200, [1.5, 1.2, 1.0, 0.0, 0.0, 0.0])
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "naive,selection,empirical"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(lines))
        assert [len(row) for row in rows] == [5, 5, 5, 5]
        assert [row[0] for row in rows[1:]] == ["naive", "selection", "empirical"]
        assert "selected=(0, 1);" in rows[2][4]
        assert lines[2].endswith(f',"{rows[2][4]}"')
        assert '"' not in lines[1] + lines[3]

    def test_matches_library_call(self, tmp_path, capsys):
        from varest.estimators import naive_tau2
        from varest.model import LabeledDataset, build_w

        g = np.random.default_rng(5)
        n, p = 40, 4
        x = g.standard_normal((n, p))
        y = x @ np.full(p, 0.5) + g.standard_normal(n)
        rows = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
        for i in range(n):
            rows.append(",".join(format(v, ".17g") for v in [y[i], *x[i]]))
        data = tmp_path / "lib.csv"
        data.write_text("\n".join(rows) + "\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
        run_cli(["estimate", "--data", str(data), "--model", str(model),
                 "--estimators", "naive"])
        got = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        want = naive_tau2(build_w(LabeledDataset(x=x, y=y)))
        assert got == pytest.approx(want, rel=1e-5)


class TestSummarizeCommand:
    def test_round_trip_identical_bytes(self, tmp_path):
        run_cli([
            "simulate", "--n", "25", "--p", "6", "--tau2", "1", "--tau2b", "0.5",
            "--b-size", "2", "--reps", "4", "--seed", "11",
            "--estimators", "naive,single",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        rc = run_cli(["summarize", "--records", str(tmp_path / "r.csv"),
                      "--true-tau2", "1.0", "--out", str(tmp_path / "s2.csv")])
        assert rc == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_empty_records_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n")
        rc = run_cli(["summarize", "--records", str(path), "--true-tau2", "1.0",
                      "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_hand_built_records(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        path.write_text(
            "rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"
            "0,naive,1.1,0,,0\n1,naive,0.9,0,,0\n2,naive,1.2,0,,0\n"
        )
        rc = run_cli(["summarize", "--records", str(path), "--true-tau2", "1.0",
                      "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        row = read_lines(tmp_path / "s.csv")[1].split(",")
        assert float(row[4]) == pytest.approx(np.sqrt(0.02), rel=1e-5)


    def test_overflowing_records_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"
                        "0,naive,1e308,0,,0\n1,naive,-1e308,0,,0\n")
        rc = run_cli(["summarize", "--records", str(path), "--true-tau2", "1.0",
                      "--out", str(tmp_path / "s.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: summary of estimator 'naive': overflow")

    def test_simulate_huge_noise_exits_1(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "5", "--tau2", "1", "--tau2b", "0.5",
            "--sigma2", "1e300", "--b-size", "2", "--reps", "3", "--seed", "1",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: summary of estimator ")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "varest.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process: flags of one call, set or
        # left at their defaults, must not carry over into the next
        g = np.random.default_rng(4)
        x = g.standard_normal((12, 3))
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        np.savetxt(data, np.column_stack([x.sum(axis=1) + g.standard_normal(12), x]),
                   delimiter=",", header="y,x1,x2,x3", comments="")
        model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
        estimate = ["estimate", "--data", str(data), "--model", str(model)]
        simulate = ["simulate", "--n", "20", "--p", "4", "--tau2", "1", "--tau2b", "0.5",
                    "--reps", "3", "--seed", "2", "--records-out", str(tmp_path / "r.csv"),
                    "--summary-out", str(tmp_path / "s.csv")]
        calls = [
            [*estimate, "--estimators", "naive,selection,empirical", "--clamp", "--select-cap",
             "1", "--initial", "dicker", "--boot", "5"],
            [*estimate, "--estimators", "dicker,selection,empirical", "--variance", "tilde"],
            [*simulate, "--estimators", "naive,single", "--variance", "gaussian-plugin"],
            [*simulate, "--estimators", "selection"],
            [*estimate, "--estimators", "naive,selection,empirical", "--clamp", "--select-cap",
             "1", "--initial", "dicker", "--boot", "5"],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "varest.cli", *argv],
                                  capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout))
        assert in_process == fresh
        assert in_process[0] == in_process[-1] and in_process[0] != in_process[1]


class TestEstimateWhitening:
    def test_raw_x_whitens_with_model(self, tmp_path, capsys):
        from varest.estimators import naive_tau2
        from varest.model import LabeledDataset, Whitening, build_w, whiten

        g = np.random.default_rng(21)
        n, p = 30, 2
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        mu = np.array([1.0, -2.0])
        chol = np.linalg.cholesky(cov)
        x_raw = (chol @ g.standard_normal((p, n))).T + mu
        y = g.standard_normal(n)
        rows = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
        for i in range(n):
            rows.append(",".join(format(v, ".17g") for v in [y[i], *x_raw[i]]))
        data = tmp_path / "raw.csv"
        data.write_text("\n".join(rows) + "\n")
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({
            "mean": list(mu), "covariance": [list(r) for r in cov],
            "fourth_moments": 3.0, "gaussian": True,
        }))
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model_file),
                      "--estimators", "naive", "--raw-x"])
        assert rc == 0
        got = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        want = naive_tau2(build_w(LabeledDataset(x=whiten(x_raw, Whitening(mu, cov)), y=y)))
        assert got == pytest.approx(want, rel=1e-5)

    def test_raw_x_identity_covariance_only_centres(self, tmp_path, capsys):
        # An identity covariance with a non-zero mean prints what the data centred
        # by hand prints under the zero-mean identity model.
        g = np.random.default_rng(22)
        n, p = 40, 6
        mu = g.standard_normal(p)
        x_raw, y = g.standard_normal((n, p)) + mu, g.standard_normal(n)
        outputs = []
        for name, x, mean, flags in (("raw", x_raw, list(mu), ["--raw-x"]),
                                     ("centred", x_raw - mu, 0.0, [])):
            rows = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
            rows += [",".join(repr(float(v)) for v in [y[i], *x[i]]) for i in range(n)]
            data, model = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            data.write_text("\n".join(rows) + "\n")
            model.write_text(json.dumps({"mean": mean, "covariance": "identity"}))
            rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                          "--estimators", "naive,dicker,full,single,selection",
                          "--variance", "tilde", *flags])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_oracle_rejected_for_data(self, toy_dataset, capsys):
        data, model = toy_dataset
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "oracle"])
        assert rc == 2
        assert "oracle" in capsys.readouterr().err


_HEAD = "y,x1,x2\n"
_ROWS = "1.5,-2,3e-1\n4,0.25,-6\n"
_NON_FINITE = ["nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+Inf", "infinity",
               "-Infinity", "INFINITY", "1e400", "-1e400"]
# (case id, file text written byte for byte, whether the per-line parse accepts it)
_PARSE_CASES = [
    ("trailing-newline", _HEAD + _ROWS, True),
    ("no-trailing-newline", _HEAD + _ROWS.rstrip("\n"), True),
    ("blank-lines", _HEAD + "\n1,2,3\n\n\n4,5,6\n\n", True),
    ("whitespace-line", _HEAD + "1,2,3\n \t \n4,5,6\n", False),
    ("whitespace-last-line", _HEAD + _ROWS + "  ", False),
    ("crlf", (_HEAD + _ROWS).replace("\n", "\r\n"), True),
    ("cr-only", (_HEAD + _ROWS).replace("\n", "\r"), True),
    ("mixed-line-ends", _HEAD + "1,2,3\r4,5,6\r\n7,8,9\n", True),
    ("spaces-around", _HEAD + " 1 , 2,3 \n4 ,  5 ,6\n", True),
    ("tabs-around", _HEAD + "\t1\t,2,\t3\n4,5\t,6\n", True),
    ("quoted-number", _HEAD + '"1.5",2,"3"\n4,5,6\n', True),
    ("underscore", _HEAD + "1_0,2,3\n4,5_000.5,6\n", True),
    ("hash-in-field", _HEAD + "1,2#x,3\n4,5,6\n", False),
    ("hash-ends-row", _HEAD + "1,2,3#x\n4,5,6\n", False),
    ("hash-line", _HEAD + "#1,2,3\n1,2,3\n4,5,6\n", False),
    ("empty-field", _HEAD + "1,,3\n4,5,6\n", False),
    ("hex", _HEAD + "0x10,2,3\n4,5,6\n", False),
    ("underflow", _HEAD + "1e-400,4.9e-324,3\n4,5,-1e-320\n", True),
    *[(f"non-finite-{v}", _HEAD + f"1,2,3\n4,{v},6\n7,8,9\n", False) for v in _NON_FINITE],
    ("ragged-long", _HEAD + "1,2,3,4\n5,6,7\n", False),
    ("ragged-short", _HEAD + "1,2,3\n5,6\n", False),
    ("every-row-too-wide", _HEAD + "1,2,3,4\n5,6,7,8\n", False),
    ("one-row", _HEAD + "1,2,3\n", False),
    ("header-only", _HEAD, False),
    ("header-only-no-newline", _HEAD.rstrip("\n"), False),
    ("bad-header", "x,y\n1,2\n3,4\n", False),
    ("unterminated-quote", _HEAD + '1,2,3\n4,5,"6\n', False),
]
_LONG = "y,x1\n" + "1.5,2.5\n" * 1500  # 12 KB: past the first 8 KB read chunk
# (case id, file bytes, line the error names, message after the line)
_BAD_INPUT_CASES = [
    ("byte-near-start", b"y,x1\n1,2\n3,\xff4\n", 3, "byte 0xff is not UTF-8"),
    ("byte-past-first-chunk", _LONG.encode() + b"2.5,\xfe1\n" + b"1,2\n" * 10, 1502,
     "byte 0xfe is not UTF-8"),
    ("byte-in-header", b"y,x\xc31\n1,2\n3,4\n", 1, "byte 0xc3 is not UTF-8"),
    ("unterminated-quote", b'y,x1\n1,2\n3,"4\n', 3, "unexpected end of data"),
]


class TestDatasetParsing:
    """The one-call parse agrees with the per-line parse on every input."""

    @staticmethod
    def _outcome(load, path):
        try:
            return load(str(path))
        except cli.InvalidInput as exc:
            return str(exc)

    @pytest.mark.parametrize("text, accepted",
                             [c[1:] for c in _PARSE_CASES], ids=[c[0] for c in _PARSE_CASES])
    def test_parity_with_per_line_parse(self, tmp_path, capsys, text, accepted):
        data = tmp_path / "data.csv"
        data.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._outcome(cli._load_dataset, data)
        want = self._outcome(cli._load_dataset_by_line, data)
        assert isinstance(want, tuple) == accepted
        if not accepted:
            assert got == want
            model = tmp_path / "model.json"
            model.write_text(json.dumps({"covariance": "identity"}))
            assert run_cli(["estimate", "--data", str(data), "--model", str(model)]) == 2
            assert capsys.readouterr().err == f"error: {want}\n"
            return
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("content, line, message", [c[1:] for c in _BAD_INPUT_CASES],
                             ids=[c[0] for c in _BAD_INPUT_CASES])
    def test_bad_input_names_its_line(self, tmp_path, capsys, content, line, message):
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity"}))
        assert run_cli(["estimate", "--data", str(data), "--model", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {data}:{line}: {message}\n"

    def test_well_formed_file_skips_per_line_parse(self, tmp_path, monkeypatch):
        calls = []
        by_line = cli._load_dataset_by_line

        def counted(path):
            calls.append(path)
            return by_line(path)

        monkeypatch.setattr(cli, "_load_dataset_by_line", counted)
        g = np.random.default_rng(3)
        table = g.standard_normal((50, 6))
        cells = [[format(v, ".17g") for v in row] for row in table]
        data = tmp_path / "data.csv"
        data.write_text("y,x1,x2,x3,x4,x5\n" + "".join(",".join(r) + "\n" for r in cells))
        x, y = cli._load_dataset(str(data))
        assert calls == []
        assert np.array_equal(x, table[:, 1:]) and np.array_equal(y, table[:, 0])
        cells[0][0] = f'"{cells[0][0]}"'  # the one-call parse rejects a quoted number
        data.write_text("y,x1,x2,x3,x4,x5\n" + "".join(",".join(r) + "\n" for r in cells))
        x, y = cli._load_dataset(str(data))
        assert len(calls) == 1
        assert np.array_equal(x, table[:, 1:]) and np.array_equal(y, table[:, 0])


# Cells that a data CSV may hold in place of a number.
_BAD_CELLS = [b"nan", b"-inf", b"Infinity", b"1e400", b"-1e308", b"1e308", b"abc", b"true",
              b"", b'"1.5"', b"\xff", b"\xc3(", b"1,2", b"-0", b"0x10"]
# Values of a model's number fields that are out of range, non-finite or of the wrong type.
_BAD_NUMBERS = [-1.0, 0.5, 1e308, -1e308, float("nan"), float("inf"), 2 ** 70, "3", True,
                None, "identity", [1.0], {"a": 1}]
# Flag values: the first ones are valid, then ones out of range or of the wrong type.
_FLAG_VALUES = {
    "--variance": (["gaussian-plugin", "tilde"], ["bogus", ""]),
    "--select-split-fraction": (["0.5", "0.3", "0.999", "1e-300"], ["0", "1.5", "nan", "abc"]),
    "--select-cap": (["0", "1", "3"], ["-1", "abc"]),
    "--initial": (list(INITIAL_IDS), ["bogus"]),
    "--boot": (["2", "3", "17"], ["1", "-5", "abc"]),
}
_SWITCHES = ["--clamp", "--center-y", "--raw-x", "--select-split"]
_CLI_IDS = [e for e in ESTIMATOR_IDS if e != "oracle"]


@st.composite
def _data_csv(draw, bad):
    """A ``y,x1,...,xp`` CSV of seeded numbers, n, p <= 50, and its p.

    If ``bad``, the numbers are at an extreme scale or a few cells are replaced.
    """
    n, p = draw(st.integers(0, 50)), draw(st.integers(1, 50))
    extreme = bad and draw(st.booleans())
    scale = draw(st.sampled_from([1e-300, 1e150, 1e300] if extreme else [1.0, -1.0, 1e-3]))
    table = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((n, p + 1))
    cells = [[repr(float(v) * scale).encode() for v in row] for row in table]
    for _ in range(draw(st.integers(1, 3)) if bad and not extreme and n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p))
        cells[i][j] = draw(st.sampled_from(_BAD_CELLS))
    header = b"y," + b",".join(b"x%d" % (j + 1) for j in range(p))
    return b"\n".join([header] + [b",".join(row) for row in cells]) + b"\n", p


def _scaled_identity(k, scale, corner):
    """``scale`` times the k x k identity, its top-right entry set to ``corner`` unless None."""
    rows = (np.eye(k) * scale).tolist()
    if rows and corner is not None:
        rows[0][-1] = corner
    return rows


@st.composite
def _model_json(draw, p, bad):
    """Model-file bytes; if ``bad``, the file or one field has a wrong type, size or value."""
    gaussian = draw(st.booleans())
    model = {"mean": draw(st.sampled_from([0.0, 0.5, -2.0, [0.25] * p])),
             "covariance": draw(st.sampled_from(["identity", _scaled_identity(p, 4.0, None)])),
             "fourth_moments": 3.0 if gaussian else draw(st.sampled_from([1.0, 9.0, [2.0] * p])),
             "independent_columns": draw(st.booleans()), "gaussian": gaussian}
    for key in draw(st.lists(st.sampled_from(sorted(model)), unique=True)):
        del model[key]
    if bad:
        key = draw(st.sampled_from(["file", "mean", "covariance", "fourth_moments",
                                    "independent_columns", "gaussian"]))
        if key == "file":
            return draw(st.sampled_from([b"[1, 2]", b"3", b'"identity"', b"{",
                                         b'{"mean": "\xff"}', b"[" * 5000 + b"]" * 5000]))
        if key in ("independent_columns", "gaussian"):
            value = st.sampled_from(["false", 1, None])
        elif key == "covariance":  # a wrong size, scale or entry
            value = st.tuples(st.integers(p - 1, p + 1), st.sampled_from([1.0, 1e-12, -1.0]),
                              st.sampled_from(_BAD_NUMBERS)).map(lambda a: _scaled_identity(*a))
        else:
            value = st.one_of(st.sampled_from(_BAD_NUMBERS),
                              st.sampled_from([p + 1, p - 1]).map(lambda k: [1.0] * k),
                              st.sampled_from(_BAD_NUMBERS).map(lambda v: [v] * p))
        model[key] = draw(value)
    return json.dumps(model).encode()


@st.composite
def _argv_tail(draw, bad):
    """Estimator ids, flags and switches for ``estimate``; if ``bad``, one id or value is wrong."""
    argv = ["--estimators", ",".join(draw(st.lists(st.sampled_from(_CLI_IDS), min_size=1)))]
    flags = draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), unique=True, min_size=int(bad)))
    wrong = draw(st.sampled_from(["--estimators", *flags])) if bad else None
    if wrong == "--estimators":
        argv[1] += "," + draw(st.sampled_from(["oracle", "bogus", ""]))
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag][flag == wrong]))]
    return argv + draw(st.lists(st.sampled_from(_SWITCHES), unique=True))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bad=st.sampled_from([None, None, "data", "model", "argv"]), extra=st.data())
def test_estimate_contract_on_fuzzed_input(tmp_path_factory, bad, extra):
    """``estimate`` exits 0, 1 or 2, raises and warns nothing, and prints only finite numbers.

    Each example spoils at most one of the data file, the model file and argv.
    """
    text, p = extra.draw(_data_csv(bad == "data"))
    folder = tmp_path_factory.getbasetemp() / "fuzz"
    folder.mkdir(exist_ok=True)
    data_path, model_path = folder / "data.csv", folder / "model.json"
    data_path.write_bytes(text)
    model_path.write_bytes(extra.draw(_model_json(p, bad == "model")))
    argv = ["estimate", "--data", str(data_path), "--model", str(model_path),
            *extra.draw(_argv_tail(bad == "argv"))]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 1, 2), err.getvalue()
    assert [str(w.message) for w in caught] == []
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert (rc == 2) == (rows == [])
    for row in rows[1:]:
        assert len(row) == 5
        numbers = [float(v) for v in row[1:4] if v]
        assert all(math.isfinite(v) for v in numbers), row
        if row[4].startswith(("error=", "warning=")):
            assert numbers == []


# Scenario fields: valid values, then ones out of range; _WRONG_TYPES are wrong for every field.
_SCENARIO_VALUES = {
    "n": ([2, 5, 20], [1, 0, -3]),
    "p": ([20], [0, -1]),
    "tau2": ([1.0, 2.5, 1e308], [-1.0, float("nan"), float("inf")]),
    "tau2_b": ([0.0, 0.5], [-0.5, float("nan")]),
    "sigma2": ([0.0, 1.0, 1e300], [-1.0, float("inf")]),
    "b_size": ([1, 2], [0, -2, 99]),
    "reps": ([2, 4], [1, 0, -1]),
    "seed": ([0, 7, 2 ** 40], [-1]),
    "x_dist": (["gaussian", "scaled-t(6)", "rademacher-mix"], ["scaled-t(3)", "bogus", ""]),
}
_WRONG_TYPES = [True, None, [1], "abc"]
_SCENARIO_FLAGS = {"tau2_b": "--tau2b", "b_size": "--b-size", "x_dist": "--x-dist"}


@st.composite
def _simulate_argv(draw, folder, bad):
    """``simulate`` argv with n, p <= 20, scenario fields split between flags and a JSON file.

    If ``bad``, one of these is wrong: a scenario field, the scenario file, a flag
    value or an output path.  Returns the argv and what was spoiled (None if nothing).
    """
    spoil = draw(st.sampled_from(["field", "file", "missing", "argv", "records-out",
                                  "summary-out"])) if bad else None
    fields = {key: draw(st.sampled_from(values[0])) for key, values in _SCENARIO_VALUES.items()}
    fields["p"] = draw(st.integers(fields["b_size"] + 1, 20))
    if spoil == "field":
        key = draw(st.sampled_from(sorted(fields)))
        fields[key] = draw(st.sampled_from(_SCENARIO_VALUES[key][1] + _WRONG_TYPES))
    if spoil == "missing":
        del fields[draw(st.sampled_from(["n", "p", "tau2", "tau2_b", "seed"]))]
    in_file = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    scenario = json.dumps({key: fields[key] for key in in_file}).encode()
    if spoil == "file":
        scenario = draw(st.sampled_from([b"[1, 2]", b"{", b'{"n": "\xff"}', b'{"m": 3}']))
    argv = ["simulate"]
    if in_file or spoil == "file":
        (folder / "scenario.json").write_bytes(scenario)
        argv += ["--scenario", str(folder / "scenario.json")]
    for key in sorted(set(fields) - set(in_file)):
        argv += [_SCENARIO_FLAGS.get(key, f"--{key}"), str(fields[key])]
    values = {**_FLAG_VALUES, "--workers": (["1"], ["0", "-3", "abc"])}
    flags = draw(st.lists(st.sampled_from(sorted(values)), unique=True,
                          min_size=int(spoil == "argv")))
    wrong = draw(st.sampled_from(["--estimators", *flags])) if spoil == "argv" else None
    ids = draw(st.lists(st.sampled_from(ESTIMATOR_IDS), min_size=1))
    ids += ["bogus"] * (wrong == "--estimators")
    argv += ["--estimators", ",".join(ids)]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(values[flag][flag == wrong]))]
    if draw(st.booleans()):
        argv.append("--select-split")
    for flag, name in (("--records-out", "r.csv"), ("--summary-out", "s.csv")):
        argv += [flag, str(folder / "missing" / name if spoil == flag[2:] else folder / name)]
    return argv, spoil


# Records fields: valid numbers, the ordinary ones first, then cells that parse as no number.
_RECORD_NUMBERS = [b"1.5", b"-0.25", b"0", b"2", b"1_0", b"nan", b"inf", b"-inf", b"1e308",
                   b"-1e308", b"1e-300"]
_RECORD_JUNK = [b"abc", b"\xff", b"\xc3(", b'"1,5"', b"0x10", b"1.5.2"]


@st.composite
def _records_csv(draw):
    """Records-file bytes and whether they are malformed.

    Malformed: a wrong or missing header, no records, or a row that is blank,
    ragged, not UTF-8 or holds a field that is not a number.
    """
    spoil = draw(st.sampled_from([None] * 4 + ["header", "empty", "blank", "ragged", "junk"]))
    header = b"rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms"
    if spoil == "header":
        header = draw(st.sampled_from([b"", b"rep,estimator", b"\xff", header + b",aux"]))
    numbers = st.sampled_from(_RECORD_NUMBERS[:5] * 8 + _RECORD_NUMBERS[5:])
    ids = (b"naive", b"single")[:draw(st.integers(1, 2))]
    reps = 0 if spoil == "empty" else draw(st.sampled_from([1, 2, 2, 3, 4]))
    rows = [[b"%d" % rep, eid, *(draw(numbers) for _ in range(3)), b"0"]
            for rep in range(reps) for eid in ids]
    if spoil in ("blank", "ragged", "junk"):
        row = draw(st.sampled_from(rows))
        if spoil == "junk":
            row[draw(st.sampled_from([0, 2, 3, 4, 5]))] = draw(st.sampled_from(_RECORD_JUNK))
        else:
            del row[0 if spoil == "blank" else draw(st.integers(1, 5)):]
    lines = [header, *(b",".join(row) for row in rows)]
    # a last line left blank still ends in a line break
    end = b"\n" if spoil == "blank" else draw(st.sampled_from([b"\n", b""]))
    return b"\n".join(lines) + end, spoil is not None


def _run_main(argv):
    """``main(argv)``'s exit status and stdout; it must raise and warn nothing."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    # a successful call prints its table, a failed one only its error
    assert (rc == 0) == (out.getvalue() != ""), err.getvalue()
    return rc, out.getvalue()


def _check_summary(records_path, summary_path, table):
    """The printed table is the summary CSV; a NaN summary row has a NaN record."""
    summary = list(csv.reader(open(summary_path)))
    assert [line.split() for line in table] == summary
    nan_ids = {r.estimator_id for r in read_records_csv(records_path) if math.isnan(r.tau2_hat)}
    for row in summary[1:]:
        if any(math.isnan(float(v)) for v in row[1:]):
            assert row[0] in nan_ids, row


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bad=st.booleans(), extra=st.data())
def test_simulate_contract_on_fuzzed_input(tmp_path_factory, bad, extra):
    """``simulate`` exits 2 on bad input and 0 or 1 otherwise, raises and warns nothing,
    and prints the summary CSV it writes.
    """
    folder = tmp_path_factory.getbasetemp() / "fuzz-simulate"
    folder.mkdir(exist_ok=True)
    for path in folder.iterdir():
        path.unlink()
    argv, spoil = extra.draw(_simulate_argv(folder, bad))
    rc, out = _run_main(argv)
    assert rc in ((0, 1) if spoil is None else (2,))
    if rc == 0:
        assert out.startswith("scenario: ")
        _check_summary(folder / "r.csv", folder / "s.csv", out.splitlines()[1:])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(records=_records_csv(),
       true_tau2=st.sampled_from(["1", "0", "-2.5", "1e308", "1", "nan", "inf", "abc"]),
       out_missing=st.sampled_from([False, False, True]))
def test_summarize_contract_on_fuzzed_input(tmp_path_factory, records, true_tau2, out_missing):
    """``summarize`` exits 2 on malformed records, a non-finite truth or an unwritable
    summary, and 0 or 1 otherwise; it raises and warns nothing and prints the summary CSV.
    """
    folder = tmp_path_factory.getbasetemp() / "fuzz-summarize"
    folder.mkdir(exist_ok=True)
    text, malformed = records
    (folder / "r.csv").write_bytes(text)
    summary = folder / "missing" / "s.csv" if out_missing else folder / "s.csv"
    summary.unlink(missing_ok=True)
    rc, out = _run_main(["summarize", "--records", str(folder / "r.csv"),
                         "--true-tau2", true_tau2, "--out", str(summary)])
    if malformed or true_tau2 in ("nan", "inf", "abc") or out_missing:
        assert rc == 2
    else:
        assert rc in (0, 1)
    if rc == 0:
        _check_summary(folder / "r.csv", summary, out.splitlines())
