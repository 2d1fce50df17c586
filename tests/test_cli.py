import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from varest import cli
from varest.cli import main


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

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--n", "10", "--p", "4", "--tau2", "1", "--tau2b", "0.2",
            "--b-size", "2", "--seed", "1", "--estimators", "bogus",
            "--records-out", str(tmp_path / "r.csv"),
            "--summary-out", str(tmp_path / "s.csv"),
        ])
        assert rc == 2


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
        (["--initial", "bogus"], "--initial"),
        (["--boot", "1"], "--boot"),
    ], ids=["initial", "boot"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_bad_value_exits_2(self, tmp_path, toy_dataset, capsys, command, flags, message):
        rc = run_cli(self.base_args(command, tmp_path, toy_dataset) + ["--empirical", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_ignored_without_empirical(self, tmp_path, toy_dataset, command):
        # the bootstrap flags only matter when the empirical estimator runs
        args = self.base_args(command, tmp_path, toy_dataset)
        assert run_cli(args + ["--initial", "bogus", "--boot", "1"]) == 0


class TestSelectionFlags:
    base_args = staticmethod(TestEmpiricalFlags.base_args)

    @pytest.mark.parametrize("flags, message", [
        (["--select-split", "--select-split-fraction", "1.5"], "--select-split-fraction"),
        (["--select-split", "--select-split-fraction", "0"], "--select-split-fraction"),
        (["--select-cap", "-1"], "--select-cap"),
    ], ids=["fraction-above-1", "fraction-0", "negative-cap"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_bad_value_exits_2(self, tmp_path, toy_dataset, capsys, command, flags, message):
        args = self.base_args(command, tmp_path, toy_dataset)
        rc = run_cli(args + ["--estimators", "naive,selection", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_ignored_without_selection(self, tmp_path, toy_dataset, command):
        args = self.base_args(command, tmp_path, toy_dataset)
        flags = ["--select-split", "--select-split-fraction", "1.5", "--select-cap", "-1"]
        assert run_cli(args + flags) == 0

    def test_fraction_ignored_without_split(self, tmp_path, toy_dataset):
        args = self.base_args("simulate", tmp_path, toy_dataset)
        assert run_cli(args + ["--estimators", "selection", "--select-split-fraction", "1.5"]) == 0


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

    def test_selection_aux_lists_columns(self, tmp_path, capsys):
        g = np.random.default_rng(0)
        n, p = 60, 6
        x = g.standard_normal((n, p))
        beta = np.array([1.0, 0.9, 0.0, 0.0, 0.0, 0.0])
        y = x @ beta + g.standard_normal(n)
        rows = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
        for i in range(n):
            rows.append(",".join(format(v, ".8g") for v in [y[i], *x[i]]))
        data = tmp_path / "sel.csv"
        data.write_text("\n".join(rows) + "\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"covariance": "identity", "gaussian": True}))
        rc = run_cli(["estimate", "--data", str(data), "--model", str(model),
                      "--estimators", "selection", "--select-split"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert "selected=" in line

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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "varest.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


class TestEstimateWhitening:
    def test_raw_x_whitens_with_model(self, tmp_path, capsys):
        from varest.estimators import naive_tau2
        from varest.model import CovariateModel, LabeledDataset, build_w, whiten

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
        model = CovariateModel(mean=mu, covariance=cov, fourth_moments=3.0,
                               gaussian=True)
        want = naive_tau2(build_w(LabeledDataset(x=whiten(x_raw, model), y=y)))
        assert got == pytest.approx(want, rel=1e-5)

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
]


class TestDatasetParsing:
    """The one-call parse agrees with the per-line parse on every input."""

    @staticmethod
    def _outcome(load, path):
        try:
            return load(str(path))
        except cli._ConfigError as exc:
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
