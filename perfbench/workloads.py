"""The three workloads: seeded inputs, the CLI call per dataset, output checks.

Each workload is a pool of CLI calls built from the benchmark seed; the timed
loop cycles through the pool with one caller.  A call's argv names only files
the benchmark wrote under its work directory, so the library receives
generated inputs and derived scenario seeds, never the benchmark seed.

* ``table`` - ``varest simulate`` on the six benchmark-table cells with
  naive, single, selection and oracle, uncapped selection, no variance.
* ``csv-estimate`` - ``varest estimate`` with five estimators and
  ``--variance tilde`` on seeded CSVs written before timing starts.
* ``bootstrap`` - ``varest simulate --estimators empirical --boot 200
  --initial naive`` on the criterion-11 scenario.
"""

from __future__ import annotations

import csv
import io
import json
import math
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import varest
import varest.cli

TABLE_CELLS = tuple((tau2, frac * tau2) for tau2 in (1.0, 2.0) for frac in (1 / 3, 2 / 3, 0.99))
TABLE_ESTIMATORS = ("naive", "single", "selection", "oracle")
CSV_ESTIMATORS = ("naive", "dicker", "full", "single", "selection")
BOOT_SCENARIO = (2.0, 2.0 / 3.0)  # acceptance criterion 11: tau2 = 2, tau2_b = 2/3
# `summarize` needs two records per estimator, so a simulate call covers two
# replications (datasets).
REPS_PER_CALL = 2
# Four seeds per table cell average out how many columns selection picks,
# which sets the cost of a `table` replication.
POOL_CALLS = {"table": 4 * len(TABLE_CELLS), "csv-estimate": 4, "bootstrap": 2}
MODEL_JSON = {"mean": 0.0, "covariance": "identity", "fourth_moments": 3.0,
              "independent_columns": True, "gaussian": True}
WORKLOADS = tuple(POOL_CALLS)


@dataclass(frozen=True)
class Entry:
    """One pool entry: a CLI call and the equivalent package-API scenario."""

    index: int
    argv: tuple
    estimators: tuple
    scenario: dict  # ScenarioConfig fields
    options: dict  # HarnessOptions fields
    outputs: tuple  # files the call writes

    @property
    def datasets(self) -> int:
        return self.scenario["reps"]


def _scenario_seed(seed: int, workload: str, index: int) -> int:
    tag = zlib.crc32(workload.encode())
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def _simulate_entry(index, workdir, n, tau2, tau2_b, seed, estimators, extra):
    records = workdir / f"records-{index}.csv"
    summary = workdir / f"summary-{index}.csv"
    argv = ("simulate", "--n", str(n), "--p", str(n), "--tau2", repr(tau2),
            "--tau2b", repr(tau2_b), "--sigma2", "1", "--b-size", "5",
            "--reps", str(REPS_PER_CALL), "--seed", str(seed),
            "--estimators", ",".join(estimators), "--workers", "1",
            *extra, "--records-out", str(records), "--summary-out", str(summary))
    scenario = dict(n=n, p=n, tau2=tau2, tau2_b=tau2_b, sigma2=1.0, b_size=5,
                    reps=REPS_PER_CALL, seed=seed)
    return Entry(index, argv, estimators, scenario, {}, (str(records), str(summary)))


def _write_dataset_csv(path: Path, ds) -> None:
    # repr of a Python float round-trips exactly, so the CLI parses the same
    # arrays the package-API check feeds the estimators.
    with open(path, "w") as fh:
        fh.write("y," + ",".join(f"x{j + 1}" for j in range(ds.p)) + "\n")
        for yi, row in zip(ds.y.tolist(), ds.x.tolist()):
            fh.write(repr(yi) + "," + ",".join(map(repr, row)) + "\n")


def build_pool(workload: str, seed: int, workdir: Path, n: int,
               write: bool = True) -> list[Entry]:
    """Return the workload's call pool, writing its inputs under ``workdir``.

    ``write=False`` only rebuilds the entries, for a process that reuses
    inputs another process wrote.
    """
    pool = []
    model = workdir / "model.json"
    if write and workload == "csv-estimate":
        model.write_text(json.dumps(MODEL_JSON))
    for index in range(POOL_CALLS[workload]):
        s = _scenario_seed(seed, workload, index)
        if workload == "table":
            tau2, tau2_b = TABLE_CELLS[index % len(TABLE_CELLS)]
            pool.append(_simulate_entry(index, workdir, n, tau2, tau2_b, s,
                                        TABLE_ESTIMATORS, ()))
        elif workload == "bootstrap":
            tau2, tau2_b = BOOT_SCENARIO
            pool.append(_simulate_entry(index, workdir, n, tau2, tau2_b, s, ("empirical",),
                                        ("--boot", "200", "--initial", "naive")))
        else:
            tau2, tau2_b = TABLE_CELLS[index % len(TABLE_CELLS)]
            scenario = dict(n=n, p=n, tau2=tau2, tau2_b=tau2_b, sigma2=1.0, b_size=5,
                            reps=1, seed=s)
            data = workdir / f"data-{index}.csv"
            if write:
                cfg = varest.ScenarioConfig(**scenario)
                _write_dataset_csv(data, varest.generate_dataset(cfg, varest.build_beta(cfg), 0))
            out = workdir / f"estimate-{index}.csv"
            argv = ("estimate", "--data", str(data), "--model", str(model),
                    "--estimators", ",".join(CSV_ESTIMATORS), "--variance", "tilde",
                    "--out", str(out))
            pool.append(Entry(index, argv, CSV_ESTIMATORS, scenario,
                              {"variance_method": "tilde"}, (str(out),)))
    return pool


def run_cli(argv) -> tuple[int, str]:
    """Call ``varest.cli.main`` in-process; return its exit status and stderr.

    Looked up at call time so a traced run goes through the wrapper.  An
    exception escaping ``main`` is a failed call (status -1), not a crash.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = varest.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - counted as a failed call and reported
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def read_outputs(entry: Entry) -> tuple:
    out = []
    for path in entry.outputs:
        try:
            out.append(Path(path).read_bytes())
        except OSError:
            out.append(None)
    return tuple(out)


def warm_up(entry: Entry) -> None:
    """One untimed dataset through the workload's path, before timing."""
    if entry.argv[0] == "estimate":
        run_cli(entry.argv)
    else:
        api_results(entry, reps=1)


def api_results(entry: Entry, reps: int | None = None) -> dict:
    """Full-precision ``{(rep, estimator): (tau2, sigma2, var)}`` via run_scenario."""
    scenario = dict(entry.scenario)
    if reps is not None:
        scenario["reps"] = reps
    records = varest.run_scenario(varest.ScenarioConfig(**scenario), list(entry.estimators),
                                  varest.HarnessOptions(**entry.options))
    return {(r.rep_index, r.estimator_id): (r.tau2_hat, r.sigma2_hat, r.variance_estimate)
            for r in records}


def expected_keys(entry: Entry) -> list[tuple]:
    return [(rep, eid) for rep in range(entry.datasets) for eid in entry.estimators]


def _rows(outputs: tuple) -> list[list[str]]:
    """Data rows of the call's first output CSV (records, or the estimate table)."""
    text = outputs[0].decode() if outputs[0] is not None else ""
    return list(csv.reader(io.StringIO(text)))[1:]


def parse_outputs(entry: Entry, outputs: tuple) -> dict:
    """``{(rep, estimator): (tau2, sigma2, var)}`` as the CLI printed them."""
    rows = _rows(outputs)
    if entry.argv[0] == "estimate":
        return {(0, row[0]): tuple(row[1:4]) for row in rows if len(row) >= 4}
    return {(int(row[0]), row[1]): tuple(row[2:5]) for row in rows if len(row) >= 5}


def dataset_ms(entry: Entry, call_seconds: float, outputs: tuple) -> list[float]:
    """Wall time per dataset of one call, in ms.

    A simulate call holds ``REPS_PER_CALL`` replications: each gets its own
    estimator time from the records' ``wall_ms`` plus an equal share of the
    rest of the call (data generation, model set-up, CSV files, summary).
    """
    total = call_seconds * 1e3
    if entry.argv[0] == "estimate":
        return [total]
    per_rep = [0.0] * entry.datasets
    try:
        for row in _rows(outputs):
            per_rep[int(row[0])] += float(row[5])
    except (IndexError, ValueError):  # malformed records: split the call evenly
        per_rep = [0.0] * entry.datasets
    shared = (total - sum(per_rep)) / entry.datasets
    return [wall + shared for wall in per_rep]


def summarize_round_trip(entry: Entry, outputs: tuple, workdir: Path) -> bool:
    """Re-run ``varest summarize`` on the records; the summary must match bytewise."""
    if entry.argv[0] == "estimate":
        return True
    records, summary = outputs
    if records is None or summary is None:
        return False
    again_in = workdir / "roundtrip-records.csv"
    again_out = workdir / "roundtrip-summary.csv"
    again_in.write_bytes(records)
    tau2 = entry.argv[entry.argv.index("--tau2") + 1]
    code, _ = run_cli(("summarize", "--records", str(again_in), "--true-tau2", tau2,
                       "--out", str(again_out)))
    return code == 0 and again_out.read_bytes() == summary


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def fmt6(value) -> str:
    """The CLI's output format for a value (6 significant digits)."""
    return "" if value is None else format(float(value), ".6g")


def check_value(printed: tuple, reference: tuple | None, var_expected: bool) -> bool:
    """A printed (tau2, sigma2, var) triple is finite and matches the reference."""
    tau2, sigma2, var = printed
    if not (_finite(tau2) and _finite(sigma2)):
        return False
    if var_expected != bool(var) or (var and not _finite(var)):
        return False
    return reference is None or printed == tuple(fmt6(v) for v in reference)


def close(a, b) -> bool:
    """Equal to the refactor tolerance, 1e-12 relative; ``None`` only equals ``None``."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))
