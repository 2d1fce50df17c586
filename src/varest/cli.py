"""Command-line interface: simulate scenarios, estimate from files, summarize.

Exit codes: 0 on success; 2 on bad input (a bad flag or value, a file that
cannot be read or written, a malformed data, model, scenario or records
file), which is an ``InvalidInput`` whether the library or the CLI finds it;
1 on every other ``VarestError``.  The CLI defines no error class of its own.
:func:`main` returns the codes, argparse's usage errors included, and raises
nothing.  Each value is checked by the library type it builds, whatever
estimators run, and each output directory before any work.  A file error
reads ``error: <path>[:<line>]: <reason>``: data and records CSVs are read by
one strict reader, ``harness.csv_rows``, and JSON files by ``_read_json``,
which names the line of a syntax error.
All simulation randomness flows from ``--seed`` (or the scenario file);
omitting it is an error, never silent entropy.  Every number the CLI writes or prints goes
through ``format_value`` (6 significant digits), and both ``simulate`` and
``summarize`` summarize a records file through one function, so the printed
table shows the summary CSV's values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from .errors import DegenerateZeroEstimator, DimensionMismatch, InvalidInput, VarestError
from .estimators import ESTIMATOR_IDS
from .harness import (
    INITIAL_IDS,
    SUMMARY_HEADER,
    VARIANCE_METHODS,
    DatasetStats,
    HarnessOptions,
    check_estimator_ids,
    csv_rows,
    estimate,
    format_value,
    read_records_csv,
    run_scenario,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .model import CovariateModel, LabeledDataset, Whitening, float_array, whiten
from .simgen import ScenarioConfig

_SCENARIO_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
_OPTION_KEYS = tuple(f.name for f in dataclasses.fields(HarnessOptions))
_COLUMN = len(format_value(-np.finfo(float).max)) + 1  # a summary column fits any float


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and then reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="varest",
        description="Signal/noise variance estimation for high-dimensional "
                    "linear models with a known covariate distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", help="JSON file with scenario fields")
    sim.add_argument("--n", type=int)
    sim.add_argument("--p", type=int)
    sim.add_argument("--tau2", type=float)
    sim.add_argument("--tau2b", type=float, dest="tau2_b")
    sim.add_argument("--sigma2", type=float)
    sim.add_argument("--b-size", type=int, dest="b_size")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--x-dist", dest="x_dist",
                     help="gaussian | scaled-t(df) | rademacher-mix")
    sim.add_argument("--estimators", default="naive",
                     help="comma-separated ids: " + ",".join(ESTIMATOR_IDS))
    sim.add_argument("--records-out", default="records.csv")
    sim.add_argument("--summary-out", default="summary.csv")
    sim.add_argument("--variance", dest="variance_method", help=" | ".join(VARIANCE_METHODS))
    sim.add_argument("--workers", type=int, default=1,
                     help="worker processes (capped at the CPU count)")
    _add_selection_flags(sim)
    _add_empirical_flags(sim)

    est = sub.add_parser("estimate", help="estimate tau^2/sigma^2 from a dataset CSV")
    est.add_argument("--data", required=True, help="CSV with header y,x1,...,xp")
    est.add_argument("--model", required=True,
                     help="JSON covariate-model file (the known X distribution)")
    est.add_argument("--estimators", default="naive")
    est.add_argument("--out", help="output CSV (default: stdout)")
    est.add_argument("--variance", dest="variance_method", help=" | ".join(VARIANCE_METHODS))
    est.add_argument("--clamp", action="store_true",
                     help="clamp reported tau2/sigma2 at zero (output only)")
    est.add_argument("--center-y", action="store_true",
                     help="subtract the sample mean from Y before estimating")
    est.add_argument("--raw-x", action="store_true",
                     help="whiten the covariates with the model before estimating "
                          "(default assumes the file is already whitened)")
    _add_selection_flags(est)
    _add_empirical_flags(est)

    summ = sub.add_parser("summarize", help="summarize an existing records CSV")
    summ.add_argument("--records", required=True)
    summ.add_argument("--true-tau2", type=float, required=True)
    summ.add_argument("--out", default="summary.csv")
    return parser


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--select-split", action="store_true",
                   help="split rows: select on one part, correct on the other")
    p.add_argument("--select-split-fraction", type=float, default=0.5)
    p.add_argument("--select-cap", type=int, default=None,
                   help="bound on the selected-set size (default: uncapped)")


def _add_empirical_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--initial", default="naive",
                   help="initial estimator of the empirical estimator: " + ",".join(INITIAL_IDS))
    p.add_argument("--boot", type=int, default=200,
                   help="bootstrap resamples of the empirical estimator")


@contextlib.contextmanager
def _file_errors(path: str):
    """Make a file that cannot be opened, read or written an input error, ``<path>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror or exc}") from exc


def _read_json(path: str):
    """The JSON value in ``path``; a file that does not decode is an input error naming it."""
    with _file_errors(path), open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, an int too long, too deep
            raise InvalidInput(f"{path}: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    fields: dict = {}
    if args.scenario:
        raw = _read_json(args.scenario)
        if not isinstance(raw, dict):
            raise InvalidInput("invalid scenario: the file must hold a JSON object")
        unknown = set(raw) - set(_SCENARIO_KEYS)
        if unknown:
            raise InvalidInput(f"unknown scenario fields: {sorted(unknown)}")
        fields.update(raw)
    for key in _SCENARIO_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    for key in ("n", "p", "tau2", "tau2_b"):
        if key not in fields:
            flag = "--tau2b" if key == "tau2_b" else f"--{key}"
            raise InvalidInput(f"missing required scenario field {key} ({flag})")
    if "seed" not in fields:
        raise InvalidInput("missing --seed: all simulation randomness must be pinned")
    return ScenarioConfig(**fields)


def _parse_estimators(raw: str) -> list[str]:
    """The comma-separated ids of ``--estimators``, checked by ``check_estimator_ids``."""
    ids = [e.strip() for e in raw.split(",") if e.strip()]
    check_estimator_ids(ids)
    return ids


def _options_from_args(args) -> HarnessOptions:
    """``HarnessOptions`` from the flags named after its fields; it checks every value."""
    return HarnessOptions(**{key: getattr(args, key) for key in _OPTION_KEYS
                             if hasattr(args, key)})


def _check_output_dirs(*paths: str | None) -> None:
    """Fail before any work if an output's directory is missing; no file is opened yet."""
    for path in filter(None, paths):
        with _file_errors(path):
            os.stat(os.path.dirname(os.path.abspath(path)))


def _cmd_simulate(args) -> int:
    _check_output_dirs(args.records_out, args.summary_out)
    cfg = _scenario_from_args(args)
    if cfg.reps < 2:
        raise InvalidInput(f"reps must be at least 2 to summarize, got {cfg.reps}")
    estimators = _parse_estimators(args.estimators)
    options = _options_from_args(args)
    records = run_scenario(cfg, estimators, options)
    with _file_errors(args.records_out):
        write_records_csv(args.records_out, records)
    summaries = _summarize_records(args.records_out, cfg.tau2, args.summary_out)
    tau2, tau2_b, sigma2 = map(format_value, (cfg.tau2, cfg.tau2_b, cfg.sigma2))
    print(f"scenario: n={cfg.n} p={cfg.p} tau2={tau2} tau2_b={tau2_b} sigma2={sigma2} "
          f"reps={cfg.reps} seed={cfg.seed}")
    _print_summary_table(summaries)
    return 0


def _summarize_records(records_path: str, true_tau2: float, summary_path: str):
    """Summarize a records file into a summary CSV; both commands' one summary path.

    ``simulate`` reads back the records it wrote, so its summary is ``summarize``'s.
    """
    with _file_errors(records_path):
        records = read_records_csv(records_path)
    if not records:
        raise InvalidInput(f"{records_path}: no records")
    summaries = summarize(records, true_tau2)
    with _file_errors(summary_path):
        write_summary_csv(summary_path, summaries)
    return summaries


def _print_summary_table(summaries) -> None:
    """Print the summary CSV's header and rows, each number right-aligned."""
    for row in [SUMMARY_HEADER, *(s.csv_row() for s in summaries)]:
        print(f"{row[0]:<12}" + "".join(f"{v:>{_COLUMN}}" for v in row[1:]))


def _model_vector(raw: dict, key: str, default: float, p: int) -> np.ndarray:
    """Model field ``key`` as a length-p vector: a number or a list of p numbers."""
    vector = float_array(raw.get(key, default), key)
    if vector.ndim == 0:
        vector = np.full(p, vector)
    if vector.shape != (p,):
        raise DimensionMismatch(f"{key} must be a number or a list of {p} numbers")
    return vector


def _load_model(path: str, p: int) -> tuple[CovariateModel, Whitening | None]:
    """The file's covariate model, and its whitening unless that is the identity map."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise InvalidInput("invalid covariate model: the file must hold a JSON object")
    try:
        mean = _model_vector(raw, "mean", 0.0, p)
        cov = raw.get("covariance", "identity")
        identity = cov == "identity"
        whitening = None
        if not (identity and not mean.any()):
            whitening = Whitening(mean, None if identity else cov)
        m4 = _model_vector(raw, "fourth_moments", 3.0, p)
        return CovariateModel(m4, independent_columns=raw.get("independent_columns", True),
                              gaussian=raw.get("gaussian", False)), whitening
    except InvalidInput as exc:
        raise InvalidInput(f"invalid covariate model: {exc}") from exc


def _read_header(path: str, rows) -> int:
    """Check the ``y,x1,...,xp`` header and return its field count."""
    header = next(rows, (1, []))[1]
    if not header or header[0] != "y" or len(header) < 2:
        raise InvalidInput(f"{path}:1: expected header y,x1,...,xp")
    return len(header)


def _load_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``y,x1,...,xp`` CSV into C-contiguous ``(x, y)``.

    The rows after the header are parsed in one ``np.loadtxt`` call.  A file
    it rejects, or whose result is not a finite ``n >= 2`` table of the
    header's width, is re-read line by line by :func:`_load_dataset_by_line`,
    which decides it: the same arrays (it also accepts quoted numbers and
    ``1_0``) or the error naming the offending line.  ``comments=None``
    keeps ``1,2#x`` an error instead of ``1,2``.
    """
    with _file_errors(path), csv_rows(path) as (fh, rows):
        width = _read_header(path, rows)
        try:
            with warnings.catch_warnings():
                # A header-only file warns "input contained no data".
                warnings.simplefilter("error")
                data = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except (ValueError, Warning):
            data = None
    if data is None or data.shape[1] != width or data.shape[0] < 2 or not np.isfinite(data).all():
        return _load_dataset_by_line(path)
    return np.ascontiguousarray(data[:, 1:]), np.ascontiguousarray(data[:, 0])


def _load_dataset_by_line(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the CSV's rows from :func:`csv_rows` with ``float()`` per cell."""
    with _file_errors(path), csv_rows(path) as (_, rows):
        width = _read_header(path, rows)
        ys, xs, lines = [], [], []
        for line, row in rows:
            if not row:
                continue
            if len(row) != width:
                raise InvalidInput(f"{path}:{line}: expected {width} fields, got {len(row)}")
            try:
                ys.append(float(row[0]))
                xs.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise InvalidInput(f"{path}:{line}: {exc}") from exc
            lines.append(line)
    if len(ys) < 2:
        raise InvalidInput(f"{path}: need at least 2 observations")
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    finite = np.isfinite(y) & np.isfinite(x).all(axis=1)
    if not finite.all():
        raise InvalidInput(f"{path}:{lines[np.argmin(finite)]}: values must be finite")
    return x, y


def _output(path: str | None):
    """``path`` opened for writing, or stdout if there is none."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _cmd_estimate(args) -> int:
    _check_output_dirs(args.out)
    x, y = _load_dataset(args.data)
    model, whitening = _load_model(args.model, x.shape[1])
    estimators = _parse_estimators(args.estimators)
    if "oracle" in estimators:
        raise InvalidInput(
            "the oracle estimator needs the true coefficients and is only "
            "available in simulations"
        )
    options = _options_from_args(args)
    if args.raw_x and whitening is not None:
        x = whiten(x, whitening)
    ds = LabeledDataset(x=x, y=y)
    if args.center_y:
        ds = ds.center_y()

    rows, errors = [], []
    stats = DatasetStats(ds, model)
    for eid in estimators:
        try:
            report = estimate(stats, eid, options=options, boot_seed=0)
            tau2, sigma2 = report.tau2, report.sigma2
            if args.clamp:
                tau2, sigma2 = max(0.0, tau2), max(0.0, sigma2)
            aux = ";".join(f"{k}={v}" for k, v in sorted(report.aux.items()))
            rows.append((eid, tau2, sigma2, report.variance_estimate, aux))
        except DegenerateZeroEstimator as exc:
            rows.append((eid, None, None, None, f"warning={exc}"))
        except VarestError as exc:
            # One estimator's failure keeps the other rows; the exit status reports it.
            rows.append((eid, None, None, None, f"error={type(exc).__name__}: {exc}"))
            errors.append(f"{eid}: {exc}")

    # csv quotes a field that holds a comma, such as ``selected=(1, 3)`` in aux
    with _file_errors(args.out or "stdout"), _output(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["estimator", "tau2", "sigma2", "var_hat", "aux"])
        for eid, *numbers, aux in rows:
            writer.writerow([eid, *map(format_value, numbers), aux])
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_summarize(args) -> int:
    _check_output_dirs(args.out)
    _print_summary_table(_summarize_records(args.records, args.true_tau2, args.out))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag or value, 0 after --help
        return exc.code
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_summarize(args)
    except VarestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInput) else 1


if __name__ == "__main__":
    sys.exit(main())
