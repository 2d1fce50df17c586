"""Command-line interface: simulate scenarios, estimate from files, summarize.

Exit codes: 0 on success, 2 on configuration or input-parsing errors, 1 on
runtime failures; :func:`main` returns them, argparse's usage errors
included.  All simulation randomness flows from ``--seed`` (or the
scenario file); omitting it is an error, never silent entropy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import warnings

import numpy as np

from .errors import DegenerateZeroEstimator, DimensionMismatch, VarestError
from .estimators import ESTIMATOR_IDS
from .harness import (
    INITIAL_IDS,
    DatasetStats,
    HarnessOptions,
    estimate,
    read_records_csv,
    run_scenario,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .model import CovariateModel, LabeledDataset, Whitening, whiten
from .simgen import ScenarioConfig

_SCENARIO_KEYS = ("n", "p", "tau2", "tau2_b", "sigma2", "b_size", "reps", "seed", "x_dist")


class _ConfigError(Exception):
    """User-input problem; mapped to exit code 2."""


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
    sim.add_argument("--variance", choices=["gaussian-plugin", "tilde"])
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
    est.add_argument("--variance", choices=["gaussian-plugin", "tilde"])
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
    p.add_argument("--empirical", action="store_true",
                   help="append the bootstrap empirical estimator")
    p.add_argument("--initial", default="naive",
                   help="initial estimator for --empirical: " + ",".join(INITIAL_IDS))
    p.add_argument("--boot", type=int, default=200,
                   help="bootstrap resamples for --empirical")


def _read_json(path: str, kind: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # also JSON nested too deep
        raise _ConfigError(f"cannot read {kind} file: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    fields: dict = {}
    if args.scenario:
        raw = _read_json(args.scenario, "scenario")
        if not isinstance(raw, dict):
            raise _ConfigError("invalid scenario: the file must hold a JSON object")
        unknown = set(raw) - set(_SCENARIO_KEYS)
        if unknown:
            raise _ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        fields.update(raw)
    for key in _SCENARIO_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    for key in ("n", "p", "tau2", "tau2_b"):
        if key not in fields:
            flag = "--tau2b" if key == "tau2_b" else f"--{key}"
            raise _ConfigError(f"missing required scenario field {key} ({flag})")
    if "seed" not in fields:
        raise _ConfigError("missing --seed: all simulation randomness must be pinned")
    try:
        return ScenarioConfig(**fields)
    except (VarestError, TypeError) as exc:
        raise _ConfigError(str(exc)) from exc


def _parse_estimators(raw: str, empirical: bool) -> list[str]:
    ids = [e.strip() for e in raw.split(",") if e.strip()]
    if empirical and "empirical" not in ids:
        ids.append("empirical")
    bad = [e for e in ids if e not in ESTIMATOR_IDS]
    if bad:
        raise _ConfigError(f"unknown estimator ids {bad}; expected {list(ESTIMATOR_IDS)}")
    if not ids:
        raise _ConfigError("no estimators requested")
    return ids


def _options_from_args(args, estimators: list[str]) -> HarnessOptions:
    if "empirical" in estimators:
        if args.initial not in INITIAL_IDS:
            raise _ConfigError(
                f"unknown --initial {args.initial!r}; expected one of {list(INITIAL_IDS)}"
            )
        if args.boot < 2:
            raise _ConfigError(f"--boot must be at least 2, got {args.boot}")
    if "selection" in estimators:
        if args.select_split and not 0.0 < args.select_split_fraction < 1.0:
            raise _ConfigError("--select-split-fraction must be in (0, 1), "
                               f"got {args.select_split_fraction}")
        if args.select_cap is not None and args.select_cap < 0:
            raise _ConfigError(f"--select-cap must be nonnegative, got {args.select_cap}")
    return HarnessOptions(
        select_split=args.select_split,
        select_split_fraction=args.select_split_fraction,
        select_cap=args.select_cap,
        boot=args.boot,
        initial=args.initial,
        variance_method=args.variance,
        workers=getattr(args, "workers", 1),
    )


def _cmd_simulate(args) -> int:
    cfg = _scenario_from_args(args)
    estimators = _parse_estimators(args.estimators, args.empirical)
    options = _options_from_args(args, estimators)
    records = run_scenario(cfg, estimators, options)
    write_records_csv(args.records_out, records)
    # Summarize the values as written (6 significant digits), so re-running
    # `summarize` on the records file reproduces the summary byte-for-byte.
    summaries = summarize(read_records_csv(args.records_out), cfg.tau2)
    write_summary_csv(args.summary_out, summaries)
    print(f"scenario: n={cfg.n} p={cfg.p} tau2={cfg.tau2:g} tau2_b={cfg.tau2_b:g} "
          f"sigma2={cfg.sigma2:g} reps={cfg.reps} seed={cfg.seed}")
    _print_summary_table(summaries)
    return 0


def _print_summary_table(summaries) -> None:
    print(f"{'estimator':<12}{'mean':>10}{'bias':>10}{'se':>10}{'rmse':>10}{'rmse_sd':>10}")
    for s in summaries:
        print(f"{s.estimator_id:<12}{s.mean:>10.4f}{s.bias:>10.4f}"
              f"{s.se:>10.4f}{s.rmse:>10.4f}{s.rmse_sd:>10.5f}")


def _check_numbers(value, key: str) -> None:
    """Reject a string or boolean anywhere in a numeric model field (numpy would convert it)."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (bool, str)):
            raise _ConfigError(f"invalid covariate model: {key} must hold numbers, got {item!r}")


def _load_model(path: str, p: int) -> tuple[CovariateModel, Whitening | None]:
    """The file's covariate model, and its whitening unless that is the identity map."""
    raw = _read_json(path, "model")
    if not isinstance(raw, dict):
        raise _ConfigError("invalid covariate model: the file must hold a JSON object")
    flags = {"independent_columns": raw.get("independent_columns", True),
             "gaussian": raw.get("gaussian", False)}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise _ConfigError(f"invalid covariate model: {key} must be true or false")
    for key in ("mean", "covariance", "fourth_moments"):
        if key in raw and not (key == "covariance" and raw[key] == "identity"):
            _check_numbers(raw[key], key)
    try:
        mean = raw.get("mean", 0.0)
        mean = np.full(p, float(mean)) if np.isscalar(mean) else np.asarray(mean, dtype=float)
        cov = raw.get("covariance", "identity")
        identity = cov == "identity"
        whitening = None
        if not (identity and mean.shape == (p,) and not mean.any()):
            whitening = Whitening(mean, None if identity else np.asarray(cov, dtype=float))
            if whitening.p != p:
                raise DimensionMismatch(f"mean and covariance must be of size {p}")
        m4 = raw.get("fourth_moments", 3.0)
        m4 = np.full(p, float(m4)) if np.isscalar(m4) else np.asarray(m4, dtype=float)
        if m4.shape != (p,):
            raise DimensionMismatch(f"fourth_moments must have length {p}")
        return CovariateModel(m4, **flags), whitening
    except (VarestError, ValueError, TypeError) as exc:
        raise _ConfigError(f"invalid covariate model: {exc}") from exc


def _open_dataset(path: str):
    # A byte that is not UTF-8 decodes to a lone surrogate instead of raising
    # mid-read, so the line that holds it can be named.
    try:
        return open(path, newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise _ConfigError(str(exc)) from exc


def _check_utf8(path: str, lineno: int, row: list[str]) -> None:
    """Reject a row holding a byte that did not decode as UTF-8.

    ``errors="surrogateescape"`` decodes such a byte b to the lone surrogate
    U+DC00 + b, the one kind of character that cannot be encoded back.
    """
    text = ",".join(row)
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        byte = ord(text[exc.start]) - 0xDC00
        raise _ConfigError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8") from exc


def _read_header(path: str, reader) -> int:
    """Check the ``y,x1,...,xp`` header and return its field count."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise _ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    if header:
        _check_utf8(path, 1, header)
    if not header or header[0] != "y" or len(header) < 2:
        raise _ConfigError(f"{path}:1: expected header y,x1,...,xp")
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
    with _open_dataset(path) as fh:
        width = _read_header(path, csv.reader(fh, strict=True))
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
    """Parse the CSV with a strict ``csv.reader`` and ``float()`` per cell, one row at a time."""
    with _open_dataset(path) as fh:
        reader = csv.reader(fh, strict=True)
        width = _read_header(path, reader)
        ys, xs, linenos = [], [], []
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise _ConfigError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
                try:
                    ys.append(float(row[0]))
                    xs.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    _check_utf8(path, lineno, row)
                    raise _ConfigError(f"{path}:{lineno}: {exc}") from exc
                linenos.append(lineno)
        except csv.Error as exc:
            # An unterminated quote, or text after a closing quote.
            raise _ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    if len(ys) < 2:
        raise _ConfigError(f"{path}: need at least 2 observations")
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    finite = np.isfinite(y) & np.isfinite(x).all(axis=1)
    if not finite.all():
        raise _ConfigError(f"{path}:{linenos[np.argmin(finite)]}: values must be finite")
    return x, y


def _cmd_estimate(args) -> int:
    x, y = _load_dataset(args.data)
    model, whitening = _load_model(args.model, x.shape[1])
    estimators = _parse_estimators(args.estimators, args.empirical)
    if "oracle" in estimators:
        raise _ConfigError(
            "the oracle estimator needs the true coefficients and is only "
            "available in simulations"
        )
    options = _options_from_args(args, estimators)
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
    fmt = lambda v: "" if v is None else format(v, ".6g")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["estimator", "tau2", "sigma2", "var_hat", "aux"])
    for eid, tau2, sigma2, var_hat, aux in rows:
        writer.writerow([eid, fmt(tau2), fmt(sigma2), fmt(var_hat), aux])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_summarize(args) -> int:
    records = read_records_csv(args.records)
    if not records:
        raise _ConfigError(f"{args.records}: no records")
    summaries = summarize(records, args.true_tau2)
    write_summary_csv(args.out, summaries)
    _print_summary_table(summaries)
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
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VarestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
