"""Monte Carlo driver: one estimate dispatch, scenario runs and summaries.

``estimate`` runs one estimator by id on a dataset and its covariate model,
together with its variance estimate (``HarnessOptions.variance_method``).
It reads W, the Gram row statistics, the zero-estimator g and ``sigma_Y^2``
from the dataset, which builds each at most once; the naive variance
estimates reduce those in O(n + p) and are recomputed on each call.  Split
selection selects on the first row block of ``split_rows`` and estimates on
the second, so its estimate and variance read that block instead.  One
id -> estimate table, each entry a ``(ds, model)`` callable, serves both
``estimate`` and the bootstrap's named initials (``INITIAL_IDS``).
Overflow, invalid operations and division by zero raise ``NonFiniteResult``
instead of reporting NaN or infinity.

``run_scenario`` maps (scenario, estimator list) to one record per
(replication, estimator).  Replications are independent — each derives its
data purely from ``(seed, rep_index)`` — so they can run on worker processes;
records are keyed and sorted by replication index, making parallel and serial
runs produce identical record sets.  Beta and the covariate model are built
once per scenario.

``summarize`` turns records into benchmark-table rows: mean, bias
(``true - mean``), SE (sample standard deviation), RMSE (root mean squared
error, divisor m), and a delta-method standard deviation for the RMSE,
``sd(e^2) / (2 * RMSE * sqrt(m))``.

``csv_rows`` is the one reader of input CSVs, the records files here and the
CLI's data files: a strict ``csv.reader`` that names a malformed row or a byte
that is not UTF-8 by its path and line.
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DimensionMismatch, InsufficientRecords, InvalidInput, NonFiniteResult,
                     VarestError)
from .estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    dicker_tau2,
    naive_tau2,
    sigma2_from,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from .kernels import ordered_sum
from .model import CovariateModel, LabeledDataset, check_fields, float_array
from .selection import split_rows, t_gamma
from .simgen import ScenarioConfig, build_beta, covariate_model_for, generate_dataset
from .variance import (
    var_hat_naive_gaussian,
    var_hat_t_gamma,
    var_tilde_naive,
    var_tilde_t_chat,
    var_tilde_t_gamma,
)
from .zeroboost import BootstrapConfig, empirical_estimator

__all__ = [
    "HarnessOptions",
    "INITIAL_IDS",
    "RepRecord",
    "SummaryStats",
    "VARIANCE_METHODS",
    "check_estimator_ids",
    "csv_rows",
    "estimate",
    "format_value",
    "read_records_csv",
    "run_scenario",
    "summarize",
    "write_records_csv",
    "write_summary_csv",
]

# The variance estimates ``HarnessOptions.variance_method`` may ask for (None: none).
VARIANCE_METHODS = ("gaussian-plugin", "tilde")
RECORDS_HEADER = ("rep", "estimator", "tau2_hat", "sigma2_hat", "var_hat", "wall_ms")
SUMMARY_HEADER = ("estimator", "mean", "bias", "se", "rmse", "rmse_sd")


@dataclass(frozen=True)
class RepRecord:
    """One estimator's result on one replication."""

    rep_index: int
    estimator_id: str
    tau2_hat: float
    sigma2_hat: float
    variance_estimate: float | None = None
    wall_time: float = 0.0  # seconds
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SummaryStats:
    """Benchmark-table row for one estimator across replications."""

    estimator_id: str
    mean: float
    bias: float
    se: float
    rmse: float
    rmse_sd: float

    def csv_row(self) -> list[str]:
        """This row of the summary CSV (``SUMMARY_HEADER``), its numbers by ``format_value``."""
        numbers = (self.mean, self.bias, self.se, self.rmse, self.rmse_sd)
        return [self.estimator_id, *map(format_value, numbers)]


@dataclass(frozen=True)
class HarnessOptions:
    """Estimator options of a run; each field is checked when built, whatever estimators run."""

    select_split: float | None = None  # share of rows that selects, in (0, 1); None: no split
    select_cap: int | None = None  # >= 0, or None: uncapped (benchmark reproduction)
    boot: int = 200  # bootstrap resamples, >= 2
    initial: str = "naive"  # one of INITIAL_IDS
    variance_method: str | None = None  # None or one of VARIANCE_METHODS
    workers: int = 1

    def __post_init__(self):
        check_fields(self, InvalidInput)
        if self.select_split is not None and not 0.0 < self.select_split < 1.0:
            raise InvalidInput(f"select_split must be in (0, 1), got {self.select_split}")
        if self.select_cap is not None and self.select_cap < 0:
            raise InvalidInput(f"select_cap must be nonnegative, got {self.select_cap}")
        if self.boot < 2:
            raise InvalidInput(f"boot must be at least 2, got {self.boot}")
        if self.initial not in INITIAL_IDS:
            raise InvalidInput(f"unknown initial estimator {self.initial!r}; "
                               f"expected one of {list(INITIAL_IDS)}")
        if self.variance_method is not None and self.variance_method not in VARIANCE_METHODS:
            raise InvalidInput(f"unknown variance method {self.variance_method!r}; "
                               f"expected None or one of {list(VARIANCE_METHODS)}")
        if self.workers < 1:
            raise InvalidInput(f"workers must be at least 1, got {self.workers}")


# The estimators that read nothing but a dataset and its covariate model, by id.  Each
# looks its estimator up when called, so a wrapper bound in this module sees the call.
_TAU2 = {
    "naive": lambda ds, model: naive_tau2(ds.w),
    "dicker": lambda ds, model: dicker_tau2(ds),
    "full": lambda ds, model: t_full(ds),
    "single": lambda ds, model: t_c_hat_star(ds, model),
}
# The named initials of the bootstrap: selection runs with ``t_gamma``'s
# defaults, unsplit and capped.
_INITIALS = {**_TAU2, "selection": lambda ds, model: t_gamma(ds).tau2}
# Identifiers accepted for the initial estimator (the CLI's --initial).
INITIAL_IDS = tuple(_INITIALS)


def check_estimator_ids(estimator_ids) -> None:
    """Raise ``InvalidInput`` unless ``estimator_ids`` is non-empty and within ``ESTIMATOR_IDS``."""
    unknown = [e for e in estimator_ids if e not in ESTIMATOR_IDS]
    if unknown:
        raise InvalidInput(f"unknown estimator ids {unknown}; expected {list(ESTIMATOR_IDS)}")
    if not estimator_ids:
        raise InvalidInput("no estimators requested")


def estimate(
    ds: LabeledDataset,
    model: CovariateModel,
    estimator_id: str,
    *,
    beta=None,
    options: HarnessOptions = HarnessOptions(),
    boot_seed: int = 0,
) -> EstimateReport:
    """Run one estimator by id, with its variance estimate when one is asked for.

    ``options.variance_method`` selects the variance estimate; estimators
    without one under that method report None.  ``oracle`` needs the true
    coefficient vector (simulation reference); ``empirical`` derives its
    bootstrap seed from ``boot_seed``.  Floating-point overflow, invalid
    operations and division by zero raise ``NonFiniteResult``, as does a
    non-finite reported number; underflow stays quiet.  A model whose p is
    not the dataset's raises ``DimensionMismatch`` before any work.
    """
    check_estimator_ids((estimator_id,))
    if model.p != ds.p:
        raise DimensionMismatch(f"the covariate model has p = {model.p}, the dataset p = {ds.p}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = _estimate(ds, model, estimator_id, beta, options, boot_seed)
    except FloatingPointError as exc:
        raise NonFiniteResult(f"estimator {estimator_id!r}: {exc}") from exc
    numbers = (report.tau2, report.sigma2, report.variance_estimate)
    if not all(v is None or np.isfinite(v) for v in numbers):
        raise NonFiniteResult(f"estimator {estimator_id!r} produced a non-finite result")
    return report


def _naive_variance(ds: LabeledDataset, method: str | None) -> float | None:
    """The naive estimator's variance estimate on ``ds`` by ``method`` (None: none)."""
    if method is None:
        return None
    if method == "gaussian-plugin":
        return var_hat_naive_gaussian(naive_tau2(ds.w), ds.sigma_y2, ds.n, ds.p)
    return var_tilde_naive(ds)


def _estimate(ds, model, estimator_id, beta, options, boot_seed) -> EstimateReport:
    method = options.variance_method
    variance = None
    if estimator_id == "selection":
        est, select = ds, None
        if options.select_split is not None:
            select, est = split_rows(ds, options.select_split)
        report = t_gamma(est, select=select, cap=options.select_cap)
        if method is not None:
            base, selected = _naive_variance(est, method), report.aux["selected"]
            variance = (var_hat_t_gamma(base, est, selected)
                        if method == "gaussian-plugin"
                        else var_tilde_t_gamma(base, est, selected, model))
    elif estimator_id == "empirical":
        initial = "naive" if options.initial == "naive" else _INITIALS[options.initial]
        report = empirical_estimator(ds, model, BootstrapConfig(
            n_boot=options.boot, seed=boot_seed, initial_estimator=initial))
        report.aux["initial"] = options.initial
    else:
        if estimator_id != "oracle":
            tau2 = _TAU2[estimator_id](ds, model)
        elif beta is None:
            raise InvalidInput("the oracle estimator needs the true beta")
        else:
            tau2 = t_oracle(ds, beta)
        if estimator_id in ("naive", "dicker"):
            variance = _naive_variance(ds, method)
        elif estimator_id == "single" and method == "tilde":
            variance = var_tilde_t_chat(var_tilde_naive(ds), ds, model)
        report = EstimateReport(tau2=tau2, sigma2=sigma2_from(tau2, ds.sigma_y2))

    warned = []
    if method == "gaussian-plugin" and not model.gaussian:
        warned.append("gaussian-plugin requested for a non-gaussian model")
    if variance is not None and variance < 0.0:
        warned.append("negative variance estimate (reported raw)")
    aux = dict(report.aux)
    if warned:
        aux["variance_warning"] = " and ".join(warned)
    return replace(report, variance_estimate=variance, aux=aux)


def _run_rep(args) -> list[RepRecord]:
    cfg, beta, model, estimator_ids, options, rep = args
    ds = generate_dataset(cfg, beta, rep)
    boot_seed = _boot_seed(cfg.seed, rep)
    records = []
    for eid in estimator_ids:
        start = time.perf_counter()
        try:
            report = estimate(ds, model, eid, beta=beta, options=options, boot_seed=boot_seed)
        except VarestError as exc:
            report = EstimateReport(tau2=float("nan"), sigma2=float("nan"),
                                    aux={"error": f"{type(exc).__name__}: {exc}"})
        records.append(RepRecord(
            rep_index=rep,
            estimator_id=eid,
            tau2_hat=report.tau2,
            sigma2_hat=report.sigma2,
            variance_estimate=report.variance_estimate,
            wall_time=time.perf_counter() - start,
            aux=report.aux,
        ))
    return records


def _boot_seed(seed: int, rep: int) -> int:
    # A distinct, deterministic stream per replication for the bootstrap.
    return int(np.random.SeedSequence((seed, rep, 0x626F6F74)).generate_state(1)[0])


def run_scenario(
    cfg: ScenarioConfig,
    estimator_ids,
    options: HarnessOptions = HarnessOptions(),
) -> list[RepRecord]:
    """Run every requested estimator on every replication of a scenario.

    Bad ids raise ``InvalidInput`` before any replication; per-replication
    estimator failures are recorded (NaN estimates with the error in ``aux``),
    not raised.  Output order is (rep, estimator), serial or parallel.
    """
    estimator_ids = list(estimator_ids)
    check_estimator_ids(estimator_ids)
    beta, model = build_beta(cfg), covariate_model_for(cfg)
    jobs = [(cfg, beta, model, estimator_ids, options, rep) for rep in range(cfg.reps)]
    # The CPUs this process may run on: a process pinned to one core runs serially.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(options.workers, cpus or 1))
    if workers > 1 and cfg.reps > 1:
        # Imported here: the process pool loads multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_rep, jobs, chunksize=max(1, cfg.reps // (4 * workers))))
    else:
        chunks = [_run_rep(job) for job in jobs]
    return [record for chunk in chunks for record in chunk]


def summarize(records, true_tau2: float) -> list[SummaryStats]:
    """Benchmark-style summary per estimator.

    ``bias = true - mean`` (so an overestimate reports a negative bias),
    ``se`` uses the n-1 divisor, ``rmse`` the mean of squared errors, and
    ``rmse_sd`` the first-order delta method for the square root of a mean.
    Records are grouped by estimator; input order does not matter.  A
    ``true_tau2`` that is not a finite number raises ``InvalidInput`` first.
    Arithmetic that overflows, or a statistic of finite records that is not
    finite, raises ``NonFiniteResult``; a NaN record (a failed replication)
    still gives NaN statistics.
    """
    float_array(true_tau2, "true_tau2")
    by_estimator: dict[str, list[float]] = {}
    for rec in records:
        by_estimator.setdefault(rec.estimator_id, []).append(rec.tau2_hat)

    out = []
    for eid in sorted(by_estimator):
        values = np.asarray(by_estimator[eid], dtype=np.float64)
        m = values.shape[0]
        if m < 2:
            raise InsufficientRecords(f"estimator {eid!r} has {m} record(s); need >= 2")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                row = _summary_row(eid, values, true_tau2)
        except FloatingPointError as exc:
            raise NonFiniteResult(f"summary of estimator {eid!r}: {exc}") from exc
        numbers = (row.mean, row.bias, row.se, row.rmse, row.rmse_sd)
        if np.isfinite(values).all() and not np.isfinite(numbers).all():
            raise NonFiniteResult(f"summary of estimator {eid!r} is not finite")
        out.append(row)
    return out


def _summary_row(eid: str, values: np.ndarray, true_tau2: float) -> SummaryStats:
    # Replications have no canonical order of their own: sorting them makes
    # every sum below independent of the order of the records.
    values = np.sort(values)
    m = values.shape[0]
    mean = ordered_sum(values) / m
    bias = true_tau2 - mean
    dev = values - mean
    se = float(np.sqrt(ordered_sum(dev * dev) / (m - 1)))
    err_sq = (values - true_tau2) ** 2
    rmse = float(np.sqrt(ordered_sum(err_sq) / m))
    if rmse == 0.0:
        rmse_sd = 0.0
    else:  # a NaN record (a failed replication) gives NaN here too
        sq_dev = err_sq - ordered_sum(err_sq) / m
        sd_err_sq = float(np.sqrt(ordered_sum(sq_dev * sq_dev) / (m - 1)))
        rmse_sd = sd_err_sq / (2.0 * rmse * np.sqrt(m))
    return SummaryStats(estimator_id=eid, mean=mean, bias=bias, se=se, rmse=rmse,
                        rmse_sd=rmse_sd)


def format_value(x: float | None) -> str:
    """A number as every CSV and table writes it: 6 significant digits, ``""`` for None."""
    return "" if x is None else format(float(x), ".6g")


def write_records_csv(path, records) -> None:
    """Write records as ``rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_HEADER)
        for rec in records:
            numbers = (rec.tau2_hat, rec.sigma2_hat, rec.variance_estimate)
            writer.writerow([rec.rep_index, rec.estimator_id, *map(format_value, numbers),
                             format(rec.wall_time * 1e3, ".3f")])


@contextlib.contextmanager
def csv_rows(path):
    """Open the CSV file ``path``; yield the file and an iterator of its ``(line, fields)``.

    ``line`` is the line a row ends on (``\n``, ``\r\n`` and ``\r`` each end
    one).  A byte that is not UTF-8, a malformed quote or an oversized field
    raises ``InvalidInput`` naming the path and line.
    """
    # A byte that is not UTF-8 decodes to the lone surrogate U+DC00 + byte
    # instead of raising mid-read, so the row that holds it can be named.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        yield fh, _checked_rows(path, csv.reader(fh, strict=True))


def _checked_rows(path, reader):
    try:
        for fields in reader:
            try:
                "".join(fields).encode()
            except UnicodeEncodeError as exc:  # only a lone surrogate fails to encode
                byte = ord(exc.object[exc.start]) - 0xDC00
                raise InvalidInput(
                    f"{path}:{reader.line_num}: byte {byte:#04x} is not UTF-8") from exc
            yield reader.line_num, fields
    except csv.Error as exc:
        raise InvalidInput(f"{path}:{reader.line_num}: {exc}") from exc


def read_records_csv(path) -> list[RepRecord]:
    """Parse a records CSV back into records (aux is not round-tripped).

    A file whose header or a row is malformed, as :func:`csv_rows` reads it or
    as a record, raises ``InvalidInput`` naming the path and line.
    """
    records = []
    with csv_rows(path) as (_, rows):
        if tuple(next(rows, (1, ()))[1]) != RECORDS_HEADER:
            raise InvalidInput(f"{path}:1: expected header {','.join(RECORDS_HEADER)}")
        for line, row in rows:
            if len(row) != len(RECORDS_HEADER):
                raise InvalidInput(f"{path}:{line}: expected "
                                   f"{len(RECORDS_HEADER)} fields, got {len(row)}")
            try:
                records.append(RepRecord(
                    rep_index=int(row[0]),
                    estimator_id=row[1],
                    tau2_hat=float(row[2]),
                    sigma2_hat=float(row[3]),
                    variance_estimate=float(row[4]) if row[4] else None,
                    wall_time=float(row[5]) / 1e3,
                ))
            except ValueError as exc:
                raise InvalidInput(f"{path}:{line}: {exc}") from exc
    return records


def write_summary_csv(path, summaries) -> None:
    """Write summaries as ``estimator,mean,bias,se,rmse,rmse_sd``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(s.csv_row() for s in summaries)
