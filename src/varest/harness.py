"""Monte Carlo driver: one estimate dispatch, scenario runs and summaries.

``estimate`` runs one estimator by id together with its variance estimate
(``HarnessOptions.variance_method``).  It reads W, the Gram matrix, the
single-zero statistic, ``sigma_Y^2`` and the naive variance estimates from
one ``DatasetStats`` per dataset, so each is built at most once.  Split
selection selects on the first row block of ``split_rows`` and estimates on
the second, so its estimate and variance read one ``DatasetStats`` of that
block instead.  Overflow, invalid operations and division by zero raise
``NonFiniteResult`` instead of reporting NaN or infinity.

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
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InsufficientRecords, NonFiniteResult, VarestError
from .estimators import (
    EstimateReport,
    SingleZeroStat,
    build_single_zero,
    dicker_tau2,
    naive_tau2,
    sigma2_from,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from .kernels import GramMatrix, gram, ordered_sum
from .model import CovariateModel, LabeledDataset, WMatrix, build_w, sample_variance_y
from .selection import beta_squared_estimates, split_rows, t_gamma
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
    "DatasetStats",
    "HarnessOptions",
    "RepRecord",
    "SummaryStats",
    "estimate",
    "read_records_csv",
    "run_scenario",
    "summarize",
    "write_records_csv",
    "write_summary_csv",
]

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


@dataclass(frozen=True)
class HarnessOptions:
    """Estimator options threaded through a scenario run."""

    select_split: bool = False
    select_split_fraction: float = 0.5
    select_cap: int | None = None  # None: uncapped (benchmark reproduction)
    boot: int = 200
    initial: str = "naive"
    variance_method: str | None = None  # None | "gaussian-plugin" | "tilde"
    workers: int = 1


@dataclass(frozen=True, eq=False)
class DatasetStats:
    """The per-dataset statistics every estimator and variance estimate reads.

    Each member is built on first use and then kept, so one object serves all
    estimators on a dataset: W, its Gram matrix, the single-zero statistic,
    ``sigma_Y^2`` and the naive variance estimate of each method.
    """

    ds: LabeledDataset
    model: CovariateModel

    @cached_property
    def w(self) -> WMatrix:
        return build_w(self.ds)

    @cached_property
    def sigma_y2(self) -> float:
        return sample_variance_y(self.ds.y)

    @cached_property
    def single(self) -> SingleZeroStat:
        return build_single_zero(self.ds, self.model)

    @cached_property
    def gram(self) -> GramMatrix:
        return gram(self.w)

    @cached_property
    def plugin_base(self) -> float:
        return var_hat_naive_gaussian(naive_tau2(self.w), self.sigma_y2, self.ds.n, self.ds.p)

    @cached_property
    def tilde_base(self) -> float:
        return var_tilde_naive(self.w, self.gram, self.ds.n)

    def naive_variance(self, method: str | None) -> float | None:
        """The naive estimator's variance estimate by ``method`` (None: none)."""
        if method is None:
            return None
        return self.plugin_base if method == "gaussian-plugin" else self.tilde_base


def estimate(
    stats: DatasetStats,
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
    non-finite reported number; underflow stays quiet.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = _estimate(stats, estimator_id, beta, options, boot_seed)
    except FloatingPointError as exc:
        raise NonFiniteResult(f"estimator {estimator_id!r}: {exc}") from exc
    numbers = (report.tau2, report.sigma2, report.variance_estimate)
    if not all(v is None or np.isfinite(v) for v in numbers):
        raise NonFiniteResult(f"estimator {estimator_id!r} produced a non-finite result")
    return report


def _estimate(stats, estimator_id, beta, options, boot_seed) -> EstimateReport:
    ds, model, method = stats.ds, stats.model, options.variance_method
    if method not in (None, "gaussian-plugin", "tilde"):
        raise VarestError(f"unknown variance method {method!r}")
    variance = None
    if estimator_id == "selection":
        est, select_w = stats, None
        if options.select_split:
            select_ds, est_ds = split_rows(ds, options.select_split_fraction)
            est, select_w = DatasetStats(est_ds, model), build_w(select_ds)
        report = t_gamma(est.ds, est.w, select_w=select_w, cap=options.select_cap)
        if method is not None:
            beta2, selected = beta_squared_estimates(est.w), report.aux["selected"]
            base, n = est.naive_variance(method), est.ds.n
            variance = (var_hat_t_gamma(base, beta2, selected, n)
                        if method == "gaussian-plugin"
                        else var_tilde_t_gamma(base, beta2, selected, model, n))
    elif estimator_id == "empirical":
        cfg = BootstrapConfig(n_boot=options.boot, seed=boot_seed,
                              initial_estimator=options.initial)
        report = empirical_estimator(stats, cfg)
    else:
        if estimator_id in ("naive", "dicker"):
            tau2 = naive_tau2(stats.w) if estimator_id == "naive" else dicker_tau2(ds, stats.w)
            variance = stats.naive_variance(method)
        elif estimator_id == "full":
            tau2 = t_full(ds, stats.w)
        elif estimator_id == "single":
            tau2 = t_c_hat_star(stats.w, stats.single)
            if method == "tilde":
                variance = var_tilde_t_chat(stats.tilde_base, stats.w, stats.single, ds.n)
        elif estimator_id == "oracle":
            if beta is None:
                raise VarestError("the oracle estimator needs the true beta")
            tau2 = t_oracle(ds, stats.w, beta)
        else:
            raise VarestError(f"unknown estimator id {estimator_id!r}")
        report = EstimateReport(tau2=tau2, sigma2=sigma2_from(tau2, stats.sigma_y2),
                                estimator_id=estimator_id)

    aux = dict(report.aux)
    if method == "gaussian-plugin" and not model.gaussian:
        aux["variance_warning"] = "gaussian-plugin requested for a non-gaussian model"
    if variance is not None and variance < 0.0:
        aux["variance_warning"] = "negative variance estimate (reported raw)"
    return replace(report, variance_estimate=variance, aux=aux)


def _run_rep(args) -> list[RepRecord]:
    cfg, beta, model, estimator_ids, options, rep = args
    stats = DatasetStats(generate_dataset(cfg, beta, rep), model)
    records = []
    for eid in estimator_ids:
        start = time.perf_counter()
        try:
            report = estimate(stats, eid, beta=beta, options=options,
                              boot_seed=_boot_seed(cfg.seed, rep))
        except VarestError as exc:
            report = EstimateReport(tau2=float("nan"), sigma2=float("nan"), estimator_id=eid,
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

    Per-replication estimator failures are recorded (NaN estimates with the
    error in ``aux``), not raised.  Output order is (rep, estimator) and is
    identical for serial and parallel execution.
    """
    estimator_ids = list(estimator_ids)
    beta, model = build_beta(cfg), covariate_model_for(cfg)
    jobs = [(cfg, beta, model, estimator_ids, options, rep) for rep in range(cfg.reps)]
    workers = max(1, min(options.workers, os.cpu_count() or 1))
    if workers > 1 and cfg.reps > 1:
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
    Records are grouped by estimator; input order does not matter.
    """
    by_estimator: dict[str, list[float]] = {}
    order: list[str] = []
    for rec in records:
        if rec.estimator_id not in by_estimator:
            by_estimator[rec.estimator_id] = []
            order.append(rec.estimator_id)
        by_estimator[rec.estimator_id].append(rec.tau2_hat)

    out = []
    for eid in sorted(order):
        values = np.asarray(by_estimator[eid], dtype=np.float64)
        m = values.shape[0]
        if m < 2:
            raise InsufficientRecords(f"estimator {eid!r} has {m} record(s); need >= 2")
        mean = ordered_sum(values) / m
        bias = true_tau2 - mean
        dev = values - mean
        se = float(np.sqrt(ordered_sum(dev * dev) / (m - 1)))
        err_sq = (values - true_tau2) ** 2
        rmse = float(np.sqrt(ordered_sum(err_sq) / m))
        if rmse > 0.0:
            sq_dev = err_sq - ordered_sum(err_sq) / m
            sd_err_sq = float(np.sqrt(ordered_sum(sq_dev * sq_dev) / (m - 1)))
            rmse_sd = sd_err_sq / (2.0 * rmse * np.sqrt(m))
        else:
            rmse_sd = 0.0
        out.append(SummaryStats(
            estimator_id=eid, mean=mean, bias=bias, se=se, rmse=rmse, rmse_sd=rmse_sd,
        ))
    return out


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".6g")


def write_records_csv(path, records) -> None:
    """Write records as ``rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_HEADER)
        for rec in records:
            writer.writerow([
                rec.rep_index,
                rec.estimator_id,
                _fmt(rec.tau2_hat),
                _fmt(rec.sigma2_hat),
                _fmt(rec.variance_estimate),
                format(rec.wall_time * 1e3, ".3f"),
            ])


def read_records_csv(path) -> list[RepRecord]:
    """Parse a records CSV back into records (aux is not round-tripped)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RECORDS_HEADER:
            raise VarestError(f"bad records header in {path}: {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RECORDS_HEADER):
                raise VarestError(f"{path}:{lineno}: expected {len(RECORDS_HEADER)} fields")
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
                raise VarestError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_summary_csv(path, summaries) -> None:
    """Write summaries as ``estimator,mean,bias,se,rmse,rmse_sd``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for s in summaries:
            writer.writerow([
                s.estimator_id, _fmt(s.mean), _fmt(s.bias),
                _fmt(s.se), _fmt(s.rmse), _fmt(s.rmse_sd),
            ])
