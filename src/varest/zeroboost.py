"""Bootstrap coefficient estimation for single zero-estimator corrections.

Any estimator of tau^2 can in principle be improved by subtracting
``c * g_n`` for the pairwise-product zero-estimator g_n, but the optimal c
depends on the covariance between the estimator and g_n, which has no closed
form for estimators defined only algorithmically.  The empirical estimator
approximates that covariance from bootstrap resamples:

1. compute the initial estimate and g_n on the full data (the caller's
   ``DatasetStats`` holds W, g and ``sigma_Y^2``);
2. for b = 1..B, resample n rows with replacement and recompute both;
3. ``c = Cov-hat(initial*, g_n*) / Var(g_n)`` with Var(g_n) = Var(g_i)/n
   known analytically from the covariate model;
4. return ``initial - c * g_n`` (both full-data values).

Resample b draws its row indices from its own stream,
``SeedSequence((seed, b))``.  The indices are positions in the caller's row
order; ``ds.rank`` maps them to the dataset's canonical rows, so a resample
holds the same rows whatever order the dataset stores them in.

The ``naive`` initial is a count-weighted quadratic form, so it only needs
each resample's count vector ``m_b[i] = #{k : idx_b[k] = i}`` (over stored
rows i), stacked into a count matrix ``M`` (Efron
1979; the count-weight form follows Chamandy et al. 2012), and its resampled
values come out of matrix products: with ``W = X o Y``, ``r = rowsq(W)``, ``g`` the
per-row zero-estimator and ``C = M W``,

* ``naive*_b = (||C_b||^2 - (M r)_b) / (n (n - 1))``
* ``g_n*_b   = (M g)_b / n``.

``M`` is built a block of resamples at a time, so memory stays bounded for
tall data; no B x n x p array is ever built.

This is the library estimator applied to the resampled rows, with the
same-row pairs of a resample counted as distinct pairs, as the literal
rebuild counts them: the ``(M r)_b`` term removes only the ``i1 = i2``
diagonal, leaving ``sum_k m_k (m_k - 1) ||W_k||^2``.  That term inflates the
fitted coefficient at p of the order of n (acceptance criterion 11); its
mend replaces ``M r`` with ``(M o M) r`` over the distinct-row pair count.

Any other initial is a callable ``(ds, model) -> float``, such as the
harness's ``dicker``, ``single``, ``full`` and ``selection``: it is called on
the full data, then each resample is rebuilt as a dataset and it is called
on that, serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .errors import InitialEstimatorFailure, InvalidInput
from .estimators import EstimateReport, naive_tau2, sigma2_from
from .model import CovariateModel, LabeledDataset

if TYPE_CHECKING:
    from .harness import DatasetStats

__all__ = ["BootstrapConfig", "empirical_estimator"]

InitialEstimator = Callable[[LabeledDataset, CovariateModel], float]


def _rowsq(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


# Elements of the count matrix held at once: about 32 MB of float64 however
# tall the data, while n = 400, B = 200 still runs as one block.
_BLOCK_ELEMS = 1 << 22


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling plan: number of resamples, seed, and the initial, ``"naive"`` or a callable."""

    n_boot: int = 200
    seed: int = 0
    initial_estimator: Union[str, InitialEstimator] = "naive"

    def __post_init__(self):
        if self.n_boot < 2:
            raise InvalidInput("empirical covariance needs n_boot >= 2")
        initial = self.initial_estimator
        if not (callable(initial) or (isinstance(initial, str) and initial == "naive")):
            raise InvalidInput(
                f"initial estimator must be 'naive' or a callable, got {initial!r}")


def _resample_rows(n: int, cfg: BootstrapConfig, b: int) -> np.ndarray:
    """Row indices of resample b, drawn from its own ``SeedSequence((seed, b))``."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, b)))
    return rng.integers(0, n, size=n)


def _naive_stars(
    w: np.ndarray, rank: np.ndarray, cfg: BootstrapConfig, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``naive*`` and ``g_n*`` of every resample, from blocks of the count matrix."""
    n = w.shape[0]
    r = _rowsq(w)
    per_block = max(1, min(cfg.n_boot, _BLOCK_ELEMS // n))
    counts = np.empty((per_block, n))
    tau_stars = np.empty(cfg.n_boot)
    g_stars = np.empty(cfg.n_boot)
    for start in range(0, cfg.n_boot, per_block):
        block = counts[: min(per_block, cfg.n_boot - start)]
        for k in range(len(block)):
            block[k] = np.bincount(rank[_resample_rows(n, cfg, start + k)], minlength=n)
        stop = start + len(block)
        tau_stars[start:stop] = (_rowsq(block @ w) - block @ r) / (n * (n - 1))
        g_stars[start:stop] = block @ g / n
    return tau_stars, g_stars


def _rebuilt_stars(
    ds: LabeledDataset,
    model: CovariateModel,
    cfg: BootstrapConfig,
    initial: InitialEstimator,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The initial and ``g_n`` on every resample, each rebuilt as a dataset."""
    tau_stars = np.empty(cfg.n_boot)
    g_stars = np.empty(cfg.n_boot)
    for b in range(cfg.n_boot):
        rows = ds.rank[_resample_rows(ds.n, cfg, b)]
        resampled = LabeledDataset(ds.x[rows], ds.y[rows])
        try:
            tau_stars[b] = initial(resampled, model)
        except Exception as exc:  # noqa: BLE001 - attributed and re-raised
            raise InitialEstimatorFailure(b, exc) from exc
        g_stars[b] = np.mean(g[rows])
    return tau_stars, g_stars


def empirical_estimator(stats: DatasetStats, cfg: BootstrapConfig) -> EstimateReport:
    """Run the bootstrap-coefficient correction around an initial estimator.

    ``stats`` holds the dataset and its W, g and ``sigma_Y^2``.  The ``naive``
    initial reads W there and is evaluated on all resamples from the count
    matrix (see the module docstring).  A callable initial is called on the
    dataset and then on each rebuilt resample in index order, and a failure
    there raises :class:`InitialEstimatorFailure` carrying the resample
    index.  Returns a report with ``aux`` recording the fitted coefficient,
    the bootstrap count, and the initial: ``"naive"`` or ``"custom"``.
    """
    ds, model, single = stats.ds, stats.model, stats.single
    initial = cfg.initial_estimator
    n = ds.n

    if callable(initial):
        tau2_init = initial(ds, model)
        tau_stars, g_stars = _rebuilt_stars(ds, model, cfg, initial, single.g_per_obs)
    else:
        tau2_init = naive_tau2(stats.w)
        tau_stars, g_stars = _naive_stars(stats.w.w, ds.rank, cfg, single.g_per_obs)

    cov = float(np.cov(tau_stars, g_stars, ddof=1)[0, 1])
    var_g_n = single.var_g / n
    c_tilde = cov / var_g_n

    tau2 = tau2_init - c_tilde * single.g_n
    return EstimateReport(
        tau2=tau2,
        sigma2=sigma2_from(tau2, stats.sigma_y2),
        estimator_id="empirical",
        aux={"c_tilde": c_tilde, "n_boot": cfg.n_boot,
             "initial": "custom" if callable(initial) else "naive"},
    )
