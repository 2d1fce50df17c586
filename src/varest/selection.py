"""Covariate selection via the largest gap in ordered squared-coefficient estimates.

The selection estimator corrects the naive estimator only over a small set
B_gamma of columns chosen from the data: sort the per-column estimates
``beta_j^2-hat``, find the largest consecutive gap, and keep the columns
strictly above the order statistic at the gap.  Because a data-dependent B
can bias the correction (a post-selected "zero"-estimator no longer has mean
zero), an optional sample split performs selection and correction on disjoint
row blocks: ``split_rows`` holds the split rule, and ``t_gamma`` selects on
the first block (``select``) and corrects on the second.  Each block is a
dataset that carries its own W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, TooFewColumns, TooFewObservations
from .estimators import EstimateReport, sigma2_from, t_b
from .model import LabeledDataset

__all__ = [
    "SelectionResult",
    "beta_squared_estimates",
    "gap_select",
    "split_rows",
    "t_gamma",
]

# Library default bound on |B_gamma|; keeps the O(|B|^2 n) correction bounded.
DEFAULT_CAP = 50
# Default share of the rows that selects in a sample split.
DEFAULT_SPLIT = 0.5


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the gap rule.

    ``selected`` holds original (0-based) column indices whose estimate is
    strictly above ``threshold_value``, the order statistic at the largest
    gap.  ``gaps`` has length p-1; entry k is the difference between order
    statistics k+2 and k+1 (1-based).
    """

    selected: tuple
    threshold_value: float
    gaps: np.ndarray

    def __post_init__(self):
        self.gaps.setflags(write=False)


def beta_squared_estimates(w) -> np.ndarray:
    """Per-column unbiased estimates of beta_j^2, possibly negative.

    ``((column sum)^2 - column square sum) / (n (n - 1))`` per column; their
    sum is the naive tau^2 estimate.
    """
    if w.n < 2:
        raise TooFewObservations("beta_squared_estimates needs n >= 2")
    return (w.column_sums * w.column_sums - w.column_square_sums) / (w.n * (w.n - 1))


def gap_select(beta2) -> SelectionResult:
    """Apply the largest-gap rule to a vector of squared-coefficient estimates.

    Ties in the argmax over gaps break toward the smallest order-statistic
    position.  The strict inequality excludes the order statistic sitting at
    the gap itself, so an all-equal input selects nothing.  Negative
    estimates participate in the sort as-is.
    """
    b2 = np.asarray(beta2, dtype=np.float64).ravel()
    p = b2.shape[0]
    if p < 2:
        raise TooFewColumns("gap selection needs p >= 2")
    sorted_vals = np.sort(b2, kind="stable")
    gaps = np.diff(sorted_vals)
    k_star = int(np.argmax(gaps))  # first max: smallest position wins ties
    threshold = float(sorted_vals[k_star + 1])
    selected = tuple(int(j) for j in np.flatnonzero(b2 > threshold))
    return SelectionResult(selected=selected, threshold_value=threshold, gaps=gaps)


def split_rows(ds: LabeledDataset,
               fraction: float = DEFAULT_SPLIT) -> tuple[LabeledDataset, LabeledDataset]:
    """The selection and estimation row blocks of a sample split.

    The caller's leading ``fraction`` of the rows (a fraction in (0, 1),
    rounded, at least 2 rows and leaving at least 3) selects; the rest
    estimates.  The blocks follow the order the dataset was built from (read
    through ``ds.rank``), not its canonical order.  Rows are i.i.d., so a
    leading block is statistically equivalent to a random subset.
    """
    if not 0.0 < fraction < 1.0:
        raise InvalidInput(f"fraction must be in (0, 1), got {fraction}")
    n = ds.n
    if n < 6:
        raise TooFewObservations("split selection needs n >= 6")
    k = min(max(int(round(fraction * n)), 2), n - 3)
    lead, rest = ds.rank[:k], ds.rank[k:]
    return LabeledDataset(ds.x[lead], ds.y[lead]), LabeledDataset(ds.x[rest], ds.y[rest])


def t_gamma(
    ds: LabeledDataset,
    *,
    select: LabeledDataset | None = None,
    cap: int | None = DEFAULT_CAP,
) -> EstimateReport:
    """Selection estimator: naive minus the correction over the gap-selected set.

    ``ds`` holds the rows that compute both the naive estimate and the
    correction terms.  B_gamma is selected on the W of ``select`` when it is
    given, and on that of ``ds`` otherwise.  Selecting on a disjoint row
    block (the first block of :func:`split_rows`, with ``ds`` the second)
    removes post-selection bias.

    ``cap >= 0`` bounds |B_gamma|, keeping the ``cap`` strongest estimates
    (in ascending column order); pass ``cap=None`` to disable.  The gap rule
    alone selects at most p - 2 columns, so a cap of p - 2 or more trims nothing.
    """
    if cap is not None and cap < 0:
        raise InvalidInput(f"cap must be nonnegative, got {cap}")
    if ds.n < 3:
        raise TooFewObservations("t_gamma needs n >= 3")
    split = select is not None
    selecting = select if split else ds
    beta2 = beta_squared_estimates(selecting.w)
    result = gap_select(beta2)
    selected = list(result.selected)
    if cap is not None and len(selected) > cap:
        selected = sorted(sorted(selected, key=lambda j: -beta2[j])[:cap])

    tau2 = t_b(ds, selected)
    return EstimateReport(
        tau2=tau2,
        sigma2=sigma2_from(tau2, ds.sigma_y2),
        aux={
            "selected": tuple(selected),
            "threshold": result.threshold_value,
            "split": split,
            "n_select_rows": selecting.n,
        },
    )
