"""Point estimators of the signal level tau^2 = ||beta||^2.

Everything here is a moment estimator built on the W matrix, exactly unbiased
under any i.i.d. law of the rows unless its entry says otherwise.  The family:

``naive_tau2``
    sum over columns of the distinct-pair U-statistic; the baseline.
``dicker_tau2``
    the method-of-moments variant ``(||X'Y||^2 - p ||Y||^2) / (n (n+1))``,
    biased by ``sum_j (E X_j^4 - 3) beta_j^2 / (n + 1)``, zero for Gaussian designs.
``t_oracle``
    naive minus the optimal linear combination of second-moment
    zero-estimators; needs the true beta, so it is a simulation reference.
``t_full``
    the feasible version that estimates all p^2 correction coefficients;
    unbiased but noisier than naive when p is comparable to n.
``t_b``
    corrects over a fixed index set B only.
``t_c_hat_star`` (with ``c_hat_star``)
    subtracts the mean ``g_n`` of the pairwise-product zero-estimator ``ds.g``
    (``model.build_single_zero``) with an estimated coefficient, biased by
    O(1/n); ``c_star_oracle`` is its oracle counterpart.  Both divide by
    ``Var(g_i)``, which the covariate model fixes (``pairwise_zero_variance``).

Estimators may return negative values; unbiasedness is the contract and
clamping would break it.  Consumers that need nonnegative reports clamp
explicitly (see the CLI ``--clamp`` flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, TooFewObservations
from .kernels import chain_sum_distinct, ordered_sum, triple_sum_distinct
from .model import (CoefficientVector, CovariateModel, LabeledDataset, WMatrix,
                    build_single_zero, column_set, pairwise_zero_variance)

__all__ = [
    "ESTIMATOR_IDS",
    "EstimateReport",
    "build_single_zero",
    "c_hat_numerator",
    "c_hat_star",
    "c_star_oracle",
    "dicker_tau2",
    "naive_tau2",
    "pairwise_zero_variance",
    "psi_hat",
    "sigma2_from",
    "t_b",
    "t_c_hat_star",
    "t_full",
    "t_oracle",
]

# Fixed identifier strings used in CSV outputs and the CLI.
ESTIMATOR_IDS = ("naive", "dicker", "oracle", "full", "single", "selection", "empirical")


@dataclass(frozen=True)
class EstimateReport:
    """An estimator's point value for tau^2 plus attached metadata.

    ``sigma2`` is ``sigma_Y^2 - tau2`` from the same dataset and may be
    negative.  ``aux`` carries estimator-specific provenance (selected
    column set, estimated coefficient, warnings).
    """

    tau2: float
    sigma2: float
    variance_estimate: float | None = None
    aux: dict = field(default_factory=dict)


def sigma2_from(tau2: float, sigma_y2: float) -> float:
    """Noise estimate ``sigma_Y^2 - tau^2``, unclamped."""
    return sigma_y2 - tau2


def naive_tau2(w: WMatrix) -> float:
    """Baseline unbiased estimator of tau^2.

    Per column the distinct-pair sum collapses to
    ``(column sum)^2 - (column square sum)``; the total is divided by
    ``n (n - 1)``.  May be negative.
    """
    if w.n < 2:
        raise TooFewObservations("naive_tau2 needs n >= 2")
    per_column = w.column_sums * w.column_sums - w.column_square_sums
    return ordered_sum(per_column) / (w.n * (w.n - 1))


def dicker_tau2(ds: LabeledDataset) -> float:
    """Method-of-moments ``(||X'Y||^2 - p ||Y||^2) / (n (n + 1))``; ``X'Y = ds.w.column_sums``."""
    xy = ds.w.column_sums
    y_sq = ordered_sum(ds.y * ds.y)
    return (ordered_sum(xy * xy) - ds.p * y_sq) / (ds.n * (ds.n + 1))


def t_oracle(ds: LabeledDataset, beta: CoefficientVector) -> float:
    """Oracle-corrected estimator; requires the true beta.

    Subtracts ``2 sum_{j,j'} beta_j beta_j' h_jj'`` where ``h_jj'`` is the
    centered second-moment average.  For whitened covariates
    ``E(X_j X_j') = delta_jj'``, so the whole double sum collapses to
    ``(2/n) sum_i [(beta' X_i)^2 - ||beta||^2]``, an O(np) pass.
    """
    if beta.p != ds.p:
        raise DimensionMismatch(f"beta has length {beta.p}, data has p = {ds.p}")
    w = ds.w
    xb = np.einsum("ij,j->i", ds.x, beta.beta)
    correction = 2.0 * ordered_sum(xb * xb - beta.tau2) / ds.n
    return naive_tau2(w) - correction


def psi_hat(ds: LabeledDataset, j: int, j_prime: int) -> float:
    """Mean-zero correction term for the column pair (j, j').

    The distinct-triple U-statistic

        sum_{i1 != i2 != i3} W[i1,j] W[i2,j'] (X[i3,j] X[i3,j'] - E X_j X_j')
        / (n (n-1) (n-2))

    evaluated in O(n) via the triple-sum kernel.  E(psi_hat) = 0 for any
    beta, which is what makes the corrected estimators unbiased.
    """
    n, p = ds.n, ds.p
    if n < 3:
        raise TooFewObservations("psi_hat needs n >= 3")
    if not (0 <= j < p and 0 <= j_prime < p):
        raise IndexOutOfRange(f"column pair ({j}, {j_prime}) outside range(0, {p})")
    expected = 1.0 if j == j_prime else 0.0
    z = ds.x[:, j] * ds.x[:, j_prime] - expected
    value = triple_sum_distinct(ds.w.w[:, j], ds.w.w[:, j_prime], z)
    return value / (n * (n - 1) * (n - 2))


def t_full(ds: LabeledDataset) -> float:
    """Feasible fully-corrected estimator ``naive - 2 sum_{j,j'} psi_hat``.

    The p^2 pair terms share one observation-pair structure: with
    ``a[i1, i3] = Y[i1] * (X[i1] . X[i3])`` the full double sum over (j, j')
    reduces to distinct-index sums of ``a``, an O(n^2 p) evaluation instead
    of O(p^2 n).  ``a'`` is ``X X'`` with column k scaled by ``Y[k]``, so
    with ``ds.gram = gram(X, Y)``, the dataset's one Gram product,
    ``chain_sum_distinct(ds.gram)`` is ``sum a[i1, i2] a[i3, i2]`` over distinct
    (i1, i2, i3); what remains is O(n).
    Unbiased, but when p is of the order of n the estimation of all p^2
    coefficients adds more variance than the correction removes.
    """
    n = ds.n
    if n < 3:
        raise TooFewObservations("t_full needs n >= 3")
    w, g = ds.w, ds.gram
    naive = naive_tau2(w)
    # sum_{i1 != i2 != i3} G[i1, i2] = (n - 2) * n (n-1) * naive
    triple = chain_sum_distinct(g) - (n - 2) * (n * (n - 1)) * naive
    return naive - 2.0 * triple / (n * (n - 1) * (n - 2))


def t_b(ds: LabeledDataset, b_set) -> float:
    """Corrected estimator over a fixed column set B.

    ``naive - 2 sum_{j, j' in B} psi_hat_{jj'}``; unbiased for any
    data-independent B, cost O(|B|^2 n).  B is a set of 0-based column
    indices; an empty B returns the naive estimator.
    """
    n = ds.n
    indices = column_set(b_set, ds.p)
    naive = naive_tau2(ds.w)
    if not indices:
        return naive
    if n < 3:
        raise TooFewObservations("t_b needs n >= 3")
    terms = [psi_hat(ds, j, j_prime) for j in indices for j_prime in indices]
    return naive - 2.0 * ordered_sum(terms)


def c_star_oracle(beta: CoefficientVector, model: CovariateModel) -> float:
    """Oracle coefficient ``c* = 2 sum_j beta_j theta_j / Var(g_i)``.

    For independent whitened columns ``theta_j = sum_{m != j} beta_m``, so
    the numerator sum collapses to ``(sum_j beta_j)^2 - ||beta||^2``;
    ``Var(g_i)`` is :func:`pairwise_zero_variance`'s.
    """
    var_g = pairwise_zero_variance(beta.p, model)
    total = ordered_sum(beta.beta)
    return 2.0 * (total * total - beta.tau2) / var_g


def c_hat_star(ds: LabeledDataset, model: CovariateModel) -> float:
    """U-statistic estimate of c*.

    ``(2 / (n (n-1))) sum_{i1 != i2} sum_j W[i1,j] S[i2,j] / Var(g_i)`` with
    ``S[i,j] = W[i,j] g_i``; summed over i1 first, the pair sum is
    ``sum_i g_i (W_i . C - ||W_i||^2)`` with C the cached column sums, an
    O(np) pass.  Same dataset for W and S, no splitting.
    """
    var_g = pairwise_zero_variance(ds.p, model)
    return c_hat_numerator(ds) / var_g


def c_hat_numerator(ds: LabeledDataset) -> float:
    """The bracketed pair sum ``(2/(n(n-1))) sum_{i1 != i2} sum_j W S`` of ``ds.w`` and ``ds.g``."""
    w, g = ds.w, ds.g
    per_row = np.einsum("ij,j->i", w.w, w.column_sums) - np.einsum("ij,ij->i", w.w, w.w)
    return 2.0 * ordered_sum(g * per_row) / (w.n * (w.n - 1))


def t_c_hat_star(ds: LabeledDataset, model: CovariateModel) -> float:
    """Feasible single-correction estimator ``naive - c_hat_star * g_n``.

    Biased by O(1/n), as c-hat and g_n are correlated (same rows): at tau^2 =
    sigma^2 = 1 the bias measured -0.248 +- 0.005 at n = 50, p = 20 (38% of
    its standard error) and -0.026 +- 0.004 at n = p = 400.  It reads W,
    checks the model and then builds g, in that order, so an overflow or a
    bad model is reported by the step that meets it first.
    """
    w, var_g = ds.w, pairwise_zero_variance(ds.p, model)
    g_n = ordered_sum(ds.g) / ds.n
    return naive_tau2(w) - c_hat_numerator(ds) / var_g * g_n
