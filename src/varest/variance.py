"""Variance of the estimators: exact/leading-order theory and feasible estimates.

Theory side (used as test oracles and for reporting):

* ``var_naive_theory`` is the exact finite-n variance of the naive estimator.
  It reads ``A = E(W W')`` only through ``b'Ab`` and ``||A||_F^2``, O(p) sums
  for independent whitened columns, so no theory variance forms a p x p matrix.
* ``var_t_oracle_theory`` / ``var_t_b_theory`` / ``var_t_cstar_theory`` /
  ``var_t_full_theory`` apply the corresponding reduction (or estimation
  cost) terms.  The T_B and T_full formulas are leading order and reports
  should label them approximate: T_B drops its O(n^-2) remainder, and
  T_full keeps only the terms that stay leading when p is of order n (its
  second-order Hoeffding term ``16 p tau^4 / n^2`` and its third-order term
  ``8 p^2 sigma_Y^4 / n^3``), dropping O(n^-2) remainders not scaled by p.
  T_oracle is T_B with B every column, exact as its coefficients are known.

Feasible side:

* ``var_hat_naive_gaussian`` / ``var_hat_t_gamma`` plug sample moments into
  the exact formula's Gaussian part, the terms ``var_naive_theory`` starts from.
* ``var_tilde_naive`` / ``var_tilde_t_gamma`` / ``var_tilde_t_chat`` are the
  distribution-free versions: each unknown in the exact formula is replaced
  by its own distinct-index U-statistic built from the Gram matrix of W.
  That matrix is the dataset's one product ``ds.gram = gram(X, Y)`` with its
  rows scaled by Y (``GramMatrix.rows_scaled``), since ``W W' = diag(Y) X X' diag(Y)``.

Negative variance estimates are possible and reported raw; callers that
surface them attach a warning instead of clamping.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, TooFewObservations, UnsupportedDependenceStructure
from .estimators import c_hat_numerator, c_star_oracle, naive_tau2
from .kernels import chain_sum_distinct, offdiag_square_sum, ordered_sum
from .model import (CoefficientVector, CovariateModel, LabeledDataset, column_set,
                    pairwise_zero_variance)
from .selection import beta_squared_estimates

__all__ = [
    "asymptotic_psi",
    "var_hat_naive_gaussian",
    "var_hat_t_gamma",
    "var_naive_theory",
    "var_t_b_theory",
    "var_t_cstar_theory",
    "var_t_full_theory",
    "var_t_oracle_theory",
    "var_tilde_naive",
    "var_tilde_t_chat",
    "var_tilde_t_gamma",
]


def _eq5(n: int, beta_quad_centered: float, frob_centered: float) -> float:
    """Exact variance of the naive estimator given centered A components."""
    lead = 4.0 * (n - 2) / (n * (n - 1))
    tail = 2.0 / (n * (n - 1))
    return lead * beta_quad_centered + tail * frob_centered


def _gaussian_terms(tau2: float, sigma_y2: float, p: int) -> tuple[float, float]:
    """``(b'Ab - tau^4, ||A||_F^2 - tau^4)`` under a Gaussian model (every k_j = 0)."""
    t4 = tau2 * tau2
    return (sigma_y2 * tau2 + t4,
            p * sigma_y2 * sigma_y2 + 4.0 * sigma_y2 * tau2 + 3.0 * t4)


def var_naive_theory(
    beta: CoefficientVector,
    sigma2: float,
    model: CovariateModel,
    n: int,
) -> float:
    """Exact finite-n variance of the naive estimator, in O(p).

    ``(4(n-2)/(n(n-1))) [b'Ab - t^2] + (2/(n(n-1))) [||A||_F^2 - t^2]`` for
    ``A = E(W W') = 2 b b' + diag(s + k_j b_j^2)`` (independent columns), with
    ``t = tau^2``, ``s = sigma_Y^2`` and excess kurtoses ``k_j = E X_j^4 - 3``:

    * ``b'Ab - t^2 = t^2 + s t + sum_j k_j b_j^4``;
    * ``||A||_F^2 - t^2 = 3 t^2 + p s^2 + 4 s t
      + sum_j (2 s k_j b_j^2 + (k_j^2 + 4 k_j) b_j^4)``.

    The sums vanish under a Gaussian model, leaving what
    :func:`var_hat_naive_gaussian` plugs estimates into.
    """
    if not model.independent_columns:
        raise UnsupportedDependenceStructure("var_naive_theory needs independent columns")
    if beta.p != model.p:
        raise DimensionMismatch(f"beta has p = {beta.p}, the covariate model p = {model.p}")
    sigma_y2 = beta.tau2 + sigma2
    b2 = beta.beta * beta.beta
    k = model.fourth_moments - 3.0
    kb4 = k * b2 * b2
    quad, frob = _gaussian_terms(beta.tau2, sigma_y2, beta.p)
    return _eq5(n, quad + ordered_sum(kb4),
                frob + ordered_sum(2.0 * sigma_y2 * k * b2 + (k + 4.0) * kb4))


def asymptotic_psi(tau2: float, sigma2: float, p: int, n: int) -> float:
    """Asymptotic variance scale: ``n Var(naive) -> psi`` as n, p grow.

    ``psi = 2 [ (1 + p/n) (sigma^2 + tau^2)^2 - sigma^4 + 3 tau^4 ]``.
    """
    sy2 = sigma2 + tau2
    return 2.0 * ((1.0 + p / n) * sy2 * sy2 - sigma2 * sigma2 + 3.0 * tau2 * tau2)


def _reduced(base: float, beta2, b_set, fourth_moments, n: int) -> float:
    """``base - (4/n)[sum_B b^4 (EX^4 - 1) + 2 sum_{j != j' in B} b^2 b'^2]``, b^2 from ``beta2``.

    ``fourth_moments`` is one value per column or one for all columns.
    """
    b2 = np.asarray(beta2, dtype=np.float64)
    m4 = np.asarray(fourth_moments, dtype=np.float64)
    if m4.ndim and m4.shape != b2.shape:
        raise DimensionMismatch(f"{len(m4)} fourth moments for {len(b2)} squared coefficients")
    indices = column_set(b_set, len(b2))
    if not indices:
        return base
    idx = np.asarray(indices, dtype=np.intp)
    b2 = b2[idx]
    b4 = b2 * b2
    quartic = ordered_sum(b4 * ((m4[idx] if m4.ndim else m4) - 1.0))
    cross = ordered_sum(b2) ** 2 - ordered_sum(b4)
    return base - 4.0 / n * (quartic + 2.0 * cross)


def var_t_oracle_theory(
    beta: CoefficientVector,
    sigma2: float,
    model: CovariateModel,
    n: int,
) -> float:
    """Exact variance of the oracle-corrected estimator: the T_B formula over every column."""
    return var_t_b_theory(beta, sigma2, model, n, range(beta.p))


def var_t_b_theory(
    beta: CoefficientVector,
    sigma2: float,
    model: CovariateModel,
    n: int,
    b_set,
) -> float:
    """Leading-order variance of T_B for a fixed set B (O(n^-2) dropped)."""
    return _reduced(var_naive_theory(beta, sigma2, model, n), beta.beta ** 2, b_set,
                    model.fourth_moments, n)


def var_t_cstar_theory(
    beta: CoefficientVector,
    sigma2: float,
    model: CovariateModel,
    n: int,
) -> float:
    """Variance of the oracle single-correction estimator T_{c*}.

    Subtracts ``c*^2 Var(g_i) / n``, with c* from :func:`c_star_oracle` and
    ``Var(g_i)`` from :func:`pairwise_zero_variance`.  The naive variance is
    taken first, so a beta and a model of different widths are reported as
    :func:`var_naive_theory` reports them.
    """
    naive = var_naive_theory(beta, sigma2, model, n)
    c_star = c_star_oracle(beta, model)
    return naive - c_star * c_star * pairwise_zero_variance(beta.p, model) / n


def var_t_full_theory(
    beta: CoefficientVector,
    sigma2: float,
    model: CovariateModel,
    n: int,
) -> float:
    """Leading-order variance of the fully-corrected estimator, with p = ``beta.p``.

    ``Var(T_oracle) + 16 p tau^4 / n^2 + 8 p^2 sigma_Y^4 / n^3``; the two
    estimation-cost terms are what make full correction counterproductive
    when p is of order n.

    The correction ``2/(n)_3 sum h(i1, i2, i3)`` has the oracle correction as
    its first-order Hoeffding projection, second-order projections
    ``g(a, b) = (W_a - beta)' (X_b X_b' - I) beta`` and a third-order
    remainder.  The second-order part has variance
    ``16 p (sigma_Y^2 tau^2 + tau^4) / n^2`` and covariance
    ``8 p sigma_Y^2 tau^2 / n^2`` with the naive estimator's own
    second-order term; the covariance enters twice, leaving
    ``16 p tau^4 / n^2``.  The third-order remainder gives
    ``8 p^2 sigma_Y^4 / n^3``.  At n = p, tau^2 = sigma^2 = 1 this is
    ``n Var = 12 + 16 + 32 = 60``.

    The moments of the second-order term are Gaussian ones; the formula is
    verified by Monte Carlo for Gaussian covariates only.  For other designs
    it is not settled: at n = p = 200 (5000 replications) it agrees within
    one standard error for ``rademacher-mix`` and ``scaled-t(6)`` with
    uniform beta, but runs low with tau^2 on five columns (``rademacher-mix``
    measured 64.4 +- 1.4 against 60.05).
    """
    tau4 = beta.tau2 ** 2
    sigma_y2 = beta.tau2 + sigma2
    second_order = 16.0 * beta.p * tau4 / n ** 2
    third_order = 8.0 * beta.p * beta.p * sigma_y2 * sigma_y2 / n ** 3
    return var_t_oracle_theory(beta, sigma2, model, n) + second_order + third_order


def var_hat_naive_gaussian(tau2_hat: float, sigma_y2_hat: float, n: int, p: int) -> float:
    """Gaussian plug-in variance estimate for the naive estimator.

    The exact formula's Gaussian part at the estimates ``t2`` and ``sy2``:
    ``(4/n)[ ((n-2)/(n-1)) (sy2 t2 + t2^2)
             + (1/(2(n-1))) (p sy2^2 + 4 sy2 t2 + 3 t2^2) ]``;
    a negative tau^2-hat is plugged in raw.
    """
    return _eq5(n, *_gaussian_terms(tau2_hat, sigma_y2_hat, p))


def var_hat_t_gamma(var_hat_naive: float, ds: LabeledDataset, b_gamma) -> float:
    """Gaussian plug-in variance estimate for the selection estimator on ``ds``.

    The reduction of :func:`var_tilde_t_gamma` with the Gaussian fourth
    moment 3, which is ``(8/n) (sum_{j in B_gamma} beta_j^2-hat)^2``; may be
    negative (reported raw, flagged by callers).  Under a Gaussian model the
    plug-in and tilde selection variances therefore differ only in their
    naive base.
    """
    return _reduced(var_hat_naive, beta_squared_estimates(ds.w), b_gamma, 3.0, ds.n)


def var_tilde_naive(ds: LabeledDataset) -> float:
    """Distribution-free variance estimate of the naive estimator on ``ds``.

    The exact formula with each component replaced by a U-statistic:
    ``b'Ab`` by the distinct-triple chain sum over the Gram matrix of W's
    rows (``ds.gram`` with its rows scaled by Y), ``||A||_F^2`` by the
    off-diagonal square sum, and ``||b||^4`` by the squared naive estimate.
    That square has mean ``tau^4 + Var(naive)``, so under any i.i.d. law the
    estimate's mean is exactly ``(n-2)(n-3)/(n(n-1)) Var(naive)``: 1.0% low
    at n = 400, 7.9% at n = 50.
    """
    n = ds.n
    if n < 3:
        raise TooFewObservations("var_tilde_naive needs n >= 3")
    w, g = ds.w, ds.gram.rows_scaled(ds.y)
    beta_quad_hat = chain_sum_distinct(g) / (n * (n - 1) * (n - 2))
    frob_hat = offdiag_square_sum(g) / (n * (n - 1))
    beta4_hat = naive_tau2(w) ** 2
    return _eq5(n, beta_quad_hat - beta4_hat, frob_hat - beta4_hat)


def var_tilde_t_gamma(
    var_tilde: float,
    ds: LabeledDataset,
    b_gamma,
    model: CovariateModel,
) -> float:
    """Distribution-free variance estimate of the selection estimator on ``ds``.

    Subtracts the reduction term with estimated coefficients and the model's
    known fourth moments over the selected set.  Its squared estimates are each
    biased up by their own variance, so it reads low beyond ``var_tilde``'s bias.
    """
    return _reduced(var_tilde, beta_squared_estimates(ds.w), b_gamma, model.fourth_moments,
                    ds.n)


def var_tilde_t_chat(var_tilde: float, ds: LabeledDataset, model: CovariateModel) -> float:
    """Distribution-free variance estimate of the single-correction estimator on ``ds``.

    Subtracts ``[(2/(n(n-1))) sum_{i1 != i2} sum_j W S]^2 / (n Var(g_i))``,
    reusing the pair sums of the c*-hat numerator.  The n in the denominator
    matches the oracle reduction (the bracket estimates 2 sum_j b_j theta_j,
    a per-observation quantity, while the correction applies to the mean of
    n zero-estimators).  The squared bracket is biased up by its own variance,
    so the estimate reads low beyond ``var_tilde``'s bias.
    """
    var_g = pairwise_zero_variance(ds.p, model)
    bracket = c_hat_numerator(ds)
    return var_tilde - bracket * bracket / (ds.n * var_g)
