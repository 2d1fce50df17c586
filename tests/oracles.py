"""Brute-force reference implementations used as test oracles.

Every fast kernel and estimator in the library is pinned against one of
these literal nested-loop evaluations.  They are deliberately independent of
the library's algebraic shortcuts: loops over explicit index tuples only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def pair_sum_loop(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(u)
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            if i1 != i2:
                total += u[i1] * v[i2]
    return total


def triple_sum_loop(u, v, w) -> float:
    u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
    n = len(u)
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                if i1 != i2 and i2 != i3 and i1 != i3:
                    total += u[i1] * v[i2] * w[i3]
    return total


def gram_loop(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    n, p = rows.shape
    g = np.zeros((n, n))
    for i1 in range(n):
        for i2 in range(n):
            for j in range(p):
                g[i1, i2] += rows[i1, j] * rows[i2, j]
    return g


def offdiag_square_sum_loop(g) -> float:
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            if i1 != i2:
                total += g[i1, i2] ** 2
    return total


def chain_sum_loop(g, h=None) -> float:
    """``sum over pairwise-distinct (i1, i2, i3) of g[i1, i2] h[i2, i3]``; h defaults to g."""
    g = np.asarray(g, dtype=float)
    h = g if h is None else np.asarray(h, dtype=float)
    n = g.shape[0]
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                if i1 != i2 and i2 != i3 and i1 != i3:
                    total += g[i1, i2] * h[i2, i3]
    return total


def w_loop(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    w = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            w[i, j] = x[i, j] * y[i]
    return w


def naive_loop(w) -> float:
    w = np.asarray(w, dtype=float)
    n, p = w.shape
    total = 0.0
    for j in range(p):
        for i1 in range(n):
            for i2 in range(n):
                if i1 != i2:
                    total += w[i1, j] * w[i2, j]
    return total / (n * (n - 1))


def beta2_loop(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n, p = w.shape
    out = np.zeros(p)
    for j in range(p):
        for i1 in range(n):
            for i2 in range(n):
                if i1 != i2:
                    out[j] += w[i1, j] * w[i2, j]
    return out / (n * (n - 1))


def moment_matrix_loop(beta, sigma2, fourth_moments) -> np.ndarray:
    """``A[j, k] = E(W_j W_k)`` for independent whitened columns, entry by entry.

    ``W_j = X_j Y`` with ``Y = sum_m beta_m X_m + eps``.  Off the diagonal only
    the ``X_j^2 X_k^2`` terms survive, twice: ``2 beta_j beta_k``.  On it,
    ``E X_j^4 beta_j^2 + sum_{m != j} beta_m^2 + sigma^2``.
    """
    b = np.asarray(beta, dtype=float)
    p = len(b)
    a = np.zeros((p, p))
    for j in range(p):
        for k in range(p):
            if j != k:
                a[j, k] = 2.0 * b[j] * b[k]
        a[j, j] = fourth_moments[j] * b[j] ** 2 + sigma2
        for m in range(p):
            if m != j:
                a[j, j] += b[m] ** 2
    return a


def naive_variance_loop(beta, sigma2, fourth_moments, n):
    """Exact variance of the naive estimator from ``moment_matrix_loop``, and its scale.

    ``(4(n-2)/(n(n-1))) [b'Ab - tau^4] + (2/(n(n-1))) [||A||_F^2 - tau^4]``; the
    scale is the same expression with each ``- tau^4`` made ``+ tau^4``.
    """
    b = np.asarray(beta, dtype=float)
    a = moment_matrix_loop(b, sigma2, fourth_moments)
    p = len(b)
    quad = frob = tau2 = 0.0
    for j in range(p):
        tau2 += b[j] ** 2
        for k in range(p):
            quad += b[j] * a[j, k] * b[k]
            frob += a[j, k] ** 2
    lead, tail = 4.0 * (n - 2) / (n * (n - 1)), 2.0 / (n * (n - 1))
    tau4 = tau2 * tau2
    return (lead * (quad - tau4) + tail * (frob - tau4),
            lead * (quad + tau4) + tail * (frob + tau4))


def psi_loop(x, w, j, j_prime) -> float:
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = x.shape[0]
    expected = 1.0 if j == j_prime else 0.0
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                if i1 != i2 and i2 != i3 and i1 != i3:
                    total += (
                        w[i1, j] * w[i2, j_prime]
                        * (x[i3, j] * x[i3, j_prime] - expected)
                    )
    return total / (n * (n - 1) * (n - 2))


def psi_sum_loop(x, w, delta=1.0) -> float:
    """``sum over all (j, j') of psi_loop(x, w, j, j')`` in one pass over distinct triples.

    Per triple the (j, j') double sum of psi's summand factors as
    ``(w_i1 . x_i3) (w_i2 . x_i3) - delta (w_i1 . w_i2)`` (``delta = 1``), each
    dot product a loop over the columns; O(n^2 p + n^3) instead of O(p^2 n^3).
    On ``|x|``, ``|w|`` and with ``delta = -1`` it is the sum of the absolute
    values of psi's summands, the scale a rounding error is measured on.
    """
    x = np.asarray(x, dtype=float).tolist()
    w = np.asarray(w, dtype=float).tolist()
    n, p = len(x), len(x[0])
    wx = [[sum(w[i][j] * x[k][j] for j in range(p)) for k in range(n)] for i in range(n)]
    ww = [[sum(w[i][j] * w[k][j] for j in range(p)) for k in range(n)] for i in range(n)]
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                if i1 != i2 and i2 != i3 and i1 != i3:
                    total += wx[i1][i3] * wx[i2][i3] - delta * ww[i1][i2]
    return total / (n * (n - 1) * (n - 2))


def single_zero_loop(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    g = np.zeros(n)
    for i in range(n):
        for j in range(p):
            for j2 in range(j + 1, p):
                g[i] += x[i, j] * x[i, j2]
    return g


def chat_numerator_loop(w, g_per_obs) -> float:
    """The bracketed pair sum of the c*-hat estimator, unnormalized form."""
    w = np.asarray(w, dtype=float)
    g = np.asarray(g_per_obs, dtype=float)
    n, p = w.shape
    total = 0.0
    for i1 in range(n):
        for i2 in range(n):
            if i1 != i2:
                for j in range(p):
                    total += w[i1, j] * w[i2, j] * g[i2]
    return 2.0 * total / (n * (n - 1))


def gap_select_loop(beta2):
    """Second implementation of the gap rule: sort, scan gaps, threshold."""
    beta2 = np.asarray(beta2, dtype=float)
    p = len(beta2)
    order = sorted(range(p), key=lambda j: beta2[j])
    svals = [beta2[j] for j in order]
    best_gap, best_pos = -np.inf, None
    for k in range(1, p):
        gap = svals[k] - svals[k - 1]
        if gap > best_gap:
            best_gap, best_pos = gap, k
    threshold = svals[best_pos]
    return sorted(j for j in range(p) if beta2[j] > threshold), threshold


def _named_initial(name):
    """The library calls behind each named bootstrap initial, as the README documents them."""
    from varest.estimators import dicker_tau2, naive_tau2, t_c_hat_star, t_full
    from varest.model import build_w
    from varest.selection import t_gamma

    return {
        "naive": lambda d, m: naive_tau2(build_w(d)),
        "dicker": lambda d, m: dicker_tau2(d),
        "single": lambda d, m: t_c_hat_star(d, m),
        "full": lambda d, m: t_full(d),
        "selection": lambda d, m: t_gamma(d).tau2,
    }[name]


def empirical_loop(ds, model, cfg, initial=None):
    """The bootstrap-coefficient estimator evaluated literally.

    Each resample is rebuilt as a dataset from its ``SeedSequence((seed, b))``
    row indices, positions in the caller's row order that ``ds.rank`` maps to
    stored rows, and the initial estimator is called on it.  ``initial`` is
    a named initial or a callable ``(ds, model) -> float``; by default
    ``cfg.initial_estimator``.  Returns ``(tau2, c_tilde)``.
    """
    from varest.kernels import ordered_sum
    from varest.model import LabeledDataset, build_single_zero, pairwise_zero_variance

    initial = cfg.initial_estimator if initial is None else initial
    if isinstance(initial, str):
        initial = _named_initial(initial)
    g, var_g = build_single_zero(ds), pairwise_zero_variance(ds.p, model)
    n = ds.n
    tau_stars = np.empty(cfg.n_boot)
    g_stars = np.empty(cfg.n_boot)
    for b in range(cfg.n_boot):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, b)))
        idx = ds.rank[rng.integers(0, n, size=n)]
        resampled = LabeledDataset(ds.x[idx], ds.y[idx])
        tau_stars[b] = initial(resampled, model)
        g_stars[b] = np.mean(g[idx])
    c_tilde = float(np.cov(tau_stars, g_stars, ddof=1)[0, 1]) / (var_g / n)
    return initial(ds, model) - c_tilde * (ordered_sum(g) / n), c_tilde


def sign_population(beta, sigma):
    """The finite population ``X in {-1, 1}^p`` crossed with ``eps in {-sigma, sigma}``.

    Returns its ``2^(p+1)`` rows as ``(x, y)`` with ``Y = X beta + eps``.  A row
    drawn uniformly has independent Rademacher columns (mean 0, variance 1,
    ``E X_j^4 = 1``) and noise of mean 0 and variance ``sigma^2``.
    """
    b = np.asarray(beta, dtype=float)
    xs, ys = [], []
    for signs in itertools.product((-1.0, 1.0), repeat=len(b)):
        for e in (-sigma, sigma):
            y = e
            for j in range(len(b)):
                y += signs[j] * b[j]
            xs.append(list(signs))
            ys.append(y)
    return np.array(xs), np.array(ys)


def enumerated_moments(x_pop, y_pop, n, statistics):
    """Exact ``{name: (mean, variance)}`` over i.i.d. samples of n population rows.

    Loops over every one of the ``N^n`` ordered samples, each of probability
    ``N^-n``; ``statistics`` maps a ``LabeledDataset`` to ``{name: value}``.
    """
    from varest.model import LabeledDataset

    values = {}
    for rows in itertools.product(range(len(y_pop)), repeat=n):
        idx = list(rows)
        for name, value in statistics(LabeledDataset(x_pop[idx], y_pop[idx])).items():
            values.setdefault(name, []).append(value)
    moments = {}
    for name, vals in values.items():
        mean = math.fsum(vals) / len(vals)
        moments[name] = (mean, math.fsum((v - mean) ** 2 for v in vals) / len(vals))
    return moments
