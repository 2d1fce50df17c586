"""Closed-form kernels for distinct-index U-statistic sums.

The estimators in this package are defined as nested sums over tuples of
*distinct* observation indices.  Evaluated literally those sums cost O(n^2) or
O(n^3); every kernel here reduces them to O(n) or O(n^2) algebra over plain
moment sums, and the test suite pins each one against its brute-force loop.

Reduction discipline
--------------------
All reductions over observations go through :func:`ordered_sum` /
:func:`ordered_col_sums`, which sort the addends into a canonical order
before a pairwise (numpy) summation.  Two consequences the rest of the
library relies on:

* results are bitwise independent of the order in which observations are
  presented, so row-permutation invariance holds exactly;
* accumulation error stays at the pairwise-summation level even for the
  ~1e5 mixed-sign terms that show up at n = p = 400.

A sum within one row (over columns) is row-local and needs no sorting, but
it uses numpy's own loops (``np.einsum``, ``np.sum(axis=1)``), never a BLAS
``@``: a BLAS matrix-vector product may block rows differently by their
position, which makes a row's result depend on where the row sits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, TooFewObservations

__all__ = [
    "GramMatrix",
    "chain_sum_distinct",
    "gram",
    "offdiag_square_sum",
    "ordered_col_sums",
    "ordered_sum",
    "pair_sum_distinct",
    "triple_sum_distinct",
]


def ordered_sum(values) -> float:
    """Sum a 1-D array in a canonical (sorted ascending) order.

    numpy's reduction over a contiguous last axis is pairwise, so sorting
    first makes the result a pure function of the multiset of addends.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    return float(np.sum(np.sort(a)))


def ordered_col_sums(a) -> np.ndarray:
    """Per-column sums of a 2-D array, each in canonical order.

    Each column is brought into a contiguous row, sorted in place, and
    reduced pairwise, keeping the result independent of the row order.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    b = np.array(m.T, order="C")  # always a copy: the sort below is in place
    b.sort(axis=-1)
    return np.sum(b, axis=-1)


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


def pair_sum_distinct(u, v) -> float:
    """Evaluate ``sum_{i1 != i2} u[i1] * v[i2]`` in O(n).

    Uses the identity ``(sum u)(sum v) - sum_i u[i] v[i]``.
    """
    uv = _as_vector(u, "u")
    vv = _as_vector(v, "v")
    if uv.shape[0] != vv.shape[0]:
        raise LengthMismatch(f"u has length {uv.shape[0]}, v has length {vv.shape[0]}")
    if uv.shape[0] < 2:
        raise TooFewObservations("pair_sum_distinct needs n >= 2")
    return ordered_sum(uv) * ordered_sum(vv) - ordered_sum(uv * vv)


def triple_sum_distinct(u, v, w) -> float:
    """Evaluate ``sum over pairwise-distinct (i1, i2, i3) of u[i1] v[i2] w[i3]``.

    Closed form in O(n):

        S_u S_v S_w - S_uv S_w - S_uw S_v - S_vw S_u + 2 S_uvw

    with ``S_ab = sum_i a[i] b[i]``.
    """
    uv = _as_vector(u, "u")
    vv = _as_vector(v, "v")
    wv = _as_vector(w, "w")
    n = uv.shape[0]
    if vv.shape[0] != n or wv.shape[0] != n:
        raise LengthMismatch("u, v, w must have equal lengths")
    if n < 3:
        raise TooFewObservations("triple_sum_distinct needs n >= 3")
    s_u, s_v, s_w = ordered_sum(uv), ordered_sum(vv), ordered_sum(wv)
    s_uv = ordered_sum(uv * vv)
    s_uw = ordered_sum(uv * wv)
    s_vw = ordered_sum(vv * wv)
    s_uvw = ordered_sum(uv * vv * wv)
    return s_u * s_v * s_w - s_uv * s_w - s_uw * s_v - s_vw * s_u + 2.0 * s_uvw


@dataclass(frozen=True)
class GramMatrix:
    """Dense Gram matrix of the rows of a W matrix.

    ``g[i1, i2] = sum_j W[i1, j] * W[i2, j]``.  Two read-only row statistics
    of the off-diagonal are kept for the kernels, each row summed in
    canonical order: ``row_sums_offdiag[i] = sum_{i' != i} g[i, i']`` and
    ``row_square_sums_offdiag[i] = sum_{i' != i} g[i, i']^2``.
    """

    g: np.ndarray
    row_sums_offdiag: np.ndarray
    row_square_sums_offdiag: np.ndarray

    def __post_init__(self):
        self.g.setflags(write=False)
        self.row_sums_offdiag.setflags(write=False)
        self.row_square_sums_offdiag.setflags(write=False)

    @property
    def n(self) -> int:
        return self.g.shape[0]


def gram(w) -> GramMatrix:
    """Build the row Gram matrix of ``w`` (a WMatrix or plain 2-D array).

    Cost O(n^2 p).  The product is symmetrized exactly so downstream kernels
    may rely on ``g == g.T``.
    """
    rows = np.asarray(getattr(w, "w", w), dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected an n x p matrix")
    n = rows.shape[0]
    if n < 2:
        raise TooFewObservations("gram needs n >= 2")
    g = rows @ rows.T
    g = 0.5 * (g + g.T)
    off = g.copy()
    np.fill_diagonal(off, 0.0)
    # Each row is sorted in place, summed, squared and sorted again: a
    # row's sum is then a pure function of its multiset of entries.
    off.sort(axis=1)
    row_sums = np.sum(off, axis=1)
    np.square(off, out=off)
    off.sort(axis=1)
    row_square_sums = np.sum(off, axis=1)
    return GramMatrix(g=g, row_sums_offdiag=row_sums, row_square_sums_offdiag=row_square_sums)


def offdiag_square_sum(g: GramMatrix) -> float:
    """Evaluate ``sum_{i1 != i2} g[i1, i2]^2`` (unnormalized)."""
    if g.n < 2:
        raise TooFewObservations("offdiag_square_sum needs n >= 2")
    return ordered_sum(g.row_square_sums_offdiag)


def chain_sum_distinct(g: GramMatrix) -> float:
    """Evaluate ``sum over pairwise-distinct (i1, i2, i3) of g[i1,i2] g[i2,i3]``.

    O(n) via ``sum_{i2} (r_{i2}^2 - sum_{i1 != i2} g[i1,i2]^2)`` from the
    Gram's off-diagonal row sums ``r`` and row square sums.
    """
    if g.n < 3:
        raise TooFewObservations("chain_sum_distinct needs n >= 3")
    r = g.row_sums_offdiag
    return ordered_sum(r * r - g.row_square_sums_offdiag)
