"""Closed-form kernels for distinct-index U-statistic sums.

The estimators in this package are defined as nested sums over tuples of
*distinct* observation indices.  Evaluated literally those sums cost O(n^2) or
O(n^3); every kernel here reduces them to O(n) or O(n^2) algebra over plain
moment sums, and the test suite pins each one against its brute-force loop.

Reduction discipline
--------------------
A :class:`~varest.model.LabeledDataset` stores its rows in a canonical order
that depends only on the multiset of rows, and every array reduced here is
in that order.  So every reduction over observations is a plain numpy sum,
BLAS products included, and its result is a pure function of the multiset
of rows: bitwise independent of the order in which the caller gave them.
Nothing here sorts.

Accuracy is that of numpy's own loops.  A 1-D sum (:func:`ordered_sum`) and
a sum along a contiguous row are pairwise, with error growing like
``log n``; a column sum (:func:`ordered_col_sums`) adds the rows one after
another, with error growing like ``n``.

:func:`gram`, the package's one n x n reduction, keeps only two row
statistics of its product.  A dataset forms one product, ``gram(X, Y)``:
``t_full`` reduces it as it is, and the tilde variances read W's statistics
from it with :meth:`GramMatrix.rows_scaled` by Y, since ``W W' = diag(Y) X X'
diag(Y)``.  Products within one row (over columns) use ``np.einsum``, which
reduces each row by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, LengthMismatch, TooFewObservations

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
    """Sum a 1-D array in the order given (numpy's pairwise summation).

    Every caller in this package passes addends in an order that depends
    only on its inputs: the dataset's canonical row order, column order, or
    (in ``summarize``) sorted replication values.
    """
    return float(np.sum(np.asarray(values, dtype=np.float64)))


def ordered_col_sums(a) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sums and square sums of a 2-D array, rows added in the order given.

    Returns ``(sums, square_sums)`` with ``sums[j] = sum_i a[i, j]`` and
    ``square_sums[j] = sum_i a[i, j]^2``.  No copy of ``a`` is made.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput("expected a 2-D array")
    return np.sum(m, axis=0), np.einsum("ij,ij->j", m, m)


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional")
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
    # Each row of the stack is reduced exactly as ordered_sum reduces it alone.
    moments = np.stack([uv, vv, wv, uv * vv, uv * wv, vv * wv, uv * vv * wv])
    s_u, s_v, s_w, s_uv, s_uw, s_vw, s_uvw = np.sum(moments, axis=-1).tolist()
    return s_u * s_v * s_w - s_uv * s_w - s_uw * s_v - s_vw * s_u + 2.0 * s_uvw


@dataclass(frozen=True)
class GramMatrix:
    """The two off-diagonal row statistics of a (column-weighted) Gram matrix.

    With ``g[i1, i2] = c[i2] sum_j R[i1, j] R[i2, j]`` for rows R and column
    weights c (all ones, or Y when R is a dataset's X):
    ``row_sums_offdiag[i] = sum_{i' != i} g[i, i']`` and
    ``row_square_sums_offdiag[i] = sum_{i' != i} g[i, i']^2``.  The n x n
    matrix itself is not kept.
    """

    row_sums_offdiag: np.ndarray
    row_square_sums_offdiag: np.ndarray

    def __post_init__(self):
        self.row_sums_offdiag.setflags(write=False)
        self.row_square_sums_offdiag.setflags(write=False)

    @property
    def n(self) -> int:
        return self.row_sums_offdiag.shape[0]

    def rows_scaled(self, c) -> GramMatrix:
        """The statistics of ``diag(c) g``: row i scaled by ``c[i]``.

        ``gram(X, Y).rows_scaled(Y)`` is W's Gram matrix, ``W W' = diag(Y) X X' diag(Y)``:
        row sums times ``c``, row square sums times ``c^2``.
        """
        c = _as_vector(c, "c")
        if c.shape[0] != self.n:
            raise LengthMismatch(f"c has length {c.shape[0]}, n = {self.n}")
        return GramMatrix(c * self.row_sums_offdiag, c * (c * self.row_square_sums_offdiag))


def gram(rows, weights=None) -> GramMatrix:
    """The off-diagonal row statistics of ``rows @ rows.T``, column k scaled by ``weights[k]``.

    ``rows`` is an n x p array; ``weights``, when given, is a length-n
    vector.  Cost O(n^2 p).  The product is scaled and its diagonal zeroed
    in the buffer it returns, and its rows are reduced there, so one n x n
    array is held while it runs and none after.  A dataset calls it once,
    as ``gram(X, Y)``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise InvalidInput("expected an n x p matrix")
    if rows.shape[0] < 2:
        raise TooFewObservations("gram needs n >= 2")
    if weights is not None:
        weights = _as_vector(weights, "weights")
        if weights.shape[0] != rows.shape[0]:
            raise LengthMismatch(f"weights has length {weights.shape[0]}, n = {rows.shape[0]}")
    g = rows @ rows.T
    if weights is not None:
        g *= weights
    np.fill_diagonal(g, 0.0)
    row_sums = np.sum(g, axis=1)
    g *= g
    return GramMatrix(row_sums, np.sum(g, axis=1))


def offdiag_square_sum(g: GramMatrix) -> float:
    """Evaluate ``sum_{i1 != i2} g[i1, i2]^2`` (unnormalized)."""
    if g.n < 2:
        raise TooFewObservations("offdiag_square_sum needs n >= 2")
    return ordered_sum(g.row_square_sums_offdiag)


def chain_sum_distinct(g: GramMatrix) -> float:
    """Evaluate ``sum over pairwise-distinct (i1, i2, i3) of g[i2,i1] g[i2,i3]``.

    O(n) via ``sum_{i2} (r_{i2}^2 - sum_{i1 != i2} g[i2,i1]^2)`` from the off-diagonal
    row sums ``r`` and row square sums.  Unweighted, g is symmetric and this is a chain.
    """
    if g.n < 3:
        raise TooFewObservations("chain_sum_distinct needs n >= 3")
    r = g.row_sums_offdiag
    return ordered_sum(r * r - g.row_square_sums_offdiag)
