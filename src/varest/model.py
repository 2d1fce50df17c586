"""Data model: known covariate distribution, observed data, and the W matrix.

The estimators all assume the covariates have been whitened to mean zero and
identity covariance using the *known* distribution of X.  This module holds
what they read of that distribution (:class:`CovariateModel`: the whitened
fourth moments and the independence and Gaussian flags), the raw mean and
covariance that whitening removes (:class:`Whitening`, applied by
:func:`whiten`), the observed data container (:class:`LabeledDataset`), and
the per-observation products ``W[i, j] = X[i, j] * Y[i]`` (:class:`WMatrix`)
on which every estimator downstream is built.

Every estimator is a U-statistic over distinct observation tuples, so it is
symmetric in the rows.  :class:`LabeledDataset` stores its rows in a
canonical order that depends only on the multiset of rows, so every
reduction downstream is a plain numpy sum whose result, bit for bit, does not
depend on the order in which the caller supplied the rows.

All types are immutable after construction (arrays are marked read-only) and
every operation is a pure function, so instances are safe to share across
threads and worker processes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    NearSingularCovariance,
    TooFewObservations,
)
from .kernels import ordered_col_sums, ordered_sum

__all__ = [
    "CoefficientVector",
    "CovariateModel",
    "LabeledDataset",
    "SINGULARITY_RTOL",
    "WMatrix",
    "Whitening",
    "build_w",
    "check_fields",
    "column_set",
    "float_array",
    "sample_variance_y",
    "whiten",
]

# Relative eigenvalue floor below which a covariance is treated as singular.
SINGULARITY_RTOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


# Annotation -> the types a field's value may have, and how an error names them.
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string"), "bool": ((bool, np.bool_), "true or false")}


def check_fields(obj, error: type[Exception]) -> None:
    """Raise ``error`` unless each field of the dataclass ``obj`` holds its annotated type.

    Annotations ``int``, ``float``, ``str`` or ``bool``, optionally ``| None``,
    are checked (as strings: ``from __future__ import annotations``); others
    are not.  A bool is neither an int nor a float; a float must be finite.
    """
    for f in fields(obj):
        kind, value = f.type.removesuffix(" | None"), getattr(obj, f.name)
        if kind not in _FIELD_KINDS or (value is None and kind != f.type):
            continue
        types, noun = _FIELD_KINDS[kind]
        if not isinstance(value, types) or (kind != "bool" and isinstance(value, bool)):
            raise error(f"{f.name} must be {noun}{' or None' * (kind != f.type)}, got {value!r}")
        try:
            finite = kind != "float" or math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise error(f"{f.name} must be finite, got {value!r}")


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, the one decoder of every numeric array a value type takes.

    A nested list or tuple must hold numbers only: a bool, a string or
    anything else that numpy would convert or wrap raises ``InvalidInput``,
    as does an ndarray of any dtype but integer or float.  An ndarray is not
    walked or copied.  Every entry must be finite.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                raise InvalidInput(f"{name} must hold numbers, got an array of {item.dtype}")
        elif isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise InvalidInput(f"{name} must hold numbers, got {item!r}")
    try:
        array = np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # a ragged list, or an int too large
        raise InvalidInput(f"{name} must hold numbers: {exc}") from exc
    finite = np.isfinite(array)
    if not finite.all():
        raise InvalidInput(f"{name} must be finite, got {float(array[~finite].flat[0])}")
    return array


@dataclass(frozen=True)
class CovariateModel:
    """The known distribution of the whitened covariate vector X.

    E X = 0 and Cov X = I by construction; the raw mean and covariance that
    whitening removes are a :class:`Whitening`, which no estimator reads.

    Parameters
    ----------
    fourth_moments : array of shape (p,)
        ``E[X_j^4]`` per column *after* whitening.  Each entry must be >= 1
        (Cauchy-Schwarz, given unit second moments).
    independent_columns : bool
        Whether the whitened columns are fully independent (not merely
        uncorrelated).  Required by the single-zero-estimator path and the
        analytic moment matrix.
    gaussian : bool
        Whether X is Gaussian; forces fourth moments of exactly 3.
    """

    fourth_moments: np.ndarray
    independent_columns: bool = True
    gaussian: bool = False

    def __post_init__(self):
        check_fields(self, InvalidInput)
        m4 = float_array(self.fourth_moments, "fourth_moments")
        if m4.ndim != 1:
            raise DimensionMismatch(f"fourth_moments must be a vector, got shape {m4.shape}")
        if np.any(m4 < 1.0):
            raise InvalidInput("fourth moments must be >= 1 after whitening")
        if self.gaussian and not np.all(m4 == 3.0):
            raise InvalidInput("a Gaussian model must have fourth moments equal to 3")
        object.__setattr__(self, "fourth_moments", _readonly(m4))

    @property
    def p(self) -> int:
        return self.fourth_moments.shape[0]

    @classmethod
    def standard_gaussian(cls, p: int) -> "CovariateModel":
        """N(0, I_p) covariates."""
        return cls.independent(p, 3.0, gaussian=True)

    @classmethod
    def independent(cls, p: int, fourth_moment: float, gaussian: bool = False) -> "CovariateModel":
        """Whitened independent columns with a common fourth moment."""
        return cls(np.full(p, float_array(fourth_moment, "fourth_moment")), gaussian=gaussian)


@dataclass(frozen=True)
class Whitening:
    """The raw covariates' known mean (p,) and covariance (p, p), which :func:`whiten` removes.

    The covariance must be symmetric, and it is checked by one rule when the
    whitening is built: one symmetric eigendecomposition, which raises
    :class:`NearSingularCovariance` unless every eigenvalue exceeds
    ``SINGULARITY_RTOL`` times the largest, and which gives
    ``sqrt_inverse_covariance``, the covariance's unique symmetric inverse
    square root.  ``None`` stands for the identity: no p x p array is held,
    ``sqrt_inverse_covariance`` is None, and :func:`whiten` only subtracts
    the mean.
    """

    mean: np.ndarray
    covariance: np.ndarray | None = None
    sqrt_inverse_covariance: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(float_array(self.mean, "mean"))
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        object.__setattr__(self, "mean", _readonly(mean))
        if self.covariance is None:
            return
        cov = float_array(self.covariance, "covariance")
        p = mean.shape[0]
        if cov.shape != (p, p):
            raise DimensionMismatch(f"covariance must be {p}x{p}, got {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise InvalidInput("covariance must be symmetric")
        object.__setattr__(self, "covariance", _readonly(0.5 * (cov + cov.T)))
        eigvals, eigvecs = np.linalg.eigh(self.covariance)
        if eigvals[0] <= SINGULARITY_RTOL * eigvals[-1]:
            raise NearSingularCovariance(
                f"covariance has smallest eigenvalue {eigvals[0]:g}, not above "
                f"{SINGULARITY_RTOL:g} * {eigvals[-1]:g}"
            )
        root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        root.setflags(write=False)
        object.__setattr__(self, "sqrt_inverse_covariance", root)

    @property
    def p(self) -> int:
        return self.mean.shape[0]


def _canonical_rows(x: np.ndarray, y: np.ndarray):
    """``(x, y)`` in the row order that depends only on the multiset of rows, and that order.

    Rows sort by the bytes of their C-contiguous ``x`` row; rows with
    byte-identical ``x`` sort by ``y``'s value and then by ``y``'s bit
    pattern (which puts +0.0 before -0.0).  Scaling ``y`` by a power of two
    keeps the order.  Returns new arrays ``x[order]``, ``y[order]`` and
    ``order``.
    """
    n, p = x.shape
    row_bytes = np.dtype((np.void, 8 * p))
    order = np.argsort(x.view(row_bytes).ravel(), kind="stable") if p else np.arange(n)
    x = x[order]
    rows = x.view(row_bytes).ravel() if p else np.zeros(n, dtype=np.int8)
    new_row = rows[1:] != rows[:-1]
    if not new_row.all():
        # Reordering within a run of byte-identical x rows leaves x as it is.
        group = np.concatenate(([0], np.cumsum(new_row)))
        y_in_order = y[order]
        order = order[np.lexsort((y_in_order.view(np.uint64), y_in_order, group))]
    return x, y[order], order


@dataclass(frozen=True)
class LabeledDataset:
    """Whitened design matrix X (n x p) plus the response vector Y (n).

    The rows are stored in a canonical order (:func:`_canonical_rows`), not
    in the order given: two datasets that hold the same multiset of rows have
    byte-identical ``x`` and ``y``.  ``rank[i]`` is the stored position of
    the caller's row ``i``, so ``x[rank]`` gives the rows back in the
    caller's order.
    """

    x: np.ndarray
    y: np.ndarray
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = float_array(self.x, "x"), float_array(self.y, "y")
        if x.ndim != 2:
            raise DimensionMismatch("x must be an n x p matrix")
        if y.shape != (x.shape[0],):
            raise DimensionMismatch(
                f"y must have length {x.shape[0]}, got shape {y.shape}"
            )
        if x.shape[0] < 2:
            raise TooFewObservations("a dataset needs n >= 2 observations")
        # The gathered arrays are the dataset's own copies of the caller's.
        x, y, order = _canonical_rows(np.ascontiguousarray(x), y)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        for name, value in (("x", x), ("y", y), ("rank", rank)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def center_y(self) -> "LabeledDataset":
        """Return a copy with the sample mean subtracted from Y.

        Zero intercept is a model assumption; centering enforces it
        in-sample.  Off by default everywhere (the simulation design
        generates zero-intercept data).  The copy's ``rank`` still maps the
        caller's original rows.
        """
        ybar = ordered_sum(self.y) / self.n
        return LabeledDataset(x=self.x[self.rank], y=(self.y - ybar)[self.rank])


@dataclass(frozen=True)
class CoefficientVector:
    """A coefficient vector beta."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(float_array(self.beta, "beta"))
        if b.ndim != 1:
            raise DimensionMismatch("beta must be a vector")
        object.__setattr__(self, "beta", _readonly(b))

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    @property
    def tau2(self) -> float:
        """Signal level ||beta||^2."""
        return ordered_sum(self.beta * self.beta)


@dataclass(frozen=True)
class WMatrix:
    """Per-observation products ``w[i, j] = x[i, j] * y[i]`` with cached sums."""

    w: np.ndarray
    column_sums: np.ndarray
    column_square_sums: np.ndarray

    def __post_init__(self):
        self.w.setflags(write=False)
        self.column_sums.setflags(write=False)
        self.column_square_sums.setflags(write=False)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def p(self) -> int:
        return self.w.shape[1]


def whiten(x_raw, whitening: Whitening) -> np.ndarray:
    """Whiten raw covariate rows with their known mean and covariance.

    Each row is mapped to ``Sigma^{-1/2} (x - mu)`` using the symmetric
    square root, so the output rows have identity population covariance; an
    identity covariance only subtracts the mean.  Covariates that are already
    whitened need no :class:`Whitening` at all.
    """
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != whitening.p:
        raise DimensionMismatch(f"x_raw must be n x {whitening.p}, got {x.shape}")
    root = whitening.sqrt_inverse_covariance
    return x - whitening.mean if root is None else (x - whitening.mean) @ root.T


def build_w(ds: LabeledDataset) -> WMatrix:
    """Build the W matrix ``w[i, j] = x[i, j] * y[i]`` with cached column sums."""
    w = ds.x * ds.y[:, None]
    column_sums, column_square_sums = ordered_col_sums(w)
    return WMatrix(w=w, column_sums=column_sums, column_square_sums=column_square_sums)


def sample_variance_y(y) -> float:
    """Unbiased sample variance of the responses, ``(n-1)^{-1} sum (Y - Ybar)^2``."""
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = yv.shape[0]
    if n < 2:
        raise TooFewObservations("sample variance needs n >= 2")
    ybar = ordered_sum(yv) / n
    d = yv - ybar
    return ordered_sum(d * d) / (n - 1)


def column_set(b_set, p: int) -> list[int]:
    """The integer column indices of ``b_set``, unique and sorted, each in ``range(p)``.

    A float or bool entry raises ``InvalidInput``; a negative index or one of
    at least p raises ``IndexOutOfRange``.
    """
    indices = set()
    for j in b_set:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise InvalidInput(f"column indices must be integers, got {j!r}")
        if not 0 <= j < p:
            raise IndexOutOfRange(f"column index {j} is outside range(0, {p})")
        indices.add(int(j))
    return sorted(indices)
