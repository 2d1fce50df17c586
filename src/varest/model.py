"""Data model: known covariate distribution, observed data, and the W matrix.

The estimators all assume the covariates have been whitened to mean zero and
identity covariance using the *known* distribution of X.  This module holds
that known distribution (:class:`CovariateModel`), the whitening transform,
the observed data container (:class:`LabeledDataset`), and the per-observation
products ``W[i, j] = X[i, j] * Y[i]`` (:class:`WMatrix`) on which every
estimator downstream is built.

All types are immutable after construction (arrays are marked read-only) and
every operation is a pure function, so instances are safe to share across
threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NearSingularCovariance, TooFewObservations
from .kernels import ordered_col_sums, ordered_sum

__all__ = [
    "CoefficientVector",
    "CovariateModel",
    "LabeledDataset",
    "SINGULARITY_RTOL",
    "WMatrix",
    "build_w",
    "sample_variance_y",
    "whiten",
]

# Relative eigenvalue floor below which a covariance is treated as singular.
SINGULARITY_RTOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CovariateModel:
    """The known distribution of the covariate vector X.

    Parameters
    ----------
    mean : array of shape (p,)
        Population mean of the raw covariates.
    covariance : array of shape (p, p)
        Population covariance of the raw covariates; must be symmetric
        positive definite.
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

    mean: np.ndarray
    covariance: np.ndarray
    fourth_moments: np.ndarray
    independent_columns: bool = True
    gaussian: bool = False
    _sqrt_inv_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.covariance, dtype=np.float64)
        p = mean.shape[0]
        if cov.shape != (p, p):
            raise DimensionMismatch(f"covariance must be {p}x{p}, got {cov.shape}")
        m4 = np.asarray(self.fourth_moments, dtype=np.float64)
        if m4.ndim == 0:
            m4 = np.full(p, float(m4))
        if m4.shape != (p,):
            raise DimensionMismatch(f"fourth_moments must have length {p}")
        if not all(np.all(np.isfinite(a)) for a in (mean, cov, m4)):
            raise ValueError("mean, covariance and fourth moments must be finite")
        # An exact identity is symmetric and positive definite, and symmetrising
        # it is a no-op: skip both checks and the symmetrisation.
        identity_cov = np.array_equal(cov, np.eye(p))
        if not identity_cov and not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if np.any(m4 < 1.0):
            raise ValueError("fourth moments must be >= 1 after whitening")
        if self.gaussian and not np.all(m4 == 3.0):
            raise ValueError("a Gaussian model must have fourth moments equal to 3")
        object.__setattr__(self, "mean", _readonly(mean))
        if not identity_cov:
            cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "covariance", _readonly(cov))
        object.__setattr__(self, "fourth_moments", _readonly(m4))
        # Positive definiteness is part of the construction contract.
        if not identity_cov:
            eigvals = np.linalg.eigvalsh(self.covariance)
            if eigvals[0] <= 0.0:
                raise NearSingularCovariance(
                    f"covariance has a non-positive eigenvalue ({eigvals[0]:g})"
                )

    @property
    def p(self) -> int:
        return self.mean.shape[0]

    @property
    def is_identity(self) -> bool:
        """True when the raw distribution is already whitened (mu=0, Sigma=I)."""
        return bool(
            np.array_equal(self.mean, np.zeros(self.p))
            and np.array_equal(self.covariance, np.eye(self.p))
        )

    @classmethod
    def standard_gaussian(cls, p: int) -> "CovariateModel":
        """N(0, I_p) covariates."""
        return cls.independent(p, 3.0, gaussian=True)

    @classmethod
    def independent(cls, p: int, fourth_moment: float, gaussian: bool = False) -> "CovariateModel":
        """Whitened independent columns with a common fourth moment."""
        return cls(
            mean=np.zeros(p),
            covariance=np.eye(p),
            fourth_moments=np.full(p, float(fourth_moment)),
            independent_columns=True,
            gaussian=gaussian,
        )

    def sqrt_inverse_covariance(self) -> np.ndarray:
        """The unique symmetric inverse square root of the covariance.

        Computed once per model via symmetric eigendecomposition and cached.
        Raises :class:`NearSingularCovariance` when any eigenvalue falls
        below ``SINGULARITY_RTOL`` times the largest.
        """
        cached = self._sqrt_inv_cache.get("m")
        if cached is not None:
            return cached
        eigvals, eigvecs = np.linalg.eigh(self.covariance)
        if eigvals[0] <= SINGULARITY_RTOL * eigvals[-1]:
            raise NearSingularCovariance(
                f"smallest eigenvalue {eigvals[0]:g} below tolerance "
                f"{SINGULARITY_RTOL:g} * {eigvals[-1]:g}"
            )
        m = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        self._sqrt_inv_cache["m"] = m
        return m


@dataclass(frozen=True)
class LabeledDataset:
    """Whitened design matrix X (n x p) plus the response vector Y (n)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionMismatch("x must be an n x p matrix")
        if y.shape != (x.shape[0],):
            raise DimensionMismatch(
                f"y must have length {x.shape[0]}, got shape {y.shape}"
            )
        if x.shape[0] < 2:
            raise TooFewObservations("a dataset needs n >= 2 observations")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must all be finite")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))

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
        generates zero-intercept data).
        """
        ybar = ordered_sum(self.y) / self.n
        return LabeledDataset(x=self.x, y=self.y - ybar)


@dataclass(frozen=True)
class CoefficientVector:
    """A coefficient vector beta."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        if b.ndim != 1:
            raise DimensionMismatch("beta must be a vector")
        if not np.all(np.isfinite(b)):
            raise ValueError("beta must be finite")
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


def whiten(x_raw, model: CovariateModel) -> np.ndarray:
    """Whiten raw covariate rows with the model's known mean and covariance.

    Each row is mapped to ``Sigma^{-1/2} (x - mu)`` using the symmetric
    square root, so the output rows have identity population covariance
    under the model.  Whitening already-whitened data (mu = 0, Sigma = I)
    is the identity map, bitwise.
    """
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.p:
        raise DimensionMismatch(f"x_raw must be n x {model.p}, got {x.shape}")
    if model.is_identity:
        return x.copy()
    m = model.sqrt_inverse_covariance()
    return (x - model.mean) @ m.T


def build_w(ds: LabeledDataset) -> WMatrix:
    """Build the W matrix ``w[i, j] = x[i, j] * y[i]`` with cached column sums."""
    w = ds.x * ds.y[:, None]
    return WMatrix(
        w=w,
        column_sums=ordered_col_sums(w),
        column_square_sums=ordered_col_sums(w * w),
    )


def sample_variance_y(y) -> float:
    """Unbiased sample variance of the responses, ``(n-1)^{-1} sum (Y - Ybar)^2``."""
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = yv.shape[0]
    if n < 2:
        raise TooFewObservations("sample variance needs n >= 2")
    ybar = ordered_sum(yv) / n
    d = yv - ybar
    return ordered_sum(d * d) / (n - 1)
