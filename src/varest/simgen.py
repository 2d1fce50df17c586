"""Synthetic data generation for the simulation study and property tests.

The benchmark design places a fixed share of the signal on a small "strong"
set: ``beta_j^2 = tau2_b / b_size`` on the first ``b_size`` columns and
``(tau2 - tau2_b) / (p - b_size)`` on the rest, all signs positive.  Columns
are i.i.d. with population mean 0 and variance 1; the response is
``Y = X beta + eps`` with Gaussian noise.

Every dataset is a pure function of ``(seed, rep_index)``: the RNG stream is
seeded from that pair alone, with X drawn before eps, so replications can be
generated independently and in parallel, bitwise reproducibly.

Covariate distributions beyond the Gaussian benchmark exercise the fourth
moment terms of the variance formulas:

* ``scaled-t(df)`` — Student t scaled to unit variance; standardized fourth
  moment ``3 (df - 2) / (df - 4)`` (df > 4).
* ``rademacher-mix`` — per entry, an even mixture of a Rademacher sign and a
  standard normal; unit variance with fourth moment 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScenario
from .model import CoefficientVector, CovariateModel, LabeledDataset, check_fields

__all__ = [
    "ScenarioConfig",
    "build_beta",
    "covariate_model_for",
    "fourth_moment_of",
    "generate_dataset",
]

_T_DIST = re.compile(r"^scaled-t\((\d+(?:\.\d+)?)\)$")


def _parse_x_dist(x_dist: str) -> tuple[str, float | None]:
    if x_dist == "gaussian":
        return "gaussian", None
    if x_dist == "rademacher-mix":
        return "rademacher-mix", None
    m = _T_DIST.match(x_dist)
    if m:
        df = float(m.group(1))
        if df <= 4.0:
            raise InvalidScenario("scaled-t needs df > 4 for a finite fourth moment")
        return "scaled-t", df
    raise InvalidScenario(
        f"unknown x_dist {x_dist!r}; use gaussian, scaled-t(df), or rademacher-mix"
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: model size, signal layout, and replication plan."""

    n: int
    p: int
    tau2: float
    tau2_b: float
    sigma2: float = 1.0
    b_size: int = 5
    reps: int = 1
    seed: int = 0
    x_dist: str = "gaussian"

    def __post_init__(self):
        check_fields(self, InvalidScenario)
        if self.seed < 0:
            raise InvalidScenario(f"seed must be nonnegative, got {self.seed}")
        if self.n < 2 or self.p < 1:
            raise InvalidScenario("need n >= 2 and p >= 1")
        if not 0.0 <= self.tau2_b <= self.tau2:
            raise InvalidScenario("need 0 <= tau2_b <= tau2")
        if self.sigma2 < 0.0:
            raise InvalidScenario("sigma2 must be nonnegative")
        if not 0 < self.b_size < self.p:
            raise InvalidScenario("need 0 < b_size < p")
        if self.reps < 1:
            raise InvalidScenario("reps must be >= 1")
        _parse_x_dist(self.x_dist)


def fourth_moment_of(x_dist: str) -> float:
    """Standardized fourth moment ``E[X^4]`` of a generator family."""
    kind, df = _parse_x_dist(x_dist)
    if kind == "gaussian":
        return 3.0
    if kind == "scaled-t":
        return 3.0 * (df - 2.0) / (df - 4.0)
    return 2.0  # rademacher-mix: 0.5 * 1 + 0.5 * 3


def covariate_model_for(cfg: ScenarioConfig) -> CovariateModel:
    """The covariate model matching a scenario's generator."""
    kind, _ = _parse_x_dist(cfg.x_dist)
    return CovariateModel.independent(
        cfg.p, fourth_moment_of(cfg.x_dist), gaussian=(kind == "gaussian")
    )


def build_beta(cfg: ScenarioConfig) -> CoefficientVector:
    """Coefficient vector of the benchmark layout; ``||beta||^2 == tau2``.

    All entries positive: the design fixes only the squared coefficients,
    and the all-positive choice is the one whose pairwise-product sums give
    the single-correction estimator its reported gains.
    """
    strong = math.sqrt(cfg.tau2_b / cfg.b_size)
    weak = math.sqrt((cfg.tau2 - cfg.tau2_b) / (cfg.p - cfg.b_size))
    beta = np.full(cfg.p, weak)
    beta[: cfg.b_size] = strong
    return CoefficientVector(beta=beta)


def _draw_x(rng: np.random.Generator, n: int, p: int, x_dist: str) -> np.ndarray:
    kind, df = _parse_x_dist(x_dist)
    if kind == "gaussian":
        return rng.standard_normal((n, p))
    if kind == "scaled-t":
        return rng.standard_t(df, size=(n, p)) / math.sqrt(df / (df - 2.0))
    use_sign = rng.random((n, p)) < 0.5
    signs = rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
    normals = rng.standard_normal((n, p))
    return np.where(use_sign, signs, normals)


def generate_dataset(
    cfg: ScenarioConfig,
    beta: CoefficientVector,
    rep_index: int,
) -> LabeledDataset:
    """Generate replication ``rep_index`` of a scenario.

    The stream is seeded from ``(cfg.seed, rep_index)`` only, with X drawn
    before the noise vector, so the output is bitwise reproducible and
    independent across replications.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, rep_index)))
    x = _draw_x(rng, cfg.n, cfg.p, cfg.x_dist)
    eps = rng.standard_normal(cfg.n) * math.sqrt(cfg.sigma2)
    y = x @ beta.beta + eps
    return LabeledDataset(x=x, y=y)
