"""Bootstrap coefficient estimation for single zero-estimator corrections.

Any estimator of tau^2 can in principle be improved by subtracting
``c * g_n`` for the pairwise-product zero-estimator g_n, but the optimal c
depends on the covariance between the estimator and g_n, which has no closed
form for estimators defined only algorithmically.  The empirical estimator
approximates that covariance from bootstrap resamples:

1. compute the initial estimate and g_n on the full data (the dataset holds
   W and ``sigma_Y^2``, the caller's ``DatasetStats`` g);
2. for b = 1..B, resample n rows with replacement and recompute both;
3. ``c = Cov-hat(initial*, g_n*) / Var(g_n)`` with Var(g_n) = Var(g_i)/n
   known analytically from the covariate model;
4. return ``initial - c * g_n`` (both full-data values).

Resample b's row indices are numpy's stream for it:
``default_rng(SeedSequence((seed, b))).integers(0, n, n)``.  They are
reproduced a block of resamples at a time.  The ``SeedSequence`` hash of
every b runs as uint32 array arithmetic, one ``PCG64`` per resample turns its
state into ``ceil(n/2)`` raw 64-bit outputs, and their 32-bit halves, low
first, become indices by Lemire's multiply-shift (Lemire 2019), as
``integers`` computes them.  A resample where a draw would hit Lemire's
rejection step, about one draw in 5e7 at n = 400, is redrawn by numpy's own
call.  The indices are positions in the caller's row order; ``ds.rank`` maps
them to the dataset's canonical rows, so a resample holds the same rows
whatever order the dataset stores them in.

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
from .model import CovariateModel, LabeledDataset, check_fields

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
        check_fields(self, InvalidInput)
        if self.n_boot < 2:
            raise InvalidInput(f"empirical covariance needs n_boot >= 2, got {self.n_boot}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be nonnegative, got {self.seed}")
        initial = self.initial_estimator
        if not (callable(initial) or (isinstance(initial, str) and initial == "naive")):
            raise InvalidInput(
                f"initial estimator must be 'naive' or a callable, got {initial!r}")


def _resample_rows(n: int, cfg: BootstrapConfig, b: int) -> np.ndarray:
    """Row indices of resample b, drawn from its own ``SeedSequence((seed, b))``."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, b)))
    return rng.integers(0, n, size=n)


# numpy's SeedSequence hash: a pool of four uint32 words, filled and mixed by
# one multiplicative hash and read out by a second.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int, at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_states(seed: int, b: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, b_k)).generate_state(4, np.uint64)`` for every uint32 ``b_k``.

    The entropy is the seed's uint32 words followed by ``b_k``; every step of
    the hash is a uint32 operation, so it runs over the whole vector at once.
    """
    words = [np.full(len(b), w, dtype=np.uint32) for w in _uint32_words(int(seed))] + [b]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(len(b), dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # uint32 words 2j and 2j + 1 are the low and high halves of uint64 word j
    return np.stack([lo | hi << 32 for lo, hi in zip(state[0::2], state[1::2])], axis=1)


def _raw_streams(states: np.ndarray, size: int) -> np.ndarray:
    """``size`` raw outputs of one ``PCG64`` per row of ``states``, which numpy seeds.

    numpy.random is imported here, not with the module, so a process that
    never bootstraps, such as ``varest estimate`` without ``empirical``, does
    not load it.
    """
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        """Hands ``PCG64`` its ``generate_state(4, np.uint64)``, computed in advance."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    raw = np.empty((len(states), size), dtype=np.uint64)
    for k, state in enumerate(states):
        raw[k] = PCG64(FixedState(state)).random_raw(size)
    return raw


def _resample_block(n: int, cfg: BootstrapConfig, start: int, count: int) -> np.ndarray:
    """Row indices of resamples ``start .. start + count - 1``, one row each.

    Row k equals ``_resample_rows(n, cfg, start + k)`` bit for bit.
    ``integers`` maps each uint32 draw u to ``(u n) >> 32`` and redraws when
    ``(u n) mod 2^32`` falls below ``(2^32 - n) mod n`` (Lemire 2019); a
    resample that meets such a draw is redrawn by ``_resample_rows``, as is
    every resample when n or b leaves the uint32 range.
    """
    if n >= 1 << 32 or start + count > 1 << 32:
        return np.stack([_resample_rows(n, cfg, b) for b in range(start, start + count)])
    states = _seed_states(cfg.seed, np.arange(start, start + count, dtype=np.uint32))
    raw = _raw_streams(states, (n + 1) // 2)
    # numpy's next_uint32 hands out each raw output's low half, then its high half
    draws = np.empty((count, n), dtype=np.uint64)
    draws[:, 0::2] = raw & _MASK32
    draws[:, 1::2] = raw[:, : n // 2] >> 32
    del raw  # freed before the rejection test allocates a block of its own
    draws *= n
    rejected = np.flatnonzero(((draws & _MASK32) < (2**32 - n) % n).any(axis=1))
    draws >>= 32
    rows = draws.view(np.int64)
    for k in rejected:
        rows[k] = _resample_rows(n, cfg, start + int(k))
    return rows


def _block_rows(n: int, cfg: BootstrapConfig) -> int:
    """Resamples per block: at most ``_BLOCK_ELEMS`` row indices, and at least one resample."""
    return max(1, min(cfg.n_boot, _BLOCK_ELEMS // n))


def _resample_blocks(n: int, cfg: BootstrapConfig):
    """``(start, rows)`` for every block of resamples, in resample order."""
    per_block = _block_rows(n, cfg)
    for start in range(0, cfg.n_boot, per_block):
        yield start, _resample_block(n, cfg, start, min(per_block, cfg.n_boot - start))


def _naive_stars(
    w: np.ndarray, rank: np.ndarray, cfg: BootstrapConfig, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``naive*`` and ``g_n*`` of every resample, from blocks of the count matrix."""
    n = w.shape[0]
    r = _rowsq(w)
    counts = np.empty((_block_rows(n, cfg), n))
    tau_stars = np.empty(cfg.n_boot)
    g_stars = np.empty(cfg.n_boot)
    for start, rows in _resample_blocks(n, cfg):
        block = counts[: len(rows)]
        # one bincount over the block: resample k's stored rows land at k n + row;
        # the indices are dropped first, so no more than two blocks of temporaries live
        slots = rank[rows]
        del rows
        slots += n * np.arange(len(block))[:, None]
        block[...] = np.bincount(slots.ravel(), minlength=block.size).reshape(block.shape)
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
    for start, block in _resample_blocks(ds.n, cfg):
        for b, positions in enumerate(block, start):
            rows = ds.rank[positions]
            resampled = LabeledDataset(ds.x[rows], ds.y[rows])
            try:
                tau_stars[b] = initial(resampled, model)
            except Exception as exc:  # noqa: BLE001 - attributed and re-raised
                raise InitialEstimatorFailure(b, exc) from exc
            g_stars[b] = np.mean(g[rows])
    return tau_stars, g_stars


def empirical_estimator(stats: DatasetStats, cfg: BootstrapConfig) -> EstimateReport:
    """Run the bootstrap-coefficient correction around an initial estimator.

    ``stats`` holds the dataset, which keeps its W and ``sigma_Y^2``, and the
    single-zero statistic g.  The ``naive`` initial reads the dataset's W and
    is evaluated on all resamples from the count matrix (see the module
    docstring).  A callable initial is called on the dataset and then on
    each rebuilt resample in index order, and a failure there raises
    :class:`InitialEstimatorFailure` carrying the resample index.  Returns a
    report with ``aux`` recording the fitted coefficient, the bootstrap
    count, and the initial: ``"naive"`` or ``"custom"``.
    """
    ds, model, single = stats.ds, stats.model, stats.single
    initial = cfg.initial_estimator
    n = ds.n

    if callable(initial):
        tau2_init = initial(ds, model)
        tau_stars, g_stars = _rebuilt_stars(ds, model, cfg, initial, single.g_per_obs)
    else:
        tau2_init = naive_tau2(ds.w)
        tau_stars, g_stars = _naive_stars(ds.w.w, ds.rank, cfg, single.g_per_obs)

    cov = float(np.cov(tau_stars, g_stars, ddof=1)[0, 1])
    var_g_n = single.var_g / n
    c_tilde = cov / var_g_n

    tau2 = tau2_init - c_tilde * single.g_n
    return EstimateReport(
        tau2=tau2,
        sigma2=sigma2_from(tau2, ds.sigma_y2),
        aux={"c_tilde": c_tilde, "n_boot": cfg.n_boot,
             "initial": "custom" if callable(initial) else "naive"},
    )
