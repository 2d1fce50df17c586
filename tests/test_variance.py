import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varest.errors import (
    DegenerateZeroEstimator,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    UnsupportedDependenceStructure,
)
from varest.estimators import (
    dicker_tau2,
    naive_tau2,
    t_b,
    t_full,
    t_oracle,
)
from varest.model import CoefficientVector, CovariateModel, LabeledDataset, build_w
from varest.selection import beta_squared_estimates
from varest.variance import (
    asymptotic_psi,
    var_hat_naive_gaussian,
    var_hat_t_gamma,
    var_naive_theory,
    var_t_b_theory,
    var_t_cstar_theory,
    var_t_full_theory,
    var_t_oracle_theory,
    var_tilde_naive,
    var_tilde_t_chat,
    var_tilde_t_gamma,
)

from oracles import (
    chain_sum_loop,
    chat_numerator_loop,
    enumerated_moments,
    gram_loop,
    moment_matrix_loop,
    naive_variance_loop,
    offdiag_square_sum_loop,
    sign_population,
)

GAUSS = CovariateModel.standard_gaussian


def mc_estimates(estimator, reps, n, p, beta, sigma=1.0, tag=0):
    """Replicated estimates of a statistic on fresh Gaussian datasets."""
    out = np.empty(reps)
    for r in range(reps):
        g = np.random.default_rng(np.random.SeedSequence((tag, r)))
        x = g.standard_normal((n, p))
        y = x @ beta + sigma * g.standard_normal(n)
        out[r] = estimator(LabeledDataset(x=x, y=y))
    return out


def two_rows(beta2):
    """A two-row dataset whose per-column estimates beta_j^2-hat are ``beta2``.

    With both responses 1, column j's estimate is the product of its two entries.
    """
    return LabeledDataset(x=[beta2, np.ones(len(beta2))], y=[1.0, 1.0])


class TestMomentMatrixA:
    """``A = E(W W')`` as ``tests/oracles.py`` builds it, entry by entry."""

    def test_zero_beta_gaussian_is_identity(self):
        a = moment_matrix_loop(np.zeros(3), 1.0, np.full(3, 3.0))
        np.testing.assert_array_equal(a, np.eye(3))

    def test_p1_hand_value(self):
        a = moment_matrix_loop(np.array([1.0]), 1.0, np.array([3.0]))
        np.testing.assert_allclose(a, [[4.0]])

    def test_entries_match_monte_carlo(self):
        p = 4
        g = np.random.default_rng(17)
        beta = g.standard_normal(p) * 0.5
        a = moment_matrix_loop(beta, 1.0, np.full(p, 3.0))
        draws = 100_000
        x = g.standard_normal((draws, p))
        y = x @ beta + g.standard_normal(draws)
        w = x * y[:, None]
        emp = w.T @ w / draws
        prods = np.einsum("ij,ik->ijk", w, w)
        se = prods.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(emp - a) < 3 * se)


@st.composite
def _theory_cases(draw):
    """``(beta, sigma2, fourth_moments, n)``: p in 1..60, n in 3..500, sigma^2 in
    [0, 3], and Gaussian, all-equal or per-column fourth moments in [1, 9]."""
    p = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("gaussian", "equal", "per-column")))
    if kind == "per-column":
        m4 = draw(st.lists(st.floats(1.0, 9.0), min_size=p, max_size=p))
    else:
        m4 = [3.0 if kind == "gaussian" else draw(st.floats(1.0, 9.0))] * p
    beta = draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p))
    return np.array(beta), draw(st.floats(0.0, 3.0)), np.array(m4), draw(st.integers(3, 500))


class TestVarNaiveTheory:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=_theory_cases())
    def test_matches_moment_matrix_loop(self, case):
        # to 1e-12 of the formula's scale: with p = 1, sigma^2 = 0 and E X^4 = 1 the
        # variance is exactly 0 and the loop leaves rounding noise
        beta, sigma2, m4, n = case
        want, scale = naive_variance_loop(beta, sigma2, m4, n)
        got = var_naive_theory(CoefficientVector(beta), sigma2, CovariateModel(m4), n)
        assert abs(got - want) <= 1e-12 * scale

    def test_requires_independent_columns(self):
        model = CovariateModel(np.full(2, 3.0), independent_columns=False)
        with pytest.raises(UnsupportedDependenceStructure):
            var_naive_theory(CoefficientVector(np.zeros(2)), 1.0, model, 10)

    @pytest.mark.parametrize("theory", [var_naive_theory, var_t_oracle_theory,
                                        var_t_cstar_theory, var_t_full_theory])
    def test_beta_and_model_widths_must_agree(self, theory):
        beta = CoefficientVector(np.full(8, 0.5))
        with pytest.raises(DimensionMismatch, match="beta has p = 8, the covariate model p = 3"):
            theory(beta, 1.0, GAUSS(3), 50)

    @pytest.mark.parametrize("theory", [var_naive_theory, var_t_oracle_theory,
                                        var_t_cstar_theory, var_t_full_theory])
    def test_forms_no_p_by_p_array(self, theory):
        # A = E(W W') at p = 2000 is 32 MB; the O(p) formula holds a few p-vectors
        p = 2000
        beta, model = CoefficientVector(np.full(p, 1 / np.sqrt(p))), GAUSS(p)
        tracemalloc.start()
        try:
            theory(beta, 1.0, model, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_zero_beta_closed_form(self):
        p, n = 6, 20
        got = var_naive_theory(CoefficientVector(np.zeros(p)), 1.5, GAUSS(p), n)
        expected = 2.0 * p * 1.5 ** 2 / (n * (n - 1))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_twenty_over_n_limit(self):
        n = p = 400
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        assert abs(n * var_naive_theory(beta, 1.0, GAUSS(p), n) - 20.0) / 20.0 < 0.02

    def test_matches_monte_carlo_small(self):
        n, p, reps = 8, 3, 20_000
        g = np.random.default_rng(23)
        beta = g.standard_normal(p) * 0.6
        theory = var_naive_theory(CoefficientVector(beta), 1.0, GAUSS(p), n)
        vals = mc_estimates(lambda ds: naive_tau2(ds.w), reps, n, p, beta, tag=230)
        emp = vals.var(ddof=1)
        se = emp * np.sqrt(2.0 / (reps - 1))
        assert abs(theory - emp) < 3 * se


class TestAsymptoticPsi:
    def test_equal_signal_noise_square(self):
        assert asymptotic_psi(1.0, 1.0, 400, 400) == 20.0

    def test_zero_signal(self):
        # 2 sigma^4 p / n with sigma^2 = 1.3
        np.testing.assert_allclose(asymptotic_psi(0.0, 1.3, 100, 50),
                                   2.0 * 1.3 ** 2 * 100 / 50, rtol=1e-12)

    def test_low_dimensional_limit(self):
        assert asymptotic_psi(1.0, 1.0, 0, 400) == 12.0


class TestVarOracleTheory:
    def test_zero_beta_equals_naive(self):
        p = 5
        beta = CoefficientVector(np.zeros(p))
        assert var_t_oracle_theory(beta, 1.0, GAUSS(p), 30) == \
            var_naive_theory(beta, 1.0, GAUSS(p), 30)

    def test_twelve_over_n_limit(self):
        n = p = 400
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        assert abs(n * var_t_oracle_theory(beta, 1.0, GAUSS(p), n) - 12.0) / 12.0 < 0.02

    def test_nongaussian_reduction_hand_value(self):
        # E X^4 = 9, single nonzero beta_1 = 1: reduction (4/n) * 8
        p, n = 3, 50
        model = CovariateModel.independent(p, fourth_moment=9.0)
        beta = CoefficientVector(np.array([1.0, 0.0, 0.0]))
        reduction = var_naive_theory(beta, 1.0, model, n) - \
            var_t_oracle_theory(beta, 1.0, model, n)
        np.testing.assert_allclose(reduction, 32.0 / n, rtol=1e-12)

    def test_never_exceeds_naive(self):
        g = np.random.default_rng(31)
        for _ in range(25):
            p = int(g.integers(2, 10))
            beta = CoefficientVector(g.standard_normal(p))
            m4 = 1.0 + g.lognormal(0, 1, p)
            model = CovariateModel(fourth_moments=m4)
            assert var_t_oracle_theory(beta, 0.7, model, 40) <= \
                var_naive_theory(beta, 0.7, model, 40) + 1e-15


class TestVarTBTheory:
    def test_checks_columns(self):
        beta = CoefficientVector(np.array([0.5, 0.1, 0.3, 0.2]))
        args = (beta, 1.0, GAUSS(4), 25)
        assert var_t_b_theory(*args, np.array([3, 1, 3])) == var_t_b_theory(*args, [1, 3])
        with pytest.raises(IndexOutOfRange):
            var_t_b_theory(*args, [-1])
        with pytest.raises(InvalidInput):
            var_t_b_theory(*args, [2.7])

    def test_empty_set(self):
        p = 4
        beta = CoefficientVector(np.full(p, 0.5))
        assert var_t_b_theory(beta, 1.0, GAUSS(p), 25, []) == \
            var_naive_theory(beta, 1.0, GAUSS(p), 25)

    def test_ten_percent_reduction(self):
        # tau_B^2 = 0.5, tau^2 = sigma^2 = 1, p = n: relative reduction -> 10%
        n = p = 2000
        b_size = 5
        beta = np.full(p, np.sqrt(0.5 / (p - b_size)))
        beta[:b_size] = np.sqrt(0.5 / b_size)
        bv = CoefficientVector(beta)
        v_naive = var_naive_theory(bv, 1.0, GAUSS(p), n)
        v_b = var_t_b_theory(bv, 1.0, GAUSS(p), n, range(b_size))
        assert abs((v_naive - v_b) / v_naive - 0.10) < 0.01

    def test_matches_monte_carlo(self):
        n, p, reps = 200, 12, 4000
        b_size = 4
        beta = np.full(p, np.sqrt(0.5 / (p - b_size)))
        beta[:b_size] = np.sqrt(0.5 / b_size)
        bv = CoefficientVector(beta)
        model = GAUSS(p)
        vals = mc_estimates(
            lambda ds: t_b(ds, range(b_size)), reps, n, p, beta, tag=310
        )
        emp = vals.var(ddof=1)
        theory = var_t_b_theory(bv, 1.0, model, n, range(b_size))
        se = emp * np.sqrt(2.0 / (reps - 1))
        assert abs(theory - emp) < 3 * se


class TestVarTCstarTheory:
    def test_twelve_over_n_limit(self):
        n = p = 400
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        assert abs(n * var_t_cstar_theory(beta, 1.0, GAUSS(p), n) - 12.0) / 12.0 < 0.02

    def test_zero_sum_beta_still_reduces(self):
        p = 4
        beta = CoefficientVector(np.array([0.5, -0.5, 0.5, -0.5]))
        v = var_t_cstar_theory(beta, 1.0, GAUSS(p), 100)
        v_naive = var_naive_theory(beta, 1.0, GAUSS(p), 100)
        expected_reduction = (2.0 * (0.0 - beta.tau2)) ** 2 / (100 * p * (p - 1) / 2)
        np.testing.assert_allclose(v_naive - v, expected_reduction, rtol=1e-12)
        assert v < v_naive

    def test_zero_beta_equals_naive(self):
        p = 3
        beta = CoefficientVector(np.zeros(p))
        assert var_t_cstar_theory(beta, 1.0, GAUSS(p), 50) == \
            var_naive_theory(beta, 1.0, GAUSS(p), 50)


class TestVarTFullTheory:
    def test_forty_four_over_n_limit(self):
        # The name keeps the constant this test first pinned, 12 + 32 = 44,
        # which left out the second-order term 16 p tau^4 / n^2.  The derived
        # limit at n = p, tau^2 = sigma^2 = 1 is 12 + 32 + 16 = 60.
        n = p = 400
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        assert abs(n * var_t_full_theory(beta, 1.0, GAUSS(p), n) - 60.0) / 60.0 < 0.02

    def test_fixed_p_limit_is_oracle(self):
        p = 6
        beta = CoefficientVector(np.full(p, 0.4))
        big_n = 10_000_000
        full = var_t_full_theory(beta, 1.0, GAUSS(p), big_n)
        oracle = var_t_oracle_theory(beta, 1.0, GAUSS(p), big_n)
        np.testing.assert_allclose(full, oracle, rtol=1e-4)

    def test_matches_monte_carlo_within_15pct(self):
        # leading-order formula; with the second-order term 16 p tau^4 / n^2
        # included the gap at this scale is ~2% (it was ~11% without it)
        n, p, reps = 300, 8, 2000
        beta = np.full(p, 1 / np.sqrt(p))
        model = GAUSS(p)
        vals = mc_estimates(t_full, reps, n, p, beta, tag=4001)
        emp = vals.var(ddof=1)
        theory = var_t_full_theory(CoefficientVector(beta), 1.0, model, n)
        assert abs(theory - emp) / emp < 0.15


class TestVarHatNaiveGaussian:
    def test_hand_value_near_20_over_n(self):
        got = var_hat_naive_gaussian(1.0, 2.0, 400, 400)
        assert abs(got - 0.050) / 0.050 < 0.03

    def test_zero_tau2(self):
        n, p, sy2 = 30, 10, 1.7
        got = var_hat_naive_gaussian(0.0, sy2, n, p)
        expected = 4.0 / n * (p * sy2 ** 2) / (2 * (n - 1))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_tracks_theory_at_truth(self):
        # plugging in the true values reproduces the Gaussian theory closely
        n = p = 400
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        theory = var_naive_theory(beta, 1.0, GAUSS(p), n)
        plug = var_hat_naive_gaussian(1.0, 2.0, n, p)
        np.testing.assert_allclose(plug, theory, rtol=1e-12)


class TestVarHatTGamma:
    def test_checks_columns(self):
        ds = two_rows([0.6, 0.4, 0.1, 0.0])
        assert var_hat_t_gamma(0.05, ds, np.array([3, 1, 3])) == var_hat_t_gamma(0.05, ds, [1, 3])
        with pytest.raises(IndexOutOfRange):
            var_hat_t_gamma(0.05, ds, [-1])
        with pytest.raises(InvalidInput):
            var_hat_t_gamma(0.05, ds, [2.7])

    def test_empty_set_identity(self):
        assert var_hat_t_gamma(0.05, two_rows([0.1, 0.2]), []) == 0.05

    def test_subtracts_8_over_n_tau_b4(self):
        got = var_hat_t_gamma(0.05, two_rows([0.6, 0.4, 0.0]), [0, 1])
        np.testing.assert_allclose(0.05 - got, 8.0 / 2 * 1.0, rtol=1e-12)

    def test_reads_estimates_and_n_from_the_dataset(self):
        g0 = np.random.default_rng(46)
        x = g0.standard_normal((40, 5))
        ds = LabeledDataset(x=x, y=x[:, 0] + g0.standard_normal(40))
        beta2 = beta_squared_estimates(build_w(ds))
        got = var_hat_t_gamma(0.05, ds, [0, 2])
        np.testing.assert_allclose(0.05 - got, 8.0 / 40 * (beta2[0] + beta2[2]) ** 2, rtol=1e-12)
        # the Gaussian fourth moment 3 is the tilde reduction under a Gaussian model
        assert got == var_tilde_t_gamma(0.05, ds, [0, 2], GAUSS(5))


class TestVarTildeNaive:
    def test_orthogonal_rows_collapse(self):
        x = np.eye(4)
        y = np.array([1.0, -2.0, 0.5, 3.0])
        ds = LabeledDataset(x=x, y=y)
        n = 4
        tau2 = naive_tau2(build_w(ds))
        expected = (4.0 * (n - 2) / (n * (n - 1)) + 2.0 / (n * (n - 1))) * (-(tau2 ** 2))
        np.testing.assert_allclose(var_tilde_naive(ds), expected, rtol=1e-12)

    def test_components_match_loops(self):
        g0 = np.random.default_rng(47)
        x = g0.standard_normal((10, 3))
        y = x @ np.array([0.8, 0.0, -0.3]) + g0.standard_normal(10)
        ds = LabeledDataset(x=x, y=y)
        w = build_w(ds)
        g_loop = gram_loop(w.w)
        n = 10
        beta_quad_hat = chain_sum_loop(g_loop) / (n * (n - 1) * (n - 2))
        frob_hat = offdiag_square_sum_loop(g_loop) / (n * (n - 1))
        b4 = naive_tau2(w) ** 2
        expected = (4.0 * (n - 2) / (n * (n - 1))) * (beta_quad_hat - b4) \
            + (2.0 / (n * (n - 1))) * (frob_hat - b4)
        np.testing.assert_allclose(var_tilde_naive(ds), expected, rtol=1e-11)

    def test_row_permutation_invariant(self):
        g0 = np.random.default_rng(48)
        x = g0.standard_normal((12, 4))
        y = g0.standard_normal(12)
        perm = g0.permutation(12)
        np.testing.assert_allclose(
            var_tilde_naive(LabeledDataset(x=x, y=y)),
            var_tilde_naive(LabeledDataset(x=x[perm], y=y[perm])),
            rtol=1e-12,
        )


class TestVarTildeTGamma:
    def test_checks_columns(self):
        args = (0.05, two_rows([0.6, 0.4, 0.1, 0.0]))
        assert var_tilde_t_gamma(*args, np.array([3, 1, 3]), GAUSS(4)) == \
            var_tilde_t_gamma(*args, [1, 3], GAUSS(4))
        with pytest.raises(IndexOutOfRange):
            var_tilde_t_gamma(*args, [4], GAUSS(4))
        with pytest.raises(InvalidInput):
            var_tilde_t_gamma(*args, [2.7], GAUSS(4))

    def test_empty_identity(self):
        assert var_tilde_t_gamma(0.04, two_rows([0.5]), [], GAUSS(1)) == 0.04

    @pytest.mark.parametrize("b_set", [[0, 1], []])
    def test_model_of_another_width_rejected(self, b_set):
        with pytest.raises(DimensionMismatch, match="8 fourth moments for 3 squared"):
            var_tilde_t_gamma(0.05, two_rows([0.6, 0.4, 0.1]), b_set, GAUSS(8))

    def test_gaussian_single_column_subtraction(self):
        got = var_tilde_t_gamma(0.05, two_rows([1.0, 0.0]), [0], GAUSS(2))
        np.testing.assert_allclose(0.05 - got, 4.0 / 2 * 2.0, rtol=1e-12)


class TestVarTildeTChat:
    def test_zero_w_identity(self):
        ds = LabeledDataset(x=np.random.default_rng(1).standard_normal((6, 3)),
                            y=np.zeros(6))
        assert var_tilde_t_chat(0.03, ds, GAUSS(3)) == 0.03

    def test_bracket_matches_loop(self):
        g0 = np.random.default_rng(53)
        x = g0.standard_normal((8, 3))
        y = x @ np.array([1.0, 0.5, 0.0]) + g0.standard_normal(8)
        ds = LabeledDataset(x=x, y=y)
        bracket = chat_numerator_loop(build_w(ds).w, ds.g)
        expected = 0.1 - bracket ** 2 / (8 * 3.0)  # Var(g_i) = 3 at p = 3
        np.testing.assert_allclose(var_tilde_t_chat(0.1, ds, GAUSS(3)), expected,
                                   rtol=1e-11)

    def test_one_column_rejected_by_p(self):
        ds = LabeledDataset(x=np.random.default_rng(55).standard_normal((6, 1)), y=np.ones(6))
        with pytest.raises(DegenerateZeroEstimator,
                           match=r"^the pairwise zero-estimator needs p >= 2$"):
            var_tilde_t_chat(0.1, ds, GAUSS(1))


class TestReductionOrdering:
    def test_oracle_below_naive_in_gaussian_scenarios(self):
        g = np.random.default_rng(60)
        for _ in range(20):
            p = int(g.integers(2, 12))
            n = int(g.integers(10, 60))
            beta = CoefficientVector(g.standard_normal(p))
            sigma2 = float(g.lognormal(0, 0.5))
            assert var_t_oracle_theory(beta, sigma2, GAUSS(p), n) <= \
                var_naive_theory(beta, sigma2, GAUSS(p), n)


@st.composite
def _sign_cases(draw):
    """``(beta, sigma, n, B)`` for ``oracles.sign_population`` with at most 4096 ordered samples.

    The population has ``N = 2^(p+1)`` rows, so p = 1 allows n = 4..6 and p = 2 allows n = 4.
    """
    p = draw(st.integers(1, 2))
    n = draw(st.integers(4, 6 if p == 1 else 4))
    beta = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=p, max_size=p))
    sigma = draw(st.sampled_from([0.5, 1.0, 1.5]))
    return np.array(beta), sigma, n, draw(st.lists(st.integers(0, p - 1), unique=True))


class TestExactMoments:
    """Moments over every ordered sample of a finite population, exact up to rounding.

    A U-statistic is unbiased under i.i.d. sampling (Hoeffding, Ann. Math.
    Statist. 1948), and the theory variances are exact finite-n formulas, so
    each identity holds for any population: here Rademacher columns
    (``E X^4 = 1``) and two-point noise.
    """

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(case=_sign_cases())
    def test_enumerated_moments(self, case):
        beta, sigma, n, b_set = case
        coef, model = CoefficientVector(beta), CovariateModel(np.ones(len(beta)))

        def statistics(ds):
            return {"naive": naive_tau2(ds.w), "t_b": t_b(ds, b_set), "full": t_full(ds),
                    "oracle": t_oracle(ds, coef), "dicker": dicker_tau2(ds),
                    "tilde": var_tilde_naive(ds)}

        moments = enumerated_moments(*sign_population(beta, sigma), n, statistics)
        tau2 = coef.tau2
        for name in ("naive", "t_b", "full", "oracle"):
            assert abs(moments[name][0] - tau2) <= 1e-12 * (1.0 + tau2), name
        # biased by sum_j (E X_j^4 - 3) beta_j^2 / (n + 1) = -2 tau^2 / (n + 1)
        assert abs(moments["dicker"][0] - tau2 * (n - 1) / (n + 1)) <= 1e-12 * (1.0 + tau2)
        var_naive = moments["naive"][1]
        assert var_naive == pytest.approx(var_naive_theory(coef, sigma ** 2, model, n), rel=1e-10)
        assert moments["oracle"][1] == pytest.approx(
            var_t_oracle_theory(coef, sigma ** 2, model, n), rel=1e-10)
        # the squared naive estimate in the tilde variance has mean tau^4 + Var(naive)
        assert moments["tilde"][0] == pytest.approx(
            (n - 2) * (n - 3) / (n * (n - 1)) * var_naive, rel=1e-10)
