import numpy as np
import pytest

from varest.errors import (
    DegenerateZeroEstimator,
    DimensionMismatch,
    IndexOutOfRange,
    TooFewObservations,
    UnsupportedDependenceStructure,
)
from varest.estimators import (
    build_single_zero,
    c_hat_star,
    c_star_oracle,
    dicker_tau2,
    naive_tau2,
    psi_hat,
    sigma2_from,
    t_b,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from varest.model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    build_w,
    sample_variance_y,
)
from varest.variance import var_tilde_t_chat

from oracles import chat_numerator_loop, naive_loop, psi_loop, single_zero_loop

GAUSS = CovariateModel.standard_gaussian


def make_data(seed, n, p, beta=None, sigma=1.0):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, p))
    if beta is None:
        beta = np.zeros(p)
    y = x @ beta + sigma * g.standard_normal(n)
    ds = LabeledDataset(x=x, y=y)
    return ds, build_w(ds)


class TestNaive:
    def test_hand_example(self):
        w = build_w(LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0]))
        assert naive_tau2(w) == 2.0

    def test_matches_loop(self):
        ds, w = make_data(1, 6, 3, beta=np.ones(3))
        np.testing.assert_allclose(naive_tau2(w), naive_loop(w.w), rtol=1e-12)

    def test_may_be_negative(self):
        # a response orthogonal to every column drives the estimate negative
        w = build_w(LabeledDataset(x=[[1.0], [-1.0]], y=[1.0, 1.0]))
        assert naive_tau2(w) < 0.0

    def test_row_permutation_bitwise(self):
        ds, w = make_data(2, 40, 6, beta=np.full(6, 0.5))
        perm = np.random.default_rng(3).permutation(40)
        w2 = build_w(LabeledDataset(x=ds.x[perm], y=ds.y[perm]))
        assert naive_tau2(w) == naive_tau2(w2)


class TestDicker:
    def test_hand_example(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        assert dicker_tau2(ds, build_w(ds)) == pytest.approx(7.0 / 6.0, rel=1e-12)

    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(0).standard_normal((5, 2)),
                            y=np.zeros(5))
        assert dicker_tau2(ds, build_w(ds)) == 0.0


class TestSigma2From:
    def test_subtraction(self):
        assert sigma2_from(1.0, 2.0) == 1.0

    def test_negative_allowed(self):
        assert sigma2_from(3.0, 2.0) == -1.0

    def test_report_identity(self):
        ds, w = make_data(4, 30, 5, beta=np.full(5, 0.3))
        sy2 = sample_variance_y(ds.y)
        tau2 = naive_tau2(w)
        assert tau2 + sigma2_from(tau2, sy2) == pytest.approx(sy2, rel=1e-12)


class TestOracle:
    def test_zero_beta_equals_naive(self):
        ds, w = make_data(5, 12, 4)
        beta = CoefficientVector(np.zeros(4))
        assert t_oracle(ds, w, beta) == naive_tau2(w)

    def test_p1_correction_form(self):
        # with p = 1 the correction is 2*beta^2 * mean(X^2 - 1)
        ds, w = make_data(6, 20, 1, beta=np.array([1.3]))
        beta = CoefficientVector(np.array([1.3]))
        got = t_oracle(ds, w, beta)
        expected = naive_tau2(w) - 2.0 * 1.3 ** 2 * np.mean(ds.x[:, 0] ** 2 - 1.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        ds, w = make_data(7, 5, 2)
        with pytest.raises(DimensionMismatch):
            t_oracle(ds, w, CoefficientVector(np.zeros(3)))

    def test_unbiased_and_lower_variance(self):
        # small monte carlo: mean near tau2 and variance below naive
        p, n, reps = 8, 25, 3000
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        naive_vals = np.empty(reps)
        oracle_vals = np.empty(reps)
        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((80, r)))
            x = g.standard_normal((n, p))
            y = x @ beta.beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            w = build_w(ds)
            naive_vals[r] = naive_tau2(w)
            oracle_vals[r] = t_oracle(ds, w, beta)
        se = oracle_vals.std(ddof=1) / np.sqrt(reps)
        assert abs(oracle_vals.mean() - 1.0) < 3 * se
        assert oracle_vals.var(ddof=1) < naive_vals.var(ddof=1)


class TestPsiHat:
    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(1).standard_normal((5, 2)),
                            y=np.zeros(5))
        w = build_w(ds)
        assert psi_hat(ds, w, 0, 1) == 0.0

    def test_matches_loop(self):
        ds, w = make_data(8, 10, 3, beta=np.array([1.0, 0.5, 0.0]))
        for j, jp in [(0, 0), (0, 1), (2, 1)]:
            np.testing.assert_allclose(
                psi_hat(ds, w, j, jp),
                psi_loop(ds.x, w.w, j, jp),
                rtol=1e-11,
            )

    def test_mean_zero(self):
        # monte carlo mean within 3 SEs of zero
        reps, n, p = 4000, 30, 4
        beta = np.full(p, 0.5)
        vals = np.empty(reps)
        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((81, r)))
            x = g.standard_normal((n, p))
            y = x @ beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            vals[r] = psi_hat(ds, build_w(ds), 0, 1)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 3 * se

    def test_too_few(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        with pytest.raises(TooFewObservations):
            psi_hat(ds, build_w(ds), 0, 0)


class TestTFull:
    def test_matches_psi_sum(self):
        ds, w = make_data(9, 12, 3, beta=np.array([0.7, -0.2, 0.1]))
        expected = naive_tau2(w) - 2.0 * sum(
            psi_loop(ds.x, w.w, j, jp) for j in range(3) for jp in range(3)
        )
        np.testing.assert_allclose(t_full(ds, w), expected, rtol=1e-11)

    def test_degenerate_p1_equals_naive(self):
        # constant-magnitude X makes every centered second moment vanish
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([0.5, 1.5, -0.7, 0.9])
        ds = LabeledDataset(x=x, y=y)
        w = build_w(ds)
        np.testing.assert_allclose(t_full(ds, w), naive_tau2(w), rtol=1e-12)

    def test_too_few(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        with pytest.raises(TooFewObservations):
            t_full(ds, build_w(ds))


class TestTB:
    def test_empty_set_is_naive(self):
        ds, w = make_data(10, 8, 3, beta=np.ones(3))
        assert t_b(ds, w, []) == naive_tau2(w)

    def test_full_set_is_t_full(self):
        ds, w = make_data(11, 10, 3, beta=np.ones(3))
        np.testing.assert_allclose(t_b(ds, w, [0, 1, 2]), t_full(ds, w), rtol=1e-10)

    def test_index_out_of_range(self):
        ds, w = make_data(12, 8, 3)
        with pytest.raises(IndexOutOfRange):
            t_b(ds, w, [3])

    def test_row_permutation_bitwise(self):
        ds, w = make_data(13, 20, 4, beta=np.full(4, 0.4))
        perm = np.random.default_rng(14).permutation(20)
        ds2 = LabeledDataset(x=ds.x[perm], y=ds.y[perm])
        assert t_b(ds, w, [0, 2]) == t_b(ds2, build_w(ds2), [0, 2])


class TestSingleZero:
    def test_hand_pair(self):
        ds = LabeledDataset(x=[[1.0, 1.0], [0.0, 0.0]], y=[1.0, 1.0])
        single = build_single_zero(ds, GAUSS(2))
        assert single.g_per_obs[0] == 1.0

    def test_hand_triple(self):
        ds = LabeledDataset(x=[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], y=[1.0, 1.0])
        single = build_single_zero(ds, GAUSS(3))
        assert single.g_per_obs[0] == 11.0

    def test_matches_loop(self):
        ds, _ = make_data(15, 9, 6)
        single = build_single_zero(ds, GAUSS(6))
        np.testing.assert_allclose(single.g_per_obs, single_zero_loop(ds.x), rtol=1e-11)

    def test_var_g_closed_form(self):
        ds, _ = make_data(16, 5, 7)
        single = build_single_zero(ds, GAUSS(7))
        assert single.var_g == 21.0
        assert single.g_n == pytest.approx(single.g_per_obs.mean(), rel=1e-12)

    def test_degenerate_p1(self):
        ds, _ = make_data(17, 5, 1)
        with pytest.raises(DegenerateZeroEstimator):
            build_single_zero(ds, GAUSS(1))

    def test_dependent_columns_rejected(self):
        ds, _ = make_data(18, 5, 3)
        model = CovariateModel(mean=np.zeros(3), covariance=np.eye(3),
                               fourth_moments=3.0, independent_columns=False)
        with pytest.raises(UnsupportedDependenceStructure):
            build_single_zero(ds, model)


class TestCStar:
    def test_zero_beta(self):
        ds, _ = make_data(19, 5, 4)
        single = build_single_zero(ds, GAUSS(4))
        assert c_star_oracle(CoefficientVector(np.zeros(4)), single, GAUSS(4)) == 0.0

    def test_uniform_beta_closed_form(self):
        # beta_j = 1/sqrt(p)  =>  c* = 4/p
        for p in (4, 9, 25):
            ds, _ = make_data(20 + p, 5, p)
            single = build_single_zero(ds, GAUSS(p))
            beta = CoefficientVector(np.full(p, 1.0 / np.sqrt(p)))
            np.testing.assert_allclose(
                c_star_oracle(beta, single, GAUSS(p)), 4.0 / p, rtol=1e-12
            )

    def test_numerator_matches_loop(self):
        p = 5
        g = np.random.default_rng(41)
        beta = g.standard_normal(p)
        brute = sum(beta[j] * sum(beta[m] for m in range(p) if m != j) for j in range(p))
        closed = np.sum(beta) ** 2 - np.sum(beta ** 2)
        np.testing.assert_allclose(closed, brute, rtol=1e-12)
        ds, _ = make_data(60, 5, p)
        single = build_single_zero(ds, GAUSS(p))
        np.testing.assert_allclose(
            c_star_oracle(CoefficientVector(beta), single, GAUSS(p)),
            2.0 * brute / single.var_g,
            rtol=1e-12,
        )


class TestCHatStar:
    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(2).standard_normal((6, 3)),
                            y=np.zeros(6))
        w = build_w(ds)
        single = build_single_zero(ds, GAUSS(3))
        assert c_hat_star(w, single) == 0.0

    def test_matches_loop(self):
        # several shapes, p = 2 and a constant column included
        for seed, n, p, constant in ((21, 8, 3, False), (22, 5, 2, False), (23, 13, 2, True),
                                     (24, 17, 7, False), (25, 24, 11, True)):
            g = np.random.default_rng(seed)
            x = g.standard_normal((n, p))
            if constant:
                x[:, -1] = 1.5
            ds = LabeledDataset(x=x, y=x[:, 0] - 0.5 * x[:, 1] + g.standard_normal(n))
            w = build_w(ds)
            single = build_single_zero(ds, GAUSS(p))
            expected = chat_numerator_loop(w.w, single.g_per_obs) / single.var_g
            np.testing.assert_allclose(c_hat_star(w, single), expected, rtol=1e-11)

    def test_consistency_small_mc(self):
        # mean of c-hat* near c* = 4/p over replications
        n = p = 40
        reps = 2000
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        vals = np.empty(reps)
        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((82, r)))
            x = g.standard_normal((n, p))
            y = x @ beta.beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            vals[r] = c_hat_star(build_w(ds), build_single_zero(ds, GAUSS(p)))
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - 4.0 / p) < 3 * se


class TestSingleRowPermutation:
    """The single-zero path reduces each row on its own, then sums in canonical order."""

    @pytest.mark.parametrize("p", [3, 17, 64])
    @pytest.mark.parametrize("n", [7, 13, 37, 401])
    def test_bitwise(self, n, p):
        g = np.random.default_rng((n, p))
        x = g.standard_normal((n, p))
        y = x @ np.full(p, 1.0 / np.sqrt(p)) + g.standard_normal(n)
        ds = LabeledDataset(x=x, y=y)
        w, single = build_w(ds), build_single_zero(ds, GAUSS(p))
        for _ in range(4):
            perm = g.permutation(n)
            ds2 = LabeledDataset(x=x[perm], y=y[perm])
            w2, single2 = build_w(ds2), build_single_zero(ds2, GAUSS(p))
            assert np.array_equal(single2.g_per_obs, single.g_per_obs[perm])
            assert t_c_hat_star(w2, single2) == t_c_hat_star(w, single)
            assert var_tilde_t_chat(0.5, w2, single2, n) == var_tilde_t_chat(0.5, w, single, n)


class TestTCHatStar:
    def test_zero_gn_equals_naive(self):
        # orthogonal design rows with exact zero pairwise products
        x = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([0.3, 1.0, -0.4, 0.8])
        ds = LabeledDataset(x=x, y=y)
        w = build_w(ds)
        single = build_single_zero(ds, GAUSS(2))
        assert single.g_n == -1.0  # g_i = -1 for every row here
        # with nonzero g_n the estimator differs from naive; force g_n = 0
        x2 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        ds2 = LabeledDataset(x=x2, y=y)
        single2 = build_single_zero(ds2, GAUSS(2))
        assert single2.g_n == 0.0
        w2 = build_w(ds2)
        assert t_c_hat_star(w2, single2) == naive_tau2(w2)


class TestZeroEstimatorNeutrality:
    def _corrections(self, tag, n, p, reps):
        beta = np.full(p, 1 / np.sqrt(p))
        model = GAUSS(p)
        out = np.empty(reps)
        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((tag, r)))
            x = g.standard_normal((n, p))
            y = x @ beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            w = build_w(ds)
            single = build_single_zero(ds, model)
            out[r] = c_hat_star(w, single) * single.g_n
        return out

    def test_exact_corrections_mean_zero(self):
        # the subtracted terms of the oracle/full/fixed-set estimators are
        # built from exactly mean-zero statistics
        n, p, reps = 40, 10, 3000
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        corr_oracle = np.empty(reps)
        corr_b = np.empty(reps)
        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((93, r)))
            x = g.standard_normal((n, p))
            y = x @ beta.beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            w = build_w(ds)
            naive = naive_tau2(w)
            corr_oracle[r] = naive - t_oracle(ds, w, beta)
            corr_b[r] = naive - t_b(ds, w, [0, 1, 2])
        for corr in (corr_oracle, corr_b):
            se = corr.std(ddof=1) / np.sqrt(reps)
            assert abs(corr.mean()) < 3 * se

    def test_estimated_coefficient_correction_bias_decays(self):
        # the feasible correction c-hat* g_n is a product of correlated
        # estimates, so its finite-sample mean is not exactly zero; it decays
        # with n and is already below 5% of the signal at n = p = 400
        small = self._corrections(92, 80, 80, 1200)
        large = self._corrections(92, 400, 400, 800)
        assert abs(large.mean()) < abs(small.mean())
        assert abs(large.mean()) < 0.05
