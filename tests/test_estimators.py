import tracemalloc

import numpy as np
import pytest

from varest.errors import (
    DegenerateZeroEstimator,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    TooFewObservations,
    UnsupportedDependenceStructure,
)
from varest.estimators import (
    build_single_zero,
    c_hat_numerator,
    c_hat_star,
    c_star_oracle,
    dicker_tau2,
    naive_tau2,
    pairwise_zero_variance,
    psi_hat,
    sigma2_from,
    t_b,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from varest.kernels import ordered_sum
from varest.model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    build_w,
    sample_variance_y,
)
from varest.simgen import ScenarioConfig, build_beta, generate_dataset
from varest.variance import var_tilde_t_chat
from varest.zeroboost import BootstrapConfig, empirical_estimator

from oracles import chat_numerator_loop, naive_loop, psi_loop, single_zero_loop

GAUSS = CovariateModel.standard_gaussian


def make_data(seed, n, p, beta=None, sigma=1.0):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, p))
    if beta is None:
        beta = np.zeros(p)
    y = x @ beta + sigma * g.standard_normal(n)
    ds = LabeledDataset(x=x, y=y)
    return ds, ds.w


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
        assert dicker_tau2(ds) == pytest.approx(7.0 / 6.0, rel=1e-12)

    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(0).standard_normal((5, 2)),
                            y=np.zeros(5))
        assert dicker_tau2(ds) == 0.0


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
        assert t_oracle(ds, beta) == naive_tau2(w)

    def test_p1_correction_form(self):
        # with p = 1 the correction is 2*beta^2 * mean(X^2 - 1)
        ds, w = make_data(6, 20, 1, beta=np.array([1.3]))
        beta = CoefficientVector(np.array([1.3]))
        got = t_oracle(ds, beta)
        expected = naive_tau2(w) - 2.0 * 1.3 ** 2 * np.mean(ds.x[:, 0] ** 2 - 1.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        ds, _ = make_data(7, 5, 2)
        with pytest.raises(DimensionMismatch):
            t_oracle(ds, CoefficientVector(np.zeros(3)))

    @pytest.mark.parametrize("x_dist", ["gaussian", "rademacher-mix"])
    @pytest.mark.parametrize("n, p", [(60, 40), (150, 300), (400, 400), (7, 64)])
    def test_row_permutation_bitwise(self, n, p, x_dist):
        # X beta is a row-local sum, so a row's result does not depend on its position
        for seed in range(6):
            cfg = ScenarioConfig(n=n, p=p, tau2=1.0, tau2_b=0.5, seed=seed, x_dist=x_dist)
            beta = build_beta(cfg)
            ds = generate_dataset(cfg, beta, 0)
            perm = np.random.default_rng(seed).permutation(n)
            ds2 = LabeledDataset(x=ds.x[perm], y=ds.y[perm])
            assert t_oracle(ds2, beta) == t_oracle(ds, beta)

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
            w = ds.w
            naive_vals[r] = naive_tau2(w)
            oracle_vals[r] = t_oracle(ds, beta)
        se = oracle_vals.std(ddof=1) / np.sqrt(reps)
        assert abs(oracle_vals.mean() - 1.0) < 3 * se
        assert oracle_vals.var(ddof=1) < naive_vals.var(ddof=1)


class TestPsiHat:
    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(1).standard_normal((5, 2)),
                            y=np.zeros(5))
        assert psi_hat(ds, 0, 1) == 0.0

    def test_matches_loop(self):
        ds, w = make_data(8, 10, 3, beta=np.array([1.0, 0.5, 0.0]))
        for j, jp in [(0, 0), (0, 1), (2, 1)]:
            np.testing.assert_allclose(
                psi_hat(ds, j, jp),
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
            vals[r] = psi_hat(ds, 0, 1)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 3 * se

    def test_too_few(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        with pytest.raises(TooFewObservations):
            psi_hat(ds, 0, 0)


class TestTFull:
    def test_matches_psi_sum(self):
        ds, w = make_data(9, 12, 3, beta=np.array([0.7, -0.2, 0.1]))
        expected = naive_tau2(w) - 2.0 * sum(
            psi_loop(ds.x, w.w, j, jp) for j in range(3) for jp in range(3)
        )
        np.testing.assert_allclose(t_full(ds), expected, rtol=1e-11)

    def test_degenerate_p1_equals_naive(self):
        # constant-magnitude X makes every centered second moment vanish
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([0.5, 1.5, -0.7, 0.9])
        ds = LabeledDataset(x=x, y=y)
        w = ds.w
        np.testing.assert_allclose(t_full(ds), naive_tau2(w), rtol=1e-12)

    def test_too_few(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        with pytest.raises(TooFewObservations):
            t_full(ds)

    @staticmethod
    def _traced_peak(n=1000, p=20):
        """Peak bytes held while ``t_full`` and the product it reduces run, over n x n doubles."""
        ds, _ = make_data(10, n, p)
        tracemalloc.start()
        try:
            t_full(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def test_holds_fewer_than_three_n_by_n_arrays(self):
        assert self._traced_peak() < 2.5

    def test_holds_one_n_by_n_array(self):
        # X X' is scaled and reduced in place: no second n x n array
        assert self._traced_peak() <= 1.2


class TestTB:
    def test_empty_set_is_naive(self):
        ds, w = make_data(10, 8, 3, beta=np.ones(3))
        assert t_b(ds, []) == naive_tau2(w)

    def test_full_set_is_t_full(self):
        ds, _ = make_data(11, 10, 3, beta=np.ones(3))
        np.testing.assert_allclose(t_b(ds, [0, 1, 2]), t_full(ds),
                                   rtol=1e-10)

    def test_index_out_of_range(self):
        ds, _ = make_data(12, 8, 3)
        with pytest.raises(IndexOutOfRange):
            t_b(ds, [3])

    def test_checks_columns(self):
        ds, _ = make_data(12, 8, 3, beta=np.ones(3))
        assert t_b(ds, np.array([2, 0, 2])) == t_b(ds, [0, 2])
        with pytest.raises(IndexOutOfRange):
            t_b(ds, [-1])
        with pytest.raises(InvalidInput):
            t_b(ds, [1.7])

    def test_row_permutation_bitwise(self):
        ds, _ = make_data(13, 20, 4, beta=np.full(4, 0.4))
        perm = np.random.default_rng(14).permutation(20)
        ds2 = LabeledDataset(x=ds.x[perm], y=ds.y[perm])
        assert t_b(ds, [0, 2]) == t_b(ds2, [0, 2])


class TestSingleZero:
    def test_hand_pair(self):
        ds = LabeledDataset(x=[[1.0, 1.0], [0.0, 0.0]], y=[1.0, 1.0])
        assert build_single_zero(ds)[ds.rank[0]] == 1.0

    def test_hand_triple(self):
        ds = LabeledDataset(x=[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], y=[1.0, 1.0])
        assert build_single_zero(ds)[ds.rank[0]] == 11.0

    def test_matches_loop(self):
        ds, _ = make_data(15, 9, 6)
        np.testing.assert_allclose(build_single_zero(ds), single_zero_loop(ds.x), rtol=1e-11)

    def test_var_g_closed_form(self):
        ds, _ = make_data(16, 5, 7)
        assert pairwise_zero_variance(ds.p, GAUSS(7)) == 21.0
        assert ordered_sum(ds.g) / ds.n == pytest.approx(ds.g.mean(), rel=1e-12)

    def test_degenerate_p1(self):
        ds, _ = make_data(17, 5, 1)
        with pytest.raises(DegenerateZeroEstimator):
            t_c_hat_star(ds, GAUSS(1))

    def test_dependent_columns_rejected(self):
        ds, _ = make_data(18, 5, 3)
        model = CovariateModel(np.full(3, 3.0), independent_columns=False)
        with pytest.raises(UnsupportedDependenceStructure):
            t_c_hat_star(ds, model)


class TestPairwiseZeroVariance:
    def test_closed_form(self):
        assert [pairwise_zero_variance(p, GAUSS(p)) for p in (2, 3, 7)] == [1.0, 3.0, 21.0]

    def test_checks_p_before_the_model(self):
        dependent = CovariateModel(np.full(1, 3.0), independent_columns=False)
        with pytest.raises(DegenerateZeroEstimator):
            pairwise_zero_variance(1, dependent)
        with pytest.raises(UnsupportedDependenceStructure):
            pairwise_zero_variance(2, CovariateModel(np.full(2, 3.0), independent_columns=False))

    def test_c_star_checks_as_build_single_zero(self):
        with pytest.raises(DegenerateZeroEstimator):
            c_star_oracle(CoefficientVector(np.ones(1)), GAUSS(1))
        with pytest.raises(UnsupportedDependenceStructure):
            c_star_oracle(CoefficientVector(np.ones(3)),
                          CovariateModel(np.full(3, 3.0), independent_columns=False))

    def test_model_of_another_width_rejected(self):
        # p < 2 is checked first and the model's independence last
        with pytest.raises(DimensionMismatch, match="model has p = 3, not 6"):
            pairwise_zero_variance(6, GAUSS(3))
        with pytest.raises(DegenerateZeroEstimator):
            pairwise_zero_variance(1, GAUSS(3))
        with pytest.raises(DimensionMismatch):
            pairwise_zero_variance(2, CovariateModel(np.full(3, 3.0), independent_columns=False))

    @pytest.mark.parametrize("statistic", [
        lambda ds, model: c_star_oracle(CoefficientVector(np.ones(ds.p)), model),
        t_c_hat_star,
        lambda ds, model: var_tilde_t_chat(0.5, ds, model),
        lambda ds, model: empirical_estimator(ds, model, BootstrapConfig(n_boot=5)),
    ], ids=["c_star_oracle", "t_c_hat_star", "var_tilde_t_chat", "empirical_estimator"])
    def test_three_column_model_on_six_columns_rejected(self, statistic):
        ds, _ = make_data(19, 40, 6)
        with pytest.raises(DimensionMismatch, match="model has p = 3, not 6"):
            statistic(ds, GAUSS(3))


class TestCStar:
    def test_zero_beta(self):
        assert c_star_oracle(CoefficientVector(np.zeros(4)), GAUSS(4)) == 0.0

    def test_uniform_beta_closed_form(self):
        # beta_j = 1/sqrt(p)  =>  c* = 4/p
        for p in (4, 9, 25):
            beta = CoefficientVector(np.full(p, 1.0 / np.sqrt(p)))
            np.testing.assert_allclose(c_star_oracle(beta, GAUSS(p)), 4.0 / p, rtol=1e-12)

    def test_numerator_matches_loop(self):
        p = 5
        g = np.random.default_rng(41)
        beta = g.standard_normal(p)
        brute = sum(beta[j] * sum(beta[m] for m in range(p) if m != j) for j in range(p))
        closed = np.sum(beta) ** 2 - np.sum(beta ** 2)
        np.testing.assert_allclose(closed, brute, rtol=1e-12)
        np.testing.assert_allclose(
            c_star_oracle(CoefficientVector(beta), GAUSS(p)),
            2.0 * brute / (p * (p - 1) / 2),
            rtol=1e-12,
        )


class TestCHatStar:
    def test_zero_response(self):
        ds = LabeledDataset(x=np.random.default_rng(2).standard_normal((6, 3)),
                            y=np.zeros(6))
        assert c_hat_star(ds, GAUSS(3)) == 0.0

    def test_matches_loop(self):
        # several shapes, p = 2 and a constant column included
        for seed, n, p, constant in ((21, 8, 3, False), (22, 5, 2, False), (23, 13, 2, True),
                                     (24, 17, 7, False), (25, 24, 11, True)):
            g = np.random.default_rng(seed)
            x = g.standard_normal((n, p))
            if constant:
                x[:, -1] = 1.5
            ds = LabeledDataset(x=x, y=x[:, 0] - 0.5 * x[:, 1] + g.standard_normal(n))
            expected = chat_numerator_loop(ds.w.w, ds.g) / (p * (p - 1) / 2)
            np.testing.assert_allclose(c_hat_star(ds, GAUSS(p)), expected, rtol=1e-11)

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
            vals[r] = c_hat_star(ds, GAUSS(p))
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - 4.0 / p) < 3 * se


class TestSingleRowPermutation:
    """A permuted dataset stores the same rows, so its single-zero statistic is identical."""

    @pytest.mark.parametrize("p", [3, 17, 64])
    @pytest.mark.parametrize("n", [7, 13, 37, 401])
    def test_bitwise(self, n, p):
        g = np.random.default_rng((n, p))
        x = g.standard_normal((n, p))
        y = x @ np.full(p, 1.0 / np.sqrt(p)) + g.standard_normal(n)
        ds = LabeledDataset(x=x, y=y)
        for _ in range(4):
            perm = g.permutation(n)
            ds2 = LabeledDataset(x=x[perm], y=y[perm])
            assert ds2.g.tobytes() == ds.g.tobytes()
            assert c_hat_numerator(ds2) == c_hat_numerator(ds)
            assert t_c_hat_star(ds2, GAUSS(p)) == t_c_hat_star(ds, GAUSS(p))
            assert var_tilde_t_chat(0.5, ds2, GAUSS(p)) == var_tilde_t_chat(0.5, ds, GAUSS(p))


class TestTCHatStar:
    def test_zero_gn_equals_naive(self):
        # orthogonal design rows with exact zero pairwise products
        x = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([0.3, 1.0, -0.4, 0.8])
        ds = LabeledDataset(x=x, y=y)
        assert ds.g.tolist() == [-1.0] * 4  # so g_n = -1
        # with nonzero g_n the estimator differs from naive; force g_n = 0
        x2 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        ds2 = LabeledDataset(x=x2, y=y)
        assert ordered_sum(ds2.g) == 0.0
        assert t_c_hat_star(ds2, GAUSS(2)) == naive_tau2(build_w(ds2))


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
            out[r] = c_hat_star(ds, model) * (ordered_sum(ds.g) / n)
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
            w = ds.w
            naive = naive_tau2(w)
            corr_oracle[r] = naive - t_oracle(ds, beta)
            corr_b[r] = naive - t_b(ds, [0, 1, 2])
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
