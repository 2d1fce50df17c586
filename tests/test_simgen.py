import numpy as np
import pytest

from varest.errors import InvalidScenario
from varest.simgen import (
    ScenarioConfig,
    build_beta,
    covariate_model_for,
    fourth_moment_of,
    generate_dataset,
)


class TestScenarioConfig:
    def test_rejects_signal_mass_above_total(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(n=10, p=8, tau2=1.0, tau2_b=1.5, seed=0)

    def test_rejects_b_size_at_p(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(n=10, p=5, tau2=1.0, tau2_b=0.5, b_size=5, seed=0)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(n=10, p=8, tau2=1.0, tau2_b=0.5, x_dist="cauchy", seed=0)

    def test_rejects_low_t_df(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(n=10, p=8, tau2=1.0, tau2_b=0.5, x_dist="scaled-t(4)", seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n", "10"), ("n", 10.0), ("reps", True), ("seed", -1), ("tau2", "1"),
        ("tau2", float("nan")), ("sigma2", float("inf")), ("tau2_b", False), ("x_dist", None),
    ])
    def test_rejects_bad_field(self, field, value):
        fields = dict(n=10, p=8, tau2=1.0, tau2_b=0.5, seed=0)
        fields[field] = value
        with pytest.raises(InvalidScenario, match=field):
            ScenarioConfig(**fields)

    def test_rejects_int_too_large_for_a_float(self):
        # a JSON scenario file may hold an integer that no float can represent
        with pytest.raises(InvalidScenario, match="tau2 must be finite"):
            ScenarioConfig(n=10, p=8, tau2=10 ** 400, tau2_b=0.5, seed=0)

    def test_accepts_numpy_numbers(self):
        cfg = ScenarioConfig(n=np.int64(10), p=8, tau2=np.float64(1.0), tau2_b=1, seed=0)
        assert (cfg.n, cfg.tau2, cfg.tau2_b) == (10, 1.0, 1)


class TestBuildBeta:
    def test_point_mass_layout(self):
        cfg = ScenarioConfig(n=10, p=400, tau2=1.0, tau2_b=1.0, b_size=5, seed=0)
        beta = build_beta(cfg)
        np.testing.assert_allclose(beta.beta[:5], np.sqrt(0.2), rtol=1e-12)
        np.testing.assert_array_equal(beta.beta[5:], 0.0)

    def test_total_signal_exact(self):
        cfg = ScenarioConfig(n=10, p=400, tau2=1.0, tau2_b=1 / 3, seed=0)
        assert abs(build_beta(cfg).tau2 - 1.0) < 1e-12

    def test_strong_set_mass(self):
        cfg = ScenarioConfig(n=10, p=400, tau2=2.0, tau2_b=2.0 * 2 / 3, seed=0)
        beta = build_beta(cfg)
        np.testing.assert_allclose(np.sum(beta.beta[:5] ** 2), 4.0 / 3.0, rtol=1e-12)

    def test_all_entries_positive(self):
        cfg = ScenarioConfig(n=10, p=50, tau2=1.0, tau2_b=0.4, seed=0)
        assert np.all(build_beta(cfg).beta > 0.0)


class TestGenerateDataset:
    def test_degenerate_zero_response(self):
        cfg = ScenarioConfig(n=20, p=6, tau2=0.0, tau2_b=0.0, sigma2=0.0, seed=1)
        beta = build_beta(cfg)
        ds = generate_dataset(cfg, beta, 0)
        np.testing.assert_array_equal(ds.y, 0.0)

    def test_bitwise_reproducible(self):
        cfg = ScenarioConfig(n=50, p=10, tau2=1.0, tau2_b=0.5, seed=123)
        beta = build_beta(cfg)
        a = generate_dataset(cfg, beta, 3)
        b = generate_dataset(cfg, beta, 3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_reps_differ(self):
        cfg = ScenarioConfig(n=50, p=10, tau2=1.0, tau2_b=0.5, seed=123)
        beta = build_beta(cfg)
        a = generate_dataset(cfg, beta, 0)
        b = generate_dataset(cfg, beta, 1)
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("x_dist", ["gaussian", "scaled-t(7)", "rademacher-mix"])
    def test_column_moments(self, x_dist):
        cfg = ScenarioConfig(n=100_000, p=3, tau2=1.0, tau2_b=0.5, b_size=2, seed=11,
                             x_dist=x_dist)
        beta = build_beta(cfg)
        ds = generate_dataset(cfg, beta, 0)
        n = cfg.n
        mean_se = ds.x.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(ds.x.mean(axis=0)) < 3 * mean_se)
        col_var = ds.x.var(axis=0, ddof=1)
        m4 = fourth_moment_of(x_dist)
        var_se = np.sqrt((m4 - 1.0) / n)  # Var of sample variance, population scale
        assert np.all(np.abs(col_var - 1.0) < 3 * var_se)

    def test_response_variance(self):
        cfg = ScenarioConfig(n=100_000, p=3, tau2=1.0, tau2_b=0.5, b_size=2,
                             sigma2=1.5, seed=12)
        beta = build_beta(cfg)
        ds = generate_dataset(cfg, beta, 0)
        target = cfg.tau2 + cfg.sigma2
        sample = ds.y.var(ddof=1)
        se = np.sqrt(2.0 / (cfg.n - 1)) * target  # Gaussian-ish response
        assert abs(sample - target) < 3 * se

    def test_scaled_t_fourth_moment(self):
        df = 7.0
        cfg = ScenarioConfig(n=1_000_000, p=2, tau2=0.0, tau2_b=0.0, seed=13,
                             b_size=1, x_dist="scaled-t(7)")
        beta = build_beta(cfg)
        ds = generate_dataset(cfg, beta, 0)
        target = 3.0 * (df - 2.0) / (df - 4.0)
        x4 = ds.x[:, 0] ** 4
        se = x4.std(ddof=1) / np.sqrt(cfg.n)
        assert abs(x4.mean() - target) < 3 * se

    def test_rademacher_mix_fourth_moment(self):
        cfg = ScenarioConfig(n=1_000_000, p=2, tau2=0.0, tau2_b=0.0, seed=14,
                             b_size=1, x_dist="rademacher-mix")
        beta = build_beta(cfg)
        ds = generate_dataset(cfg, beta, 0)
        x4 = ds.x[:, 0] ** 4
        se = x4.std(ddof=1) / np.sqrt(cfg.n)
        assert abs(x4.mean() - 2.0) < 3 * se


class TestCovariateModelFor:
    def test_gaussian_flag(self):
        cfg = ScenarioConfig(n=10, p=4, tau2=1.0, tau2_b=0.5, b_size=2, seed=0)
        model = covariate_model_for(cfg)
        assert model.gaussian and np.all(model.fourth_moments == 3.0)

    def test_t_model_not_gaussian(self):
        cfg = ScenarioConfig(n=10, p=4, tau2=1.0, tau2_b=0.5, b_size=2, seed=0,
                             x_dist="scaled-t(8)")
        model = covariate_model_for(cfg)
        assert not model.gaussian
        np.testing.assert_allclose(model.fourth_moments, 4.5)
