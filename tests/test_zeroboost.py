from dataclasses import replace

import numpy as np
import pytest

from varest.errors import DegenerateZeroEstimator, InitialEstimatorFailure, InvalidInput
from varest.estimators import c_star_oracle
from varest.harness import HarnessOptions, estimate
from varest.kernels import ordered_sum
from varest.model import CoefficientVector, CovariateModel, LabeledDataset
from varest.simgen import ScenarioConfig, build_beta, generate_dataset
from varest import harness, zeroboost
from varest.zeroboost import BootstrapConfig, empirical_estimator

from oracles import empirical_loop

GAUSS = CovariateModel.standard_gaussian


def make_ds(seed=0, n=60, p=12, tau2_b=0.5):
    cfg = ScenarioConfig(n=n, p=p, tau2=1.0, tau2_b=tau2_b, seed=seed)
    return generate_dataset(cfg, build_beta(cfg), 0)


class TestBootstrapConfig:
    def test_needs_two_resamples(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_boot=1, seed=0)

    def test_unknown_initial_rejected(self):
        # the bootstrap takes "naive" or a callable; named initials are the harness's
        for initial in ("oracle", "dicker", None, 0.5):
            with pytest.raises(InvalidInput, match="'naive' or a callable"):
                BootstrapConfig(n_boot=2, seed=0, initial_estimator=initial)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
    def test_seed_must_be_non_negative_integer(self, seed):
        # -1 is out of range; the other values are not integers
        with pytest.raises(InvalidInput, match="^seed must be (nonnegative|an integer), got "):
            BootstrapConfig(n_boot=2, seed=seed)

    @pytest.mark.parametrize("fields, message", [
        ({"n_boot": 2.5}, "n_boot must be an integer, got 2.5"),
        ({"n_boot": True}, "n_boot must be an integer, got True"),
        ({"n_boot": "3"}, "n_boot must be an integer, got '3'"),
        ({"n_boot": 1}, "empirical covariance needs n_boot >= 2, got 1"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": np.True_}, "seed must be an integer, got np.True_"),
    ])
    def test_fields_checked_when_built(self, fields, message):
        with pytest.raises(InvalidInput) as info:
            BootstrapConfig(**fields)
        assert str(info.value) == message


class TestEmpiricalEstimator:
    def test_zero_covariance_is_identity(self):
        # a constant initial estimator has zero bootstrap covariance with g_n
        ds = make_ds(1)
        model = GAUSS(12)
        cfg = BootstrapConfig(n_boot=20, seed=5,
                              initial_estimator=lambda d, m: 0.7)
        report = empirical_estimator(ds, model, cfg)
        assert abs(report.aux["c_tilde"]) < 1e-12
        assert abs(report.tau2 - 0.7) < 1e-12

    def test_bitwise_deterministic_serial_vs_parallel(self):
        # resamples no longer run on threads: two calls must agree bitwise,
        # and both must agree with the literal per-resample loop
        ds = make_ds(2)
        model = GAUSS(12)
        cfg = BootstrapConfig(n_boot=40, seed=9, initial_estimator="naive")
        first = empirical_estimator(ds, model, cfg)
        second = empirical_estimator(ds, model, cfg)
        assert first.tau2 == second.tau2
        assert first.aux["c_tilde"] == second.aux["c_tilde"]
        tau2, c_tilde = empirical_loop(ds, model, cfg)
        assert first.tau2 == pytest.approx(tau2, rel=1e-12, abs=0)
        assert first.aux["c_tilde"] == pytest.approx(c_tilde, rel=1e-12, abs=0)

    def test_criterion_11_scenario_matches_pinned_values(self):
        # (tau2, c_tilde) of replications 0-3 of the acceptance criterion-11
        # scenario as computed with every reduction sorted per column; the
        # canonical row order and plain sums reproduce them to 1e-12.
        pinned = [(1.8611156295916622, 0.021115551420066516),
                  (2.2311788156367864, 0.023115155441869505),
                  (1.6104045303203647, 0.027425276438774154),
                  (2.2877551145335757, 0.018808340800218183)]
        cfg = ScenarioConfig(n=400, p=400, tau2=2.0, tau2_b=2.0 / 3.0, sigma2=1.0,
                             b_size=5, reps=1, seed=1111)
        beta, model = build_beta(cfg), GAUSS(400)
        for rep, (tau2, c_tilde) in enumerate(pinned):
            report = empirical_estimator(generate_dataset(cfg, beta, rep), model,
                                         BootstrapConfig(n_boot=200, seed=1000 + rep))
            assert report.tau2 == pytest.approx(tau2, rel=1e-12, abs=0)
            assert report.aux["c_tilde"] == pytest.approx(c_tilde, rel=1e-12, abs=0)

    def test_requires_p_at_least_two(self):
        g = np.random.default_rng(0)
        ds = LabeledDataset(x=g.standard_normal((10, 1)), y=g.standard_normal(10))
        with pytest.raises(DegenerateZeroEstimator):
            empirical_estimator(ds, GAUSS(1), BootstrapConfig(n_boot=5, seed=0))

    def test_initial_failure_carries_resample_index(self):
        ds = make_ds(3)
        model = GAUSS(12)

        calls = {"count": 0}

        def flaky(d, m):
            # succeed on the full data, fail inside the first resample
            calls["count"] += 1
            if calls["count"] > 1:
                raise RuntimeError("boom")
            return 1.0

        cfg = BootstrapConfig(n_boot=5, seed=0, initial_estimator=flaky)
        with pytest.raises(InitialEstimatorFailure) as err:
            empirical_estimator(ds, model, cfg)
        assert err.value.resample_index == 0

    def test_c_tilde_tracks_oracle_coefficient(self):
        # mean of the bootstrap coefficient near c* = 4/p for uniform beta.
        # Run with p well below n: with p of the order of n the bootstrap
        # covariance of the distinct-pair statistic picks up a duplicate-row
        # term that inflates the coefficient (the corrected estimator still
        # helps there, see the acceptance suite).
        n, p, n_boot, reps = 300, 12, 120, 80
        beta = CoefficientVector(np.full(p, 1 / np.sqrt(p)))
        model = GAUSS(p)
        vals = np.empty(reps)
        naive_vals = np.empty(reps)
        emp_vals = np.empty(reps)
        from varest.estimators import naive_tau2
        from varest.model import build_w

        for r in range(reps):
            g = np.random.default_rng(np.random.SeedSequence((777, r)))
            x = g.standard_normal((n, p))
            y = x @ beta.beta + g.standard_normal(n)
            ds = LabeledDataset(x=x, y=y)
            naive_vals[r] = naive_tau2(build_w(ds))
            cfg = BootstrapConfig(n_boot=n_boot, seed=r, initial_estimator="naive")
            report = empirical_estimator(ds, model, cfg)
            vals[r] = report.aux["c_tilde"]
            emp_vals[r] = report.tau2
        c_star = c_star_oracle(beta, model)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - c_star) < 3 * se
        # and the correction clearly reduces the spread in this regime
        assert emp_vals.std(ddof=1) < 0.9 * naive_vals.std(ddof=1)

    def test_mean_zero_instrument(self):
        # g_n over fresh datasets has monte carlo mean near zero
        reps = 400
        vals = np.empty(reps)
        model = GAUSS(12)
        for r in range(reps):
            cfg = ScenarioConfig(n=60, p=12, tau2=1.0, tau2_b=0.5, seed=600 + r)
            ds = generate_dataset(cfg, build_beta(cfg), 0)
            vals[r] = ordered_sum(ds.g) / ds.n
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 3 * se

    def test_report_fields(self):
        ds = make_ds(4)
        model = GAUSS(12)
        cfg = BootstrapConfig(n_boot=25, seed=2, initial_estimator="naive")
        report = empirical_estimator(ds, model, cfg)
        assert report.aux["n_boot"] == 25
        assert report.aux["initial"] == "naive"
        from varest.model import sample_variance_y
        assert report.tau2 + report.sigma2 == pytest.approx(
            sample_variance_y(ds.y), rel=1e-12)


def numpy_rows(n, seed, b):
    """Resample b's row indices as numpy's own call draws them."""
    return np.random.default_rng(np.random.SeedSequence((seed, b))).integers(0, n, size=n)


class TestResampleDraw:
    """The batched draw against numpy's per-resample call, bit for bit."""

    # one, two, three, four and five uint32 entropy words with b
    SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [2, 3, 400, 401])
    @pytest.mark.parametrize("start", [0, 17])
    def test_rows_equal_numpy_call(self, seed, n, start):
        cfg = BootstrapConfig(n_boot=40, seed=seed)
        rows = zeroboost._resample_block(n, cfg, start, 6)
        expected = np.stack([numpy_rows(n, seed, b) for b in range(start, start + 6)])
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(rows, expected)

    def test_rejected_draws_fall_back_to_numpy(self, monkeypatch):
        # at n = 69921, seed 3, three of resamples 0-3 meet a draw that
        # Lemire's method rejects and redraws
        n, seed = 69921, 3
        fallback = []
        resample_rows = zeroboost._resample_rows

        def counted(n, cfg, b):
            fallback.append(b)
            return resample_rows(n, cfg, b)

        monkeypatch.setattr(zeroboost, "_resample_rows", counted)
        rows = zeroboost._resample_block(n, BootstrapConfig(n_boot=4, seed=seed), 0, 4)
        assert fallback == [1, 2, 3]
        np.testing.assert_array_equal(rows, np.stack([numpy_rows(n, seed, b) for b in range(4)]))


class TestCountForms:
    """The count-matrix ``naive`` initial against the literal per-resample rebuild."""

    @pytest.mark.parametrize("n, p", [(60, 12), (40, 40), (30, 70)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_boot", [2, 40])
    def test_matches_loop(self, n, p, seed, n_boot):
        ds = make_ds(seed, n=n, p=p)
        model = GAUSS(p)
        cfg = BootstrapConfig(n_boot=n_boot, seed=seed + 3, initial_estimator="naive")
        report = empirical_estimator(ds, model, cfg)
        tau2, c_tilde = empirical_loop(ds, model, cfg)
        assert report.tau2 == pytest.approx(tau2, rel=1e-12, abs=0)
        assert report.aux["c_tilde"] == pytest.approx(c_tilde, rel=1e-12, abs=0)

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_blocks_match_loop(self, monkeypatch, per_block):
        # tall data builds the count matrix a block of resamples at a time;
        # a ragged last block must not change the result
        ds = make_ds(4, n=30, p=10)
        model = GAUSS(10)
        monkeypatch.setattr(zeroboost, "_BLOCK_ELEMS", per_block * ds.n)
        cfg = BootstrapConfig(n_boot=20, seed=2, initial_estimator="naive")
        report = empirical_estimator(ds, model, cfg)
        tau2, c_tilde = empirical_loop(ds, model, cfg)
        assert report.tau2 == pytest.approx(tau2, rel=1e-12, abs=0)
        assert report.aux["c_tilde"] == pytest.approx(c_tilde, rel=1e-12, abs=0)

    @pytest.mark.parametrize("initial, per_resample", [
        ("naive", False), ("dicker", True), ("single", True),
        ("full", True), ("selection", True), ("custom", True),
    ])
    def test_which_initials_run_per_resample(self, monkeypatch, initial, per_resample):
        # naive is never called: its full-data value reads the dataset's W and
        # its resamples come from the count matrix; every other initial is
        # called on the full data and once more per rebuilt resample
        ds = make_ds(5, n=40, p=8)
        model = GAUSS(8)
        cfg = BootstrapConfig(n_boot=6, seed=1)
        calls = []
        if initial == "custom":
            def custom(d, m):
                calls.append(d.n)
                return float(d.y[0] ** 2)

            report = empirical_estimator(ds, model, replace(cfg, initial_estimator=custom))
            initial = custom
        else:
            entry = harness._INITIALS[initial]

            def counted(d, m):
                calls.append(d.n)
                return entry(d, m)

            monkeypatch.setitem(harness._INITIALS, initial, counted)
            options = HarnessOptions(boot=cfg.n_boot, initial=initial)
            report = estimate(ds, model, "empirical", options=options, boot_seed=cfg.seed)
            assert report.aux["initial"] == initial
        assert len(calls) == (1 + cfg.n_boot if per_resample else 0)
        tau2, c_tilde = empirical_loop(ds, model, cfg, initial)
        assert report.tau2 == pytest.approx(tau2, rel=1e-12, abs=0)
        assert report.aux["c_tilde"] == pytest.approx(c_tilde, rel=1e-12, abs=0)
