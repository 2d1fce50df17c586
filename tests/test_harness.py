import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from varest.errors import InsufficientRecords, VarestError
from varest.estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    build_single_zero,
    dicker_tau2,
    naive_tau2,
    sigma2_from,
    t_c_hat_star,
    t_full,
    t_oracle,
)
from varest.harness import (
    DatasetStats,
    HarnessOptions,
    RepRecord,
    estimate,
    read_records_csv,
    run_scenario,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from varest.kernels import gram, ordered_col_sums
from varest.model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    build_w,
    sample_variance_y,
)
from varest.selection import beta_squared_estimates, split_rows, t_gamma
from varest.simgen import ScenarioConfig, build_beta, covariate_model_for, generate_dataset
from varest.variance import (
    var_hat_naive_gaussian,
    var_hat_t_gamma,
    var_tilde_naive,
    var_tilde_t_chat,
    var_tilde_t_gamma,
)
from varest.zeroboost import BootstrapConfig, empirical_estimator


def small_cfg(**overrides):
    fields = dict(n=30, p=8, tau2=1.0, tau2_b=0.5, sigma2=1.0, b_size=3,
                  reps=4, seed=99)
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestRunScenario:
    def test_single_record(self):
        records = run_scenario(small_cfg(reps=1), ["naive"])
        assert len(records) == 1
        assert records[0].estimator_id == "naive"
        assert records[0].rep_index == 0

    def test_same_seed_identical(self):
        a = run_scenario(small_cfg(), ["naive", "single"])
        b = run_scenario(small_cfg(), ["naive", "single"])
        assert [(r.rep_index, r.estimator_id, r.tau2_hat) for r in a] == \
            [(r.rep_index, r.estimator_id, r.tau2_hat) for r in b]

    def test_parallel_matches_serial(self):
        cfg = small_cfg(reps=6)
        serial = run_scenario(cfg, ["naive", "oracle"], HarnessOptions(workers=1))
        parallel = run_scenario(cfg, ["naive", "oracle"], HarnessOptions(workers=2))
        key = lambda r: (r.rep_index, r.estimator_id)
        assert sorted([(key(r), r.tau2_hat) for r in serial]) == \
            sorted([(key(r), r.tau2_hat) for r in parallel])

    def test_all_requested_estimators_present(self):
        ids = ["naive", "dicker", "oracle", "full", "single", "selection"]
        records = run_scenario(small_cfg(reps=2), ids)
        assert len(records) == 12
        assert {r.estimator_id for r in records} == set(ids)

    def test_failure_recorded_not_fatal(self):
        # p=1 degenerates the single-correction path; the record is flagged
        cfg = ScenarioConfig(n=10, p=2, tau2=1.0, tau2_b=0.5, b_size=1, reps=1,
                             seed=1)
        records = run_scenario(cfg, ["single"])
        assert len(records) == 1
        assert math.isfinite(records[0].tau2_hat)  # p=2 works fine
        cfg_bad = ScenarioConfig(n=4, p=2, tau2=1.0, tau2_b=0.5, b_size=1,
                                 reps=1, seed=1)
        # force an error by requesting oracle without beta through estimate()
        ds = generate_dataset(cfg_bad, build_beta(cfg_bad), 0)
        with pytest.raises(VarestError):
            estimate(DatasetStats(ds, covariate_model_for(cfg_bad)), "oracle")

    def test_variance_attached_when_requested(self):
        records = run_scenario(small_cfg(reps=2), ["naive"],
                               HarnessOptions(variance_method="gaussian-plugin"))
        assert all(r.variance_estimate is not None for r in records)


def two_step(ds, model, eid, beta, options, boot_seed):
    """The public functions composed as estimate-then-attach-variance.

    Split selection estimates on, and takes its variance from, the second
    block of rows.
    """
    select_w = None
    if eid == "selection" and options.select_split:
        select_ds, ds = split_rows(ds, options.select_split_fraction)
        select_w = build_w(select_ds)
    w = build_w(ds)
    if eid == "selection":
        report = t_gamma(ds, w, select_w=select_w, cap=options.select_cap)
    elif eid == "empirical":
        report = empirical_estimator(DatasetStats(ds, model), BootstrapConfig(
            n_boot=options.boot, seed=boot_seed, initial_estimator=options.initial))
    else:
        tau2 = {
            "naive": lambda: naive_tau2(w),
            "dicker": lambda: dicker_tau2(ds, w),
            "full": lambda: t_full(ds, w),
            "single": lambda: t_c_hat_star(w, build_single_zero(ds, model)),
            "oracle": lambda: t_oracle(ds, w, beta),
        }[eid]()
        report = EstimateReport(tau2, sigma2_from(tau2, sample_variance_y(ds.y)), eid)
    method = options.variance_method
    if method is None:
        return report
    aux, value = dict(report.aux), None
    selected = aux.get("selected", ())
    if method == "gaussian-plugin":
        if not model.gaussian:
            aux["variance_warning"] = "gaussian-plugin requested for a non-gaussian model"
        base = var_hat_naive_gaussian(naive_tau2(w), sample_variance_y(ds.y), ds.n, ds.p)
        if eid in ("naive", "dicker"):
            value = base
        elif eid == "selection":
            value = var_hat_t_gamma(base, beta_squared_estimates(w), selected, ds.n)
    else:
        base = var_tilde_naive(w, gram(w), ds.n)
        if eid in ("naive", "dicker"):
            value = base
        elif eid == "selection":
            value = var_tilde_t_gamma(base, beta_squared_estimates(w), selected, model, ds.n)
        elif eid == "single":
            value = var_tilde_t_chat(base, w, build_single_zero(ds, model), ds.n)
    if value is not None and value < 0.0:
        aux["variance_warning"] = "negative variance estimate (reported raw)"
    return replace(report, variance_estimate=value, aux=aux)


# Both draw a non-empty selected set and negative tilde variances; the
# rademacher-mix one also draws the non-gaussian plug-in warning.
DISPATCH_CASES = {"gaussian": dict(n=12, p=20), "rademacher-mix": dict(n=8, p=30)}


def assert_matches_two_step(eid, method, x_dist, select_split):
    cfg = small_cfg(x_dist=x_dist, reps=1, **DISPATCH_CASES[x_dist])
    beta, model = build_beta(cfg), covariate_model_for(cfg)
    ds = generate_dataset(cfg, beta, 0)
    options = HarnessOptions(variance_method=method, boot=20, select_split=select_split)
    got = estimate(DatasetStats(ds, model), eid, beta=beta, options=options, boot_seed=7)
    want = two_step(ds, model, eid, beta, options, boot_seed=7)
    assert (got.estimator_id, got.tau2, got.sigma2, got.variance_estimate, got.aux) == \
        (want.estimator_id, want.tau2, want.sigma2, want.variance_estimate, want.aux)


class TestEstimateDispatch:
    @pytest.mark.parametrize("x_dist", sorted(DISPATCH_CASES))
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_matches_two_step(self, eid, method, x_dist):
        assert_matches_two_step(eid, method, x_dist, select_split=False)

    @pytest.mark.parametrize("x_dist", sorted(DISPATCH_CASES))
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_split_matches_two_step(self, eid, method, x_dist):
        # the split option reaches selection only; every other estimator ignores it
        assert_matches_two_step(eid, method, x_dist, select_split=True)

    @staticmethod
    def _count_builds(monkeypatch):
        """Count the calls of every binding that builds a per-dataset statistic."""
        import varest.harness as harness
        import varest.selection as selection
        import varest.zeroboost as zeroboost

        calls = {"build_w": 0, "gram": 0, "build_single_zero": 0}
        for module in (harness, selection, zeroboost):
            for name in calls:
                if not hasattr(module, name):
                    continue

                def counted(*args, _fn=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_statistics_built_once(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        cfg = small_cfg(reps=1)
        beta = build_beta(cfg)
        stats = DatasetStats(generate_dataset(cfg, beta, 0), covariate_model_for(cfg))
        for eid in ESTIMATOR_IDS:
            estimate(stats, eid, beta=beta, options=HarnessOptions(variance_method="tilde", boot=5))
        assert calls == {"build_w": 1, "gram": 1, "build_single_zero": 1}

    @pytest.mark.parametrize("method", [None, "tilde"])
    def test_split_selection_builds_two_w(self, monkeypatch, method):
        # one W per row block; the full data's W is not read
        calls = self._count_builds(monkeypatch)
        cfg = small_cfg(reps=1)
        stats = DatasetStats(generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg))
        estimate(stats, "selection",
                 options=HarnessOptions(variance_method=method, select_split=True))
        assert calls["build_w"] == 2

    @pytest.mark.parametrize("method", ["gaussian-plugin", "tilde"])
    def test_split_selection_variance_reads_estimation_block(self, method):
        cfg = small_cfg(n=40, p=20, reps=1, seed=3)  # selects five columns
        beta, model = build_beta(cfg), covariate_model_for(cfg)
        ds = generate_dataset(cfg, beta, 0)
        options = HarnessOptions(variance_method=method, select_split=True)
        got = estimate(DatasetStats(ds, model), "selection", options=options)
        selected, k = got.aux["selected"], got.aux["n_select_rows"]
        assert selected and 0 < k < ds.n

        def composed(block):
            w, n = build_w(block), block.n
            if method == "gaussian-plugin":
                base = var_hat_naive_gaussian(naive_tau2(w), sample_variance_y(block.y), n, block.p)
                return var_hat_t_gamma(base, beta_squared_estimates(w), selected, n)
            base = var_tilde_naive(w, gram(w), n)
            return var_tilde_t_gamma(base, beta_squared_estimates(w), selected, model, n)

        assert got.variance_estimate == composed(LabeledDataset(ds.x[k:], ds.y[k:]))
        assert got.variance_estimate != composed(ds)

    @pytest.mark.parametrize("method", [None, "tilde"])
    def test_single_sorts_no_columns(self, monkeypatch, method):
        # c-hat's numerator reduces each row of W to a scalar before its one sorted sum
        import varest.estimators as estimators

        calls = []

        def counted(a):
            calls.append(a.shape)
            return ordered_col_sums(a)
        monkeypatch.setattr(estimators, "ordered_col_sums", counted)
        cfg = small_cfg(reps=1)
        stats = DatasetStats(generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg))
        estimate(stats, "single", options=HarnessOptions(variance_method=method))
        assert calls == []

    def test_unknown_variance_method(self):
        cfg = small_cfg(reps=1)
        stats = DatasetStats(generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg))
        with pytest.raises(VarestError, match="variance method"):
            estimate(stats, "full", options=HarnessOptions(variance_method="bogus"))


class TestFiniteOut:
    """Finite input gives finite reported numbers or a typed error, never a warning."""

    @staticmethod
    def _dataset(kind):
        g = np.random.default_rng(5)
        x, y = g.standard_normal((6, 3)), g.standard_normal(6)
        if kind == "large-cell":
            x[2, 1] = 1e200
        else:
            x = x * 1e-200
        return LabeledDataset(x=x, y=y)

    @pytest.mark.parametrize("kind", ["large-cell", "tiny"])
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_finite_or_varest_error(self, eid, method, kind):
        stats = DatasetStats(self._dataset(kind), CovariateModel.standard_gaussian(3))
        beta = CoefficientVector(np.full(3, 0.5))
        options = HarnessOptions(variance_method=method, boot=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = estimate(stats, eid, beta=beta, options=options)
            except VarestError:
                return
        numbers = (report.tau2, report.sigma2, report.variance_estimate)
        assert all(v is None or math.isfinite(v) for v in numbers)


class TestSummarize:
    def _records(self, values, eid="naive"):
        return [RepRecord(rep_index=i, estimator_id=eid, tau2_hat=v,
                          sigma2_hat=0.0) for i, v in enumerate(values)]

    def test_hand_example(self):
        # errors (0.1, -0.1, 0.2) around truth 1.0
        recs = self._records([1.1, 0.9, 1.2])
        s = summarize(recs, 1.0)[0]
        assert s.rmse == pytest.approx(math.sqrt(0.02), rel=1e-9)
        sd_e2 = np.std([0.01, 0.01, 0.04], ddof=1)
        assert s.rmse_sd == pytest.approx(sd_e2 / (2 * math.sqrt(0.02) * math.sqrt(3)),
                                          rel=1e-9)

    def test_all_exact_zero_stats(self):
        recs = self._records([2.0, 2.0, 2.0])
        s = summarize(recs, 2.0)[0]
        assert s.bias == 0.0 and s.se == 0.0 and s.rmse == 0.0 and s.rmse_sd == 0.0

    def test_bias_sign_convention(self):
        # mean above truth reports negative bias
        s = summarize(self._records([1.2, 1.2]), 1.0)[0]
        assert s.bias == pytest.approx(-0.2, rel=1e-12)

    def test_rmse_decomposition(self):
        g = np.random.default_rng(8)
        values = list(1.0 + 0.3 * g.standard_normal(50))
        s = summarize(self._records(values), 1.0)[0]
        m = len(values)
        lhs = s.rmse ** 2
        rhs = s.bias ** 2 + s.se ** 2 * (m - 1) / m
        assert abs(lhs - rhs) < 1e-10

    def test_permutation_invariant(self):
        g = np.random.default_rng(9)
        values = list(g.standard_normal(20) + 1.0)
        recs = self._records(values)
        shuffled = list(recs)
        g.shuffle(shuffled)
        a = summarize(recs, 1.0)[0]
        b = summarize(shuffled, 1.0)[0]
        assert (a.mean, a.bias, a.se, a.rmse, a.rmse_sd) == \
            (b.mean, b.bias, b.se, b.rmse, b.rmse_sd)

    def test_insufficient_records(self):
        with pytest.raises(InsufficientRecords):
            summarize(self._records([1.0]), 1.0)

    def test_rmse_sd_scales_with_reps(self):
        g = np.random.default_rng(10)
        pool = 1.0 + 0.3 * g.standard_normal(4000)
        small = summarize(self._records(list(pool[:1000])), 1.0)[0]
        large = summarize(self._records(list(pool)), 1.0)[0]
        ratio = small.rmse_sd / large.rmse_sd
        assert abs(ratio - 2.0) < 0.35  # 1/sqrt(reps) scaling, within noise


class TestCsvRoundTrip:
    def test_records_round_trip(self, tmp_path):
        records = run_scenario(small_cfg(reps=3), ["naive", "single"],
                               HarnessOptions(variance_method="tilde"))
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        back = read_records_csv(path)
        assert len(back) == len(records)
        for orig, parsed in zip(records, back):
            assert parsed.rep_index == orig.rep_index
            assert parsed.estimator_id == orig.estimator_id
            assert parsed.tau2_hat == pytest.approx(orig.tau2_hat, rel=1e-5)

    def test_summary_written(self, tmp_path):
        records = run_scenario(small_cfg(reps=3), ["naive"])
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summarize(records, 1.0))
        text = path.read_text().splitlines()
        assert text[0] == "estimator,mean,bias,se,rmse,rmse_sd"
        assert text[1].startswith("naive,")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(VarestError):
            read_records_csv(path)
