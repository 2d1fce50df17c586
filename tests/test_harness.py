import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varest.errors import (
    DimensionMismatch,
    InsufficientRecords,
    InvalidInput,
    NonFiniteResult,
    VarestError,
)
from varest.estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    dicker_tau2,
    naive_tau2,
    sigma2_from,
    t_c_hat_star,
    t_b,
    t_full,
    t_oracle,
)
from varest.harness import (
    INITIAL_IDS,
    VARIANCE_METHODS,
    HarnessOptions,
    RepRecord,
    SummaryStats,
    csv_rows,
    estimate,
    format_value,
    read_records_csv,
    run_scenario,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from varest.kernels import chain_sum_distinct, gram, offdiag_square_sum, ordered_col_sums
from varest.model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    build_w,
    sample_variance_y,
)
from varest.selection import split_rows, t_gamma
from varest.simgen import ScenarioConfig, build_beta, covariate_model_for, generate_dataset
from varest.variance import (
    var_hat_naive_gaussian,
    var_hat_t_gamma,
    var_tilde_naive,
    var_tilde_t_chat,
    var_tilde_t_gamma,
)
from varest.zeroboost import BootstrapConfig, empirical_estimator

import oracles


# The first line of a records CSV.
HEADER = b"rep,estimator,tau2_hat,sigma2_hat,var_hat,wall_ms\n"


def small_cfg(**overrides):
    fields = dict(n=30, p=8, tau2=1.0, tau2_b=0.5, sigma2=1.0, b_size=3,
                  reps=4, seed=99)
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestHarnessOptions:
    @pytest.mark.parametrize("fields, message", [
        ({"variance_method": "tildee"}, "unknown variance method 'tildee'"),
        ({"variance_method": ""}, "unknown variance method ''"),
        ({"workers": 0}, "workers must be at least 1, got 0"),
        ({"workers": -3}, "workers must be at least 1, got -3"),
        ({"select_split": "yes"}, "select_split must be a number or None, got 'yes'"),
        ({"select_split": True}, "select_split must be a number or None, got True"),
        ({"select_split": 1.5}, "select_split must be in (0, 1), got 1.5"),
        ({"select_split": 0}, "select_split must be in (0, 1), got 0"),
        ({"select_split": 1.0}, "select_split must be in (0, 1), got 1.0"),
        ({"select_split": float("nan")}, "select_split must be finite, got nan"),
        ({"select_split": 1}, "select_split must be in (0, 1), got 1"),
        ({"select_cap": -1}, "select_cap must be nonnegative, got -1"),
        ({"select_cap": True}, "select_cap must be an integer or None, got True"),
        ({"select_cap": 2.0}, "select_cap must be an integer or None, got 2.0"),
        ({"boot": 1}, "boot must be at least 2, got 1"),
        ({"boot": -5}, "boot must be at least 2, got -5"),
        ({"boot": 2.5}, "boot must be an integer, got 2.5"),
        ({"initial": "bogus"}, "unknown initial estimator 'bogus'; expected one of "
                               "['naive', 'dicker', 'full', 'single', 'selection']"),
        ({"initial": None}, "initial must be a string, got None"),
        ({"variance_method": 1}, "variance_method must be a string or None, got 1"),
        ({"workers": 2.0}, "workers must be an integer, got 2.0"),
        ({"workers": False}, "workers must be an integer, got False"),
    ])
    def test_bad_value_rejected_when_built(self, fields, message):
        # every field is checked, whatever estimators the options will serve
        with pytest.raises(InvalidInput, match=re.escape(message)):
            HarnessOptions(**fields)

    @pytest.mark.parametrize("ids, options", [
        (["bogus"], {}),
        (["naive", "bogus"], {}),
        ([], {}),
        (["empirical"], {"boot": 1}),
        (["naive"], {"boot": 1}),
        (["selection"], {"select_cap": -1}),
        (["empirical"], {"initial": "oracle"}),
    ])
    def test_bad_request_draws_no_dataset(self, monkeypatch, ids, options):
        import varest.harness as harness

        def no_draw(*args):
            raise AssertionError("generate_dataset ran")

        monkeypatch.setattr(harness, "generate_dataset", no_draw)
        with pytest.raises(InvalidInput):
            run_scenario(small_cfg(reps=2), ids, HarnessOptions(**options))

    def test_bad_variance_method_never_reaches_a_run(self):
        # it used to give one NaN record per replication and estimator, raising nothing
        cfg = ScenarioConfig(n=30, p=10, tau2=1, tau2_b=0.5, reps=3, seed=1)
        with pytest.raises(InvalidInput):
            run_scenario(cfg, ["naive", "selection", "empirical"],
                         HarnessOptions(variance_method="tildee"))


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
            estimate(ds, covariate_model_for(cfg_bad), "oracle")

    def test_variance_attached_when_requested(self):
        records = run_scenario(small_cfg(reps=2), ["naive"],
                               HarnessOptions(variance_method="gaussian-plugin"))
        assert all(r.variance_estimate is not None for r in records)


class TestEstimateModel:
    def test_model_of_another_width_rejected(self, monkeypatch):
        # an 8-column dataset whose strong columns 5 and 6 lie past a 3-column model,
        # rejected by every estimator before any statistic of the rows is built
        calls = TestEstimateDispatch._count_builds(monkeypatch)
        g = np.random.default_rng(1)
        x = g.standard_normal((200, 8))
        ds = LabeledDataset(x=x, y=x @ np.array([0, 0, 0, 0, 0, 3.0, 3.2, 0])
                            + g.standard_normal(200))
        model = CovariateModel.independent(3, 3.0, gaussian=True)
        for eid in ESTIMATOR_IDS:
            with pytest.raises(DimensionMismatch, match="model has p = 3, the dataset p = 8"):
                estimate(ds, model, eid, beta=CoefficientVector(np.ones(8)))
        assert calls == {"build_w": 0, "gram": 0, "build_single_zero": 0}


def two_step(ds, model, eid, beta, options, boot_seed):
    """The public functions composed as estimate-then-attach-variance.

    Split selection estimates on, and takes its variance from, the second
    block of rows.
    """
    select = None
    if eid == "selection" and options.select_split is not None:
        select, ds = split_rows(ds, options.select_split)
    w = build_w(ds)
    if eid == "selection":
        report = t_gamma(ds, select=select, cap=options.select_cap)
    elif eid == "empirical":
        report = empirical_estimator(ds, model, BootstrapConfig(
            n_boot=options.boot, seed=boot_seed, initial_estimator=options.initial))
    else:
        tau2 = {
            "naive": lambda: naive_tau2(w),
            "dicker": lambda: dicker_tau2(ds),
            "full": lambda: t_full(ds),
            "single": lambda: t_c_hat_star(ds, model),
            "oracle": lambda: t_oracle(ds, beta),
        }[eid]()
        report = EstimateReport(tau2, sigma2_from(tau2, sample_variance_y(ds.y)))
    method = options.variance_method
    if method is None:
        return report
    aux, value, warned = dict(report.aux), None, []
    selected = aux.get("selected", ())
    if method == "gaussian-plugin":
        if not model.gaussian:
            warned.append("gaussian-plugin requested for a non-gaussian model")
        base = var_hat_naive_gaussian(naive_tau2(w), sample_variance_y(ds.y), ds.n, ds.p)
        if eid in ("naive", "dicker"):
            value = base
        elif eid == "selection":
            value = var_hat_t_gamma(base, ds, selected)
    else:
        base = tilde_base(ds)
        if eid in ("naive", "dicker"):
            value = base
        elif eid == "selection":
            value = var_tilde_t_gamma(base, ds, selected, model)
        elif eid == "single":
            value = var_tilde_t_chat(base, ds, model)
    if value is not None and value < 0.0:
        warned.append("negative variance estimate (reported raw)")
    if warned:
        aux["variance_warning"] = " and ".join(warned)
    return replace(report, variance_estimate=value, aux=aux)


def tilde_base(ds):
    """The tilde naive variance, W's Gram statistics read as ``gram(X, Y)`` rows scaled by Y.

    Within 1e-12 of the same variance from the Gram product of W itself.
    """
    base = var_tilde_naive(ds)
    w, g, n = build_w(ds), gram(ds.w.w), ds.n
    beta4 = naive_tau2(w) ** 2
    from_w = (4.0 * (n - 2) / (n * (n - 1))
              * (chain_sum_distinct(g) / (n * (n - 1) * (n - 2)) - beta4)
              + 2.0 / (n * (n - 1)) * (offdiag_square_sum(g) / (n * (n - 1)) - beta4))
    assert base == pytest.approx(from_w, rel=1e-12)
    return base


# Both draw a non-empty selected set and negative tilde variances; the
# rademacher-mix one also draws the non-gaussian plug-in warning.
DISPATCH_CASES = {"gaussian": dict(n=12, p=20), "rademacher-mix": dict(n=8, p=30)}


def assert_matches_two_step(eid, method, x_dist, select_split):
    cfg = small_cfg(x_dist=x_dist, reps=1, **DISPATCH_CASES[x_dist])
    beta, model = build_beta(cfg), covariate_model_for(cfg)
    ds = generate_dataset(cfg, beta, 0)
    options = HarnessOptions(variance_method=method, boot=20, select_split=select_split)
    got = estimate(ds, model, eid, beta=beta, options=options, boot_seed=7)
    want = two_step(ds, model, eid, beta, options, boot_seed=7)
    assert (got.tau2, got.sigma2, got.variance_estimate, got.aux) == \
        (want.tau2, want.sigma2, want.variance_estimate, want.aux)


class TestEstimateDispatch:
    @pytest.mark.parametrize("x_dist", sorted(DISPATCH_CASES))
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_matches_two_step(self, eid, method, x_dist):
        assert_matches_two_step(eid, method, x_dist, select_split=None)

    @pytest.mark.parametrize("x_dist", sorted(DISPATCH_CASES))
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_split_matches_two_step(self, eid, method, x_dist):
        # the split option reaches selection only; every other estimator ignores it
        assert_matches_two_step(eid, method, x_dist, select_split=0.5)

    @staticmethod
    def _count_builds(monkeypatch):
        """Count the calls of every function that builds a per-dataset statistic, through
        every module of the package that binds it."""
        import varest.kernels as kernels
        import varest.model as model

        calls = {"build_w": 0, "gram": 0, "build_single_zero": 0}
        for fn in (model.build_w, kernels.gram, model.build_single_zero):
            def counted(*args, _fn=fn):
                calls[_fn.__name__] += 1
                return _fn(*args)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "varest" and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    def test_statistics_built_once(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        cfg = small_cfg(reps=1)
        beta = build_beta(cfg)
        ds, model = generate_dataset(cfg, beta, 0), covariate_model_for(cfg)
        for eid in ESTIMATOR_IDS:
            estimate(ds, model, eid, beta=beta,
                     options=HarnessOptions(variance_method="tilde", boot=5))
        assert calls == {"build_w": 1, "gram": 1, "build_single_zero": 1}

    @pytest.mark.parametrize("method", [None, "tilde"])
    def test_split_selection_builds_two_w(self, monkeypatch, method):
        # one W per row block; the full data's W is not read
        calls = self._count_builds(monkeypatch)
        cfg = small_cfg(reps=1)
        estimate(generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg),
                 "selection", options=HarnessOptions(variance_method=method, select_split=0.5))
        assert calls["build_w"] == 2

    @pytest.mark.parametrize("method", ["gaussian-plugin", "tilde"])
    def test_split_selection_variance_reads_estimation_block(self, method):
        cfg = small_cfg(n=40, p=20, reps=1, seed=3)  # selects five columns
        beta, model = build_beta(cfg), covariate_model_for(cfg)
        ds = generate_dataset(cfg, beta, 0)
        options = HarnessOptions(variance_method=method, select_split=0.5)
        got = estimate(ds, model, "selection", options=options)
        selected, k = got.aux["selected"], got.aux["n_select_rows"]
        assert selected and 0 < k < ds.n

        def composed(block):
            if method == "gaussian-plugin":
                base = var_hat_naive_gaussian(naive_tau2(build_w(block)),
                                              sample_variance_y(block.y), block.n, block.p)
                return var_hat_t_gamma(base, block, selected)
            return var_tilde_t_gamma(tilde_base(block), block, selected, model)

        rest = ds.rank[k:]  # the caller's trailing rows
        assert got.variance_estimate == composed(LabeledDataset(ds.x[rest], ds.y[rest]))
        assert got.variance_estimate != composed(ds)

    @pytest.mark.parametrize("method", [None, "tilde"])
    def test_single_sorts_no_columns(self, monkeypatch, method):
        # c-hat's numerator reduces each row of W to a scalar before its one sum; no
        # column pass runs after W is built
        import varest.model as model

        calls = []

        def counted(a):
            calls.append(a.shape)
            return ordered_col_sums(a)
        monkeypatch.setattr(model, "ordered_col_sums", counted)
        cfg = small_cfg(reps=1)
        ds = generate_dataset(cfg, build_beta(cfg), 0)
        assert ds.w.n == cfg.n and calls == [(cfg.n, cfg.p)]
        calls.clear()
        estimate(ds, covariate_model_for(cfg), "single",
                 options=HarnessOptions(variance_method=method))
        assert calls == []

    def test_one_column_pass_per_matrix(self, monkeypatch):
        # build_w takes both the column sums and square sums from one call;
        # t_full reduces its pair matrix in place, with no column pass
        import varest.model as model

        calls = []

        def counted(a):
            calls.append(a.shape)
            return ordered_col_sums(a)
        monkeypatch.setattr(model, "ordered_col_sums", counted)
        cfg = small_cfg(reps=1)
        ds = generate_dataset(cfg, build_beta(cfg), 0)
        assert ds.w.n == cfg.n and calls == [(cfg.n, cfg.p)]
        t_full(ds)
        assert calls == [(cfg.n, cfg.p)]

    # every id with tilde makes one product: test_statistics_built_once
    @pytest.mark.parametrize("ids, method, products", [
        ("full", None, 1),
        ("naive,dicker,single,selection", "tilde", 1),
        ("naive", None, 0),
    ])
    def test_one_gram_product_per_dataset(self, monkeypatch, ids, method, products):
        # full and the tilde variances read the one product gram(X, Y)
        calls = self._count_builds(monkeypatch)
        cfg = small_cfg(reps=1)
        ds, model = generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg)
        for eid in ids.split(","):
            estimate(ds, model, eid, options=HarnessOptions(variance_method=method))
        assert calls["gram"] == products

    def test_cli_estimate_makes_one_gram_product(self, monkeypatch, tmp_path, capsys):
        import varest.cli

        calls = self._count_builds(monkeypatch)
        g = np.random.default_rng(4)
        x = g.standard_normal((12, 5))
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        np.savetxt(data, np.column_stack([x @ np.full(5, 0.4) + g.standard_normal(12), x]),
                   delimiter=",", header="y," + ",".join(f"x{j + 1}" for j in range(5)),
                   comments="")
        model.write_text('{"covariance": "identity", "gaussian": true}')
        assert varest.cli.main(["estimate", "--data", str(data), "--model", str(model),
                                "--estimators", "naive,dicker,full,single,selection",
                                "--variance", "tilde"]) == 0
        assert calls["gram"] == 1
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_accepts_every_estimator_id(self):
        cfg = small_cfg(reps=1)
        beta = build_beta(cfg)
        ds, model = generate_dataset(cfg, beta, 0), covariate_model_for(cfg)
        for eid in ESTIMATOR_IDS:
            report = estimate(ds, model, eid, beta=beta if eid == "oracle" else None,
                              options=HarnessOptions(boot=5))
            assert math.isfinite(report.tau2), eid

    @pytest.mark.parametrize("eid, message", [
        ("bogus", "unknown estimator ids ['bogus']"),
        ("oracle", "the oracle estimator needs the true beta"),
    ])
    def test_bad_request_is_invalid_input(self, eid, message):
        cfg = small_cfg(reps=1)
        ds, model = generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg)
        with pytest.raises(InvalidInput, match=re.escape(message)):
            estimate(ds, model, eid)

    def test_initials_are_estimator_ids(self):
        assert "naive" in INITIAL_IDS
        assert set(INITIAL_IDS) <= set(ESTIMATOR_IDS)

    @pytest.mark.parametrize("initial", ["oracle", "empirical", "custom"])
    def test_unknown_initial_rejected(self, initial):
        cfg = small_cfg(reps=1)
        ds, model = generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg)
        with pytest.raises(InvalidInput, match="unknown initial estimator"):
            estimate(ds, model, "empirical", options=HarnessOptions(boot=5, initial=initial))

    def test_keeps_both_variance_warnings(self):
        # a negative plug-in variance on a non-gaussian model carries both warnings
        cfg = ScenarioConfig(n=200, p=2, tau2=0.001, tau2_b=0.0005, b_size=1, reps=40,
                             seed=3, x_dist="rademacher-mix")
        records = run_scenario(cfg, ["naive"], HarnessOptions(variance_method="gaussian-plugin"))
        non_gaussian = "gaussian-plugin requested for a non-gaussian model"
        negative = "negative variance estimate (reported raw)"
        warnings_seen = [r.aux["variance_warning"] for r in records]
        assert sum(r.variance_estimate < 0.0 for r in records) == 8
        assert warnings_seen == [f"{non_gaussian} and {negative}" if r.variance_estimate < 0.0
                                 else non_gaussian for r in records]

    def test_unknown_variance_method(self):
        cfg = small_cfg(reps=1)
        ds, model = generate_dataset(cfg, build_beta(cfg), 0), covariate_model_for(cfg)
        with pytest.raises(VarestError, match="variance method"):
            estimate(ds, model, "full", options=HarnessOptions(variance_method="bogus"))


class TestScaling:
    """Scaling y by 2^k scales tau2 and sigma2 by exactly 4^k and a variance estimate by
    16^k, for every estimator and variance method (the oracle's beta scaled by 2^k too)."""

    @pytest.mark.parametrize("select_split", [None, 0.5], ids=["whole", "split"])
    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ESTIMATOR_IDS)
    def test_y_power_of_two_scales_exactly(self, eid, method, select_split):
        options = HarnessOptions(variance_method=method, boot=20, select_split=select_split)
        for x_dist in sorted(DISPATCH_CASES):
            cfg = small_cfg(x_dist=x_dist, reps=1, **DISPATCH_CASES[x_dist])
            beta, model = build_beta(cfg), covariate_model_for(cfg)
            ds = generate_dataset(cfg, beta, 0)
            base = estimate(ds, model, eid, beta=beta, options=options,
                            boot_seed=7)
            for k in (-3, 5, 40):
                # in the generated row order, which split blocks and resamples index
                scaled = LabeledDataset(x=ds.x[ds.rank], y=ds.y[ds.rank] * 2.0**k)
                got = estimate(scaled, model, eid,
                               beta=CoefficientVector(beta.beta * 2.0**k), options=options,
                               boot_seed=7)
                assert (got.tau2, got.sigma2) == (base.tau2 * 4.0**k, base.sigma2 * 4.0**k)
                if base.variance_estimate is None:
                    assert got.variance_estimate is None
                else:
                    assert got.variance_estimate == base.variance_estimate * 16.0**k


# Row permutation: 2 designs x 3 shapes x 4 seeds, each under one random
# permutation of its rows.
PERMUTATION_SHAPES = ((60, 40), (150, 300), (7, 64))
# Not row-permutation invariant by design, so not in the table below.
NOT_PERMUTATION_INVARIANT = {
    "empirical": "its bootstrap resamples index the caller's row positions",
    "selection (split)": "its selection and estimation blocks are the caller's row positions",
}


@pytest.fixture(scope="module")
def permuted_datasets():
    cases = []
    for x_dist in ("gaussian", "rademacher-mix"):
        for n, p in PERMUTATION_SHAPES:
            for seed in range(4):
                cfg = small_cfg(n=n, p=p, seed=seed, reps=1, b_size=5, x_dist=x_dist)
                beta, model = build_beta(cfg), covariate_model_for(cfg)
                ds = generate_dataset(cfg, beta, 0)
                perm = np.random.default_rng(seed).permutation(n)
                cases.append((beta, model, ds, LabeledDataset(x=ds.x[perm], y=ds.y[perm])))
    return cases


class TestRowPermutation:
    """Every reported number is bitwise invariant under a row permutation.

    A dataset stores its rows in a canonical order, so a permuted dataset
    holds byte-identical arrays.  Not invariant: ``NOT_PERMUTATION_INVARIANT``.
    """

    @pytest.mark.parametrize("method", [None, "gaussian-plugin", "tilde"])
    @pytest.mark.parametrize("eid", ["naive", "dicker", "oracle", "full", "single",
                                     "selection"])
    def test_table(self, permuted_datasets, eid, method):
        options = HarnessOptions(variance_method=method)
        for beta, model, ds, permuted in permuted_datasets:
            want = estimate(ds, model, eid, beta=beta, options=options)
            got = estimate(permuted, model, eid, beta=beta, options=options)
            assert (got.tau2, got.sigma2, got.variance_estimate) == \
                (want.tau2, want.sigma2, want.variance_estimate)

    def test_covers_every_estimator(self):
        excluded = {key.split()[0] for key in NOT_PERMUTATION_INVARIANT}
        assert excluded | {"naive", "dicker", "oracle", "full", "single", "selection"} == \
            set(ESTIMATOR_IDS)


# The ids the oracle property runs: every estimator but the bootstrap.
ORACLE_PROPERTY_IDS = tuple(e for e in ESTIMATOR_IDS if e != "empirical")
# A floor for the scale a rounding error is measured on, so that results which
# underflow to subnormals or zero are compared on an absolute scale.
ORACLE_SCALE_FLOOR = 1e-290


@st.composite
def _oracle_examples(draw):
    """``(x, y, beta, columns, permutation)``: n in 3..40, p in 1..40, both scaled by 10^k."""
    n, p = draw(st.integers(3, 40)), draw(st.integers(1, 40))
    k = draw(st.integers(-100, 100))
    design = draw(st.sampled_from(["plain", "plain", "duplicate-row", "constant-column"]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, beta = g.standard_normal((n, p)), g.standard_normal(p) / np.sqrt(p)
    y = x @ beta + g.standard_normal(n)
    if design == "duplicate-row":
        x[1], y[1] = x[0], y[0]
    elif design == "constant-column":
        x[:, -1] = x[0, -1]
    columns = sorted(set(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))))
    return x * 10.0**k, y * 10.0**k, beta, columns, g.permutation(n)


def _loop_values(ds, columns):
    """Each checked id -> ``(value, scale)`` from the loops of ``oracles``: the value and
    the sum of the absolute values of its summands.  ``tilde`` is the naive estimator's
    tilde variance, reduced from the Gram matrix of W."""
    x, w = ds.x, oracles.w_loop(ds.x, ds.y)
    ax, aw = np.abs(x), np.abs(w)
    naive = (oracles.naive_loop(w), oracles.naive_loop(aw))
    psi = (oracles.psi_sum_loop(x, w), oracles.psi_sum_loop(ax, aw, delta=-1.0))
    psi_b = (oracles.psi_sum_loop(x[:, columns], w[:, columns]),
             oracles.psi_sum_loop(ax[:, columns], aw[:, columns], delta=-1.0))
    values = {"naive": naive, "full": (naive[0] - 2 * psi[0], naive[1] + 2 * psi[1]),
              "t_b": (naive[0] - 2 * psi_b[0], naive[1] + 2 * psi_b[1])}
    # the tilde naive variance from W's Gram matrix: lead (b'Ab - b^4) + tail (|A|^2 - b^4)
    n, gw = ds.n, oracles.gram_loop(w)
    lead, tail = 4.0 * (n - 2) / (n * (n - 1)), 2.0 / (n * (n - 1))
    frob = oracles.offdiag_square_sum_loop(gw) / (n * (n - 1))
    quad = [oracles.chain_sum_loop(g) / (n * (n - 1) * (n - 2)) for g in (gw, np.abs(gw))]
    values["tilde"] = (lead * (quad[0] - naive[0] ** 2) + tail * (frob - naive[0] ** 2),
                       lead * (quad[1] + naive[1] ** 2) + tail * (frob + naive[1] ** 2))
    if ds.p >= 2:
        var_g = ds.p * (ds.p - 1) / 2.0
        g, ag = oracles.single_zero_loop(x), oracles.single_zero_loop(ax)
        values["single"] = (
            naive[0] - oracles.chat_numerator_loop(w, g) / var_g * (sum(g) / ds.n),
            naive[1] + oracles.chat_numerator_loop(aw, ag) / var_g * (sum(ag) / ds.n))
    return values


def _outcome(call):
    """The numbers ``call`` returns as hex strings, or the type of the ``VarestError`` it raises.

    Any warning fails the test; a number that is not finite too.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            numbers = call()
        except VarestError as exc:
            return type(exc)
    assert all(v is None or math.isfinite(v) for v in numbers), numbers
    return tuple(None if v is None else float(v).hex() for v in numbers)


def _report_numbers(ds, model, eid, beta, method):
    report = estimate(ds, model, eid, beta=beta, options=HarnessOptions(variance_method=method))
    return report.tau2, report.sigma2, report.variance_estimate


def _t_b(ds, columns):
    # the harness's floating-point rule: overflow or an invalid operation is an error
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tau2 = t_b(ds, columns)
    except FloatingPointError as exc:
        raise NonFiniteResult(str(exc)) from exc
    return (tau2,)


class TestOracleProperty:
    """Across shapes n in 3..40 and p in 1..40 and scales 10^-100..10^100, with a
    duplicate row or a constant column now and then, every estimator but ``empirical``
    under every variance method gives finite numbers or a ``VarestError`` and never
    warns; the same on a row permutation, bit for bit; and ``naive``, ``t_b``, ``full``,
    ``single`` and the tilde variance of ``naive`` match the loops of ``tests/oracles.py``
    to 1e-10 of the sum of the absolute values of their summands."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(example=_oracle_examples())
    def test_matches_the_loops(self, example):
        x, y, beta, columns, perm = example
        ds = LabeledDataset(x=x, y=y)
        model, beta = CovariateModel.standard_gaussian(ds.p), CoefficientVector(beta)
        outcomes = []
        for data in (ds, LabeledDataset(x=x[perm], y=y[perm])):
            got = {(eid, method): _outcome(lambda: _report_numbers(data, model, eid, beta, method))
                   for eid in ORACLE_PROPERTY_IDS for method in (None, *VARIANCE_METHODS)}
            got["t_b"] = _outcome(lambda: _t_b(data, columns))
            outcomes.append(got)
        assert outcomes[0] == outcomes[1]
        got = {eid: outcomes[0][(eid, None)] for eid in ("naive", "full", "single")}
        got["t_b"] = outcomes[0]["t_b"]
        tilde = outcomes[0][("naive", "tilde")]
        got["tilde"] = tilde[2:] if isinstance(tilde, tuple) else tilde
        with np.errstate(all="ignore"):
            loops = _loop_values(ds, columns)
        for eid, (want, scale) in loops.items():
            if isinstance(got[eid], tuple) and math.isfinite(scale):
                fast = float.fromhex(got[eid][0])
                assert abs(fast - want) <= 1e-10 * max(scale, ORACLE_SCALE_FLOOR), \
                    (eid, fast, want, scale)

    def test_psi_sum_loop_is_the_sum_of_psi_loop(self):
        g = np.random.default_rng(12)
        for n, p in ((3, 1), (5, 3), (6, 2)):
            x, y = g.standard_normal((n, p)), g.standard_normal(n)
            w = oracles.w_loop(x, y)
            each = [oracles.psi_loop(x, w, j, jp) for j in range(p) for jp in range(p)]
            assert oracles.psi_sum_loop(x, w) == pytest.approx(sum(each), rel=1e-12, abs=1e-14)


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
        ds, model = self._dataset(kind), CovariateModel.standard_gaussian(3)
        beta = CoefficientVector(np.full(3, 0.5))
        options = HarnessOptions(variance_method=method, boot=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = estimate(ds, model, eid, beta=beta, options=options)
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

    def test_overflow_raises_non_finite(self):
        # se and rmse_sd of these two finite records overflow
        with pytest.raises(NonFiniteResult, match="'naive'"):
            summarize(self._records([1e308, -1e308]), 1.0)

    def test_huge_spread_raises_non_finite(self):
        # records of a sigma2 = 1e300 scenario: the mean is finite, the squares are not
        with pytest.raises(NonFiniteResult, match="'single'"):
            summarize(self._records([3.1e299, -2.4e299, 1.2e299], eid="single"), 1.0)

    def test_non_finite_truth_raises(self):
        with pytest.raises(InvalidInput, match="^true_tau2 must be finite, got nan$"):
            summarize(self._records([1.0, 2.0]), float("nan"))

    def test_failed_replication_stays_nan(self):
        s = summarize(self._records([float("nan"), 1.0, 2.0]), 1.0)[0]
        assert all(math.isnan(v) for v in (s.mean, s.bias, s.se, s.rmse, s.rmse_sd))

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

    @pytest.mark.parametrize("body, message", [
        (b"", ":1: expected header rep,estimator,"),
        (HEADER + b"0,naive,1,0,,0\n1,naive,2,0\n", ":3: expected 6 fields, got 4"),
        (HEADER + b"0,naive,abc,0,,0\n", ":2: could not convert string to float: 'abc'"),
        (HEADER + b"0.5,naive,1,0,,0\n", ":2: invalid literal for int()"),
        (HEADER + b"0,naive,1,0,,0\n\n", ":3: expected 6 fields, got 0"),
        (HEADER + b"0,naive,1,0,,0\n1,naive,1\xff,0,,0\n", ":3: byte 0xff is not UTF-8"),
        (HEADER + b'0,"' + b"x" * 200_000 + b'",1,0,,0\n', ":2: field larger than field limit"),
        ((HEADER + b"0,naive,1,0,,0\n1,naive,1\xff,0,,0\n2,naive,1,0,,0\n").replace(b"\n", b"\r"),
         ":3: byte 0xff is not UTF-8"),
        ((HEADER + b"0,naive,1,0,,0\n1,naive,1\xff,0,,0\n").replace(b"\n", b"\r\n"),
         ":3: byte 0xff is not UTF-8"),
        (HEADER + b"0,naive,1,0\n1,naive,\xff,0,,0\n", ":2: expected 6 fields, got 4"),
        (HEADER + b'0,naive,1,0,,0\n1,"naive"x,1,0,,0\n', ":3: ',' expected after '\"'"),
        (HEADER + b'0,naive,1,0,,0\n1,"naive,1,0,,0\n', ":3: unexpected end of data"),
    ], ids=["empty", "ragged", "not-a-number", "rep-not-int", "blank-line", "not-utf8",
            "huge-field", "not-utf8-cr", "not-utf8-crlf", "first-fault-first",
            "text-after-quote", "unterminated-quote"])
    def test_malformed_records_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "records.csv"
        path.write_bytes(body)
        with pytest.raises(InvalidInput) as info:
            read_records_csv(path)
        assert str(info.value).startswith(str(path) + message)

    def test_csv_rows_carry_the_line_they_end_on(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b'a,"b\nc",d\r\n\r1,2\n3')
        with csv_rows(path) as (fh, rows):
            assert next(rows) == (2, ["a", "b\nc", "d"])
            assert fh.read() == "\r1,2\n3"  # the file is left after the rows read
        with csv_rows(path) as (_, rows):
            assert list(rows) == [(2, ["a", "b\nc", "d"]), (3, []), (4, ["1", "2"]), (5, ["3"])]


class TestFormatValue:
    @pytest.mark.parametrize("value, text", [
        (None, ""), (0.0, "0"), (1 / 3, "0.333333"), (-1.7976931348623157e308, "-1.79769e+308"),
        (123456789.0, "1.23457e+08"), (np.float64(2.5e-7), "2.5e-07"), (float("nan"), "nan"),
        (3, "3"),
    ])
    def test_six_significant_digits(self, value, text):
        assert format_value(value) == text

    def test_summary_csv_row_uses_it(self):
        s = SummaryStats("naive", 1 / 3, -2e300, 0.0, float("inf"), float("nan"))
        assert s.csv_row() == ["naive", "0.333333", "-2e+300", "0", "inf", "nan"]
