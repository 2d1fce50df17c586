import numpy as np
import pytest

from varest.errors import InvalidInput, TooFewColumns, TooFewObservations
from varest.estimators import naive_tau2, psi_hat, t_b
from varest.harness import HarnessOptions, estimate
from varest.kernels import ordered_sum
from varest.model import CovariateModel, LabeledDataset, build_w
from varest.selection import beta_squared_estimates, gap_select, split_rows, t_gamma
from varest.simgen import ScenarioConfig, build_beta, generate_dataset

from oracles import beta2_loop, gap_select_loop


class TestBetaSquaredEstimates:
    def test_hand_column(self):
        w = build_w(LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0]))
        np.testing.assert_array_equal(beta_squared_estimates(w), [2.0])

    def test_zero_column(self):
        w = build_w(LabeledDataset(x=[[1.0], [1.0]], y=[0.0, 0.0]))
        np.testing.assert_array_equal(beta_squared_estimates(w), [0.0])

    def test_matches_loop(self):
        g = np.random.default_rng(3)
        x = g.standard_normal((7, 4))
        y = g.standard_normal(7)
        w = build_w(LabeledDataset(x=x, y=y))
        np.testing.assert_allclose(beta_squared_estimates(w), beta2_loop(w.w), rtol=1e-11)

    def test_sums_to_naive(self):
        g = np.random.default_rng(4)
        x = g.standard_normal((15, 6))
        y = x @ np.full(6, 0.4) + g.standard_normal(15)
        w = build_w(LabeledDataset(x=x, y=y))
        np.testing.assert_allclose(
            ordered_sum(beta_squared_estimates(w)), naive_tau2(w), rtol=1e-12
        )


class TestGapSelect:
    def test_hand_trace(self):
        result = gap_select([0.5, 0.45, 0.01, 0.02])
        assert result.selected == (0,)
        assert result.threshold_value == 0.45
        np.testing.assert_allclose(result.gaps, [0.01, 0.43, 0.05])

    def test_all_equal_selects_nothing(self):
        result = gap_select([0.3, 0.3, 0.3])
        assert result.selected == ()

    def test_matches_second_implementation(self):
        g = np.random.default_rng(5)
        for _ in range(50):
            beta2 = g.standard_normal(10)
            got = gap_select(beta2)
            want_sel, want_thr = gap_select_loop(beta2)
            assert list(got.selected) == want_sel
            assert got.threshold_value == want_thr

    def test_permutation_relabels_indices(self):
        g = np.random.default_rng(6)
        beta2 = g.standard_normal(12)
        perm = g.permutation(12)
        base = set(gap_select(beta2).selected)
        permuted = set(gap_select(beta2[perm]).selected)
        assert {int(perm[j]) for j in permuted} == base

    def test_scale_equivariance(self):
        g = np.random.default_rng(7)
        beta2 = g.standard_normal(9)
        for c in (0.5, 2.0, 117.0):
            assert gap_select(c * beta2).selected == gap_select(beta2).selected

    def test_too_few_columns(self):
        with pytest.raises(TooFewColumns):
            gap_select([1.0])

    def test_negative_values_sort_raw(self):
        result = gap_select([-0.5, -0.1, 0.4, 0.45])
        # largest gap is between -0.1 and 0.4; threshold 0.4, strict > keeps 0.45
        assert result.threshold_value == 0.4
        assert result.selected == (3,)


def _split_t_gamma(ds, fraction=0.5):
    """Split selection: select on the first block of rows, estimate on the second."""
    select, est = split_rows(ds, fraction)
    return t_gamma(est, select=select)


class TestSplitRows:
    @pytest.mark.parametrize("n, fraction, k", [
        (120, 0.5, 60), (7, 0.5, 4), (6, 0.1, 2), (6, 0.9, 3), (10, 0.99, 7),
    ])
    def test_block_sizes(self, n, fraction, k):
        g = np.random.default_rng(n)
        x, y = g.standard_normal((n, 3)), g.standard_normal(n)
        select, est = split_rows(LabeledDataset(x=x, y=y), fraction)
        assert select.n == k and est.n == n - k
        # the caller's leading and trailing rows, whatever order the dataset stores
        for block, rows in ((select, slice(None, k)), (est, slice(k, None))):
            np.testing.assert_array_equal(block.x[block.rank], x[rows])
            np.testing.assert_array_equal(block.y[block.rank], y[rows])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_bad_fraction_named_by_its_parameter(self, fraction):
        ds = LabeledDataset(x=np.random.default_rng(1).standard_normal((8, 2)), y=np.zeros(8))
        with pytest.raises(InvalidInput, match=rf"^fraction must be in \(0, 1\), got {fraction}$"):
            split_rows(ds, fraction)


class TestTGamma:
    def _scenario_ds(self, seed=0, n=120, p=30, tau2_b=0.9):
        cfg = ScenarioConfig(n=n, p=p, tau2=1.0, tau2_b=tau2_b, sigma2=1.0,
                             b_size=5, reps=1, seed=seed)
        beta = build_beta(cfg)
        return generate_dataset(cfg, beta, 0)

    def test_empty_selection_returns_naive(self):
        # all-equal estimates select nothing; build data where that holds
        x = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        ds = LabeledDataset(x=x, y=y)
        report = t_gamma(ds)
        assert report.aux["selected"] == ()
        assert report.tau2 == naive_tau2(build_w(ds))

    def test_matches_manual_correction(self):
        ds = self._scenario_ds(seed=10)
        w = build_w(ds)
        sel = gap_select(beta_squared_estimates(w)).selected
        report = t_gamma(ds)
        assert report.aux["selected"] == sel
        expected = naive_tau2(w) - 2.0 * sum(
            psi_hat(ds, j, jp) for j in sel for jp in sel
        )
        np.testing.assert_allclose(report.tau2, expected, rtol=1e-10)

    def test_split_uses_disjoint_blocks(self):
        ds = self._scenario_ds(seed=11)
        report = _split_t_gamma(ds, 0.5)
        assert report.aux["split"] is True
        assert report.aux["n_select_rows"] == 60
        # the estimate must match recomputing on the second block alone
        rest = ds.rank[60:]  # the generated rows after the first 60
        est = LabeledDataset(x=ds.x[rest], y=ds.y[rest])
        w_est = build_w(est)
        sel = report.aux["selected"]
        expected = naive_tau2(w_est) - 2.0 * sum(
            psi_hat(est, j, jp) for j in sel for jp in sel
        )
        np.testing.assert_allclose(report.tau2, expected, rtol=1e-10)

    def test_split_needs_six_rows(self):
        ds = LabeledDataset(x=np.random.default_rng(0).standard_normal((5, 3)),
                            y=np.zeros(5))
        with pytest.raises(TooFewObservations):
            _split_t_gamma(ds)

    def test_cap_bounds_selection(self):
        # uncapped, the gap rule selects four columns here: the cap trims them to 2
        ds = self._scenario_ds(seed=31, tau2_b=0.5)
        w = build_w(ds)
        uncapped = t_gamma(ds, cap=None).aux["selected"]
        assert len(uncapped) > 2
        report = t_gamma(ds, cap=2)
        kept = report.aux["selected"]
        assert len(kept) == 2 and list(kept) == sorted(kept) and set(kept) < set(uncapped)
        beta2 = beta_squared_estimates(w)
        assert min(beta2[list(kept)]) > max(beta2[sorted(set(uncapped) - set(kept))])
        assert report.tau2 == t_b(ds, list(kept))
        for cap in (len(uncapped) - 1, len(uncapped)):
            assert len(t_gamma(ds, cap=cap).aux["selected"]) == cap
        model = CovariateModel.independent(ds.p, 3.0)
        harness = estimate(ds, model, "selection", options=HarnessOptions(select_cap=2))
        assert harness.aux["selected"] == kept

    @pytest.mark.parametrize("call", [
        lambda ds: _split_t_gamma(ds, 1.5),
        lambda ds: _split_t_gamma(ds, 0.0),
        lambda ds: t_gamma(ds, cap=-1),
    ], ids=["fraction-above-1", "fraction-0", "negative-cap"])
    def test_bad_option_raises(self, call):
        ds = self._scenario_ds(seed=12, tau2_b=0.5)
        with pytest.raises(InvalidInput):
            call(ds)

    def test_split_recovery_rate(self):
        # With a strong fixed B, split selection should place the largest gap
        # between B and the rest, and then select B less its weakest column:
        # the gap rule keeps only the columns strictly above the order
        # statistic at the upper end of the gap.  B is strong here because
        # the 2000 selection rows give sd(beta_j^2-hat) ~ 0.028 against
        # beta_j^2 = 0.18 on B (at n = 400 the sd is ~0.089 and the largest
        # gap separates B in only ~15% of replications).
        cfg = ScenarioConfig(n=4000, p=50, tau2=1.0, tau2_b=0.9, sigma2=1.0,
                             b_size=5, reps=1, seed=303)
        beta = build_beta(cfg)
        b_set = (0, 1, 2, 3, 4)
        hits = 0
        reps = 200
        for r in range(reps):
            ds = generate_dataset(cfg, beta, r)
            report = _split_t_gamma(ds)
            n_select = report.aux["n_select_rows"]
            lead = ds.rank[:n_select]  # the generated rows that selected
            beta2 = beta_squared_estimates(build_w(LabeledDataset(ds.x[lead], ds.y[lead])))
            at_or_above = tuple(int(j) for j in
                                np.flatnonzero(beta2 >= report.aux["threshold"]))
            weakest = min(b_set, key=lambda j: beta2[j])
            if (at_or_above == b_set
                    and report.aux["selected"] == tuple(j for j in b_set if j != weakest)):
                hits += 1
        assert hits / reps > 0.9


class TestReportInvariant:
    def test_tau2_plus_sigma2_is_sample_variance(self):
        from varest.model import sample_variance_y

        cfg = ScenarioConfig(n=80, p=20, tau2=1.0, tau2_b=0.6, b_size=4,
                             reps=1, seed=55)
        ds = generate_dataset(cfg, build_beta(cfg), 0)
        full = t_gamma(ds)
        assert full.tau2 + full.sigma2 == pytest.approx(
            sample_variance_y(ds.y), rel=1e-12)
        split = _split_t_gamma(ds)
        assert split.tau2 + split.sigma2 == pytest.approx(
            sample_variance_y(ds.y[ds.rank[40:]]), rel=1e-12)
