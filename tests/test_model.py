import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varest
from varest.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    NearSingularCovariance,
    TooFewObservations,
    VarestError,
)
from varest.kernels import gram, ordered_col_sums
from varest.model import (
    CoefficientVector,
    CovariateModel,
    LabeledDataset,
    Whitening,
    build_single_zero,
    build_w,
    check_fields,
    column_set,
    float_array,
    sample_variance_y,
    whiten,
)

from oracles import w_loop

rng = np.random.default_rng(42)


class TestCovariateModel:
    """The known covariate distribution: ``CovariateModel`` holds the whitened
    fourth moments and flags, ``Whitening`` the raw mean and covariance."""

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            Whitening(mean=np.zeros(2), covariance=[[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(NearSingularCovariance):
            Whitening(mean=np.zeros(2), covariance=[[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_fourth_moment_below_one(self):
        with pytest.raises(ValueError):
            CovariateModel.independent(3, fourth_moment=0.5)

    @pytest.mark.parametrize("field", ["mean", "covariance", "fourth_moments"])
    def test_rejects_nonfinite(self, field):
        fields = dict(mean=np.zeros(2), covariance=np.eye(2), fourth_moments=np.full(2, 3.0))
        fields[field].flat[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            if field == "fourth_moments":
                CovariateModel(fields["fourth_moments"])
            else:
                Whitening(fields["mean"], fields["covariance"])

    def test_rejects_covariance_of_other_size(self):
        with pytest.raises(DimensionMismatch):
            Whitening(mean=np.zeros(2), covariance=np.eye(3))

    @pytest.mark.parametrize("mean", [[[0.0, 0.0]], np.zeros((2, 2))], ids=["1x2", "2x2"])
    def test_rejects_non_vector_mean(self, mean):
        with pytest.raises(DimensionMismatch, match="mean must be a vector"):
            Whitening(mean)

    def test_rejects_non_vector_fourth_moments(self):
        for m4 in (3.0, np.full((2, 2), 3.0)):
            with pytest.raises(DimensionMismatch):
                CovariateModel(fourth_moments=m4)

    @pytest.mark.parametrize("flags, message", [
        ({"independent_columns": "no", "gaussian": "no"},
         "independent_columns must be true or false, got 'no'"),
        ({"gaussian": "no"}, "gaussian must be true or false, got 'no'"),
        ({"gaussian": 1}, "gaussian must be true or false, got 1"),
        ({"independent_columns": 0}, "independent_columns must be true or false, got 0"),
        ({"independent_columns": None}, "independent_columns must be true or false, got None"),
    ])
    def test_flags_must_be_booleans(self, flags, message):
        # a non-empty string such as "no" is truthy: it would read as true
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            CovariateModel(np.full(4, 3.0), **flags)

    def test_numpy_booleans_are_flags(self):
        m = CovariateModel(np.full(2, 3.0), independent_columns=np.True_, gaussian=np.False_)
        assert m.independent_columns and not m.gaussian

    def test_gaussian_forces_fourth_moment_three(self):
        with pytest.raises(ValueError):
            CovariateModel(fourth_moments=np.full(2, 2.0), gaussian=True)
        m = CovariateModel.standard_gaussian(4)
        np.testing.assert_array_equal(m.fourth_moments, 3.0)

    def test_scalar_fourth_moment_broadcast(self):
        m = CovariateModel.independent(5, fourth_moment=2.5)
        assert m.fourth_moments.shape == (5,)

    def test_immutable(self):
        m = CovariateModel.standard_gaussian(3)
        with pytest.raises(ValueError):
            m.fourth_moments[0] = 1.0
        wh = Whitening(mean=np.zeros(2), covariance=np.eye(2))
        with pytest.raises(ValueError):
            wh.mean[0] = 1.0
        with pytest.raises(ValueError):
            wh.covariance[0, 0] = 2.0

    def test_builds_no_p_by_p_array(self):
        # A whitened model holds one length-p vector; 2000 x 2000 doubles are 32 MB.
        tracemalloc.start()
        try:
            model = CovariateModel.independent(2000, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.p == 2000
        assert peak < 1_000_000


class TestWhiten:
    def test_identity_model_is_identity_map_bitwise(self):
        x = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(whiten(x, Whitening(np.zeros(3), np.eye(3))), x)

    def test_diagonal_hand_example(self):
        wh = Whitening(mean=[1.0, 1.0], covariance=np.diag([4.0, 9.0]))
        out = whiten(np.array([[3.0, 4.0]]), wh)
        np.testing.assert_allclose(out, [[1.0, 1.0]], rtol=1e-12)

    def test_whitened_population_covariance_is_identity(self):
        g = np.random.default_rng(5)
        a = g.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mu = g.standard_normal(3)
        wh = Whitening(mean=mu, covariance=cov)
        x = g.standard_normal((5, 3))
        out = whiten(x, wh)
        # matrix identity: Sigma^{-1/2} Sigma Sigma^{-1/2} = I
        m = wh.sqrt_inverse_covariance
        np.testing.assert_allclose(m @ cov @ m, np.eye(3), atol=1e-10)
        # transform consistency on the sample
        np.testing.assert_allclose(out, (x - mu) @ m.T, rtol=1e-12)

    def test_near_singular_raises(self):
        # the one singularity rule runs when the whitening is built, not when it is used
        with pytest.raises(NearSingularCovariance, match="smallest eigenvalue 1e-12"):
            Whitening(mean=np.zeros(2), covariance=np.diag([1.0, 1e-12]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            whiten(np.zeros((4, 2)), Whitening(np.zeros(3), np.eye(3)))

    def test_root_is_the_one_eigendecomposition(self):
        # built with the whitening, read-only, and the formula ``whiten`` always used
        g = np.random.default_rng(11)
        a = g.standard_normal((4, 4))
        cov, mu, x = a @ a.T + 0.1 * np.eye(4), g.standard_normal(4), g.standard_normal((7, 4))
        wh = Whitening(mu, cov)
        eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
        root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        assert wh.sqrt_inverse_covariance.tobytes() == root.tobytes()
        assert not wh.sqrt_inverse_covariance.flags.writeable
        assert whiten(x, wh).tobytes() == ((x - mu) @ root.T).tobytes()

    def test_identity_covariance_only_subtracts_the_mean(self):
        mu = rng.standard_normal(3)
        x = rng.standard_normal((6, 3))
        wh = Whitening(mu)
        assert wh.covariance is None and wh.sqrt_inverse_covariance is None
        assert whiten(x, wh).tobytes() == (x - mu).tobytes()

    def test_identity_covariance_builds_no_p_by_p_array(self):
        # 2000 x 2000 doubles are 32 MB
        tracemalloc.start()
        try:
            out = whiten(np.ones((2, 2000)), Whitening(np.ones(2000)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not out.any()
        assert peak < 1_000_000


class TestInvalidInput:
    """Bad argument values raise ``InvalidInput``, a ``VarestError`` and a ``ValueError``."""

    @pytest.mark.parametrize("make", [
        lambda: LabeledDataset(x=[[1.0], [np.nan]], y=[0.0, 0.0]),
        lambda: CoefficientVector(beta=[np.inf]),
        lambda: CovariateModel(np.array([0.5, 3.0])),
        lambda: Whitening(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])),
        lambda: gram(np.ones(3)),
        lambda: ordered_col_sums(np.ones(3)),
        lambda: varest.BootstrapConfig(n_boot=1),
    ], ids=["dataset", "beta", "fourth-moments", "covariance", "gram", "col-sums", "boot"])
    def test_typed(self, make):
        with pytest.raises(InvalidInput) as info:
            make()
        assert isinstance(info.value, VarestError) and isinstance(info.value, ValueError)

    def test_exported(self):
        assert varest.InvalidInput is InvalidInput


class TestFloatArray:
    """``float_array`` decodes every numeric array a value type takes, by one rule."""

    @pytest.mark.parametrize("make, message", [
        (lambda: LabeledDataset(x=[["1", "2"], ["3", "4.5"]], y=["1", "2"]),
         "x must hold numbers, got '4.5'"),
        (lambda: LabeledDataset(x=[[True], [False]], y=[1.0, 2.0]),
         "x must hold numbers, got False"),
        (lambda: LabeledDataset(x=[[1.0], [2.0]], y=np.array([1, 0], dtype=bool)),
         "y must hold numbers, got an array of bool"),
        (lambda: CoefficientVector(["0.5", "1"]), "beta must hold numbers, got '1'"),
        (lambda: CovariateModel(["3", "3"]), "fourth_moments must hold numbers, got '3'"),
        (lambda: CovariateModel.independent(2, True), "fourth_moment must hold numbers, got True"),
        (lambda: Whitening([True, False]), "mean must hold numbers, got False"),
        (lambda: Whitening([0.0], [["1"]]), "covariance must hold numbers, got '1'"),
    ], ids=["dataset-strings", "dataset-booleans", "dataset-bool-array", "beta-strings",
            "fourth-moments-strings", "independent-boolean", "mean-booleans",
            "covariance-string"])
    def test_value_types_reject_strings_and_booleans(self, make, message):
        # numpy would read "3" as 3.0 and True as 1.0
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("value, message", [
        (None, "v must hold numbers, got None"),
        ([1.0, None], "v must hold numbers, got None"),
        ([1j], "v must hold numbers, got 1j"),
        ([[1.0], {"a": 1}], "v must hold numbers, got {'a': 1}"),
        (np.bool_(True), "v must hold numbers, got np.True_"),
        (np.array(["1"]), "v must hold numbers, got an array of <U1"),
        (np.array([1.0, None]), "v must hold numbers, got an array of object"),
        (np.array([1j]), "v must hold numbers, got an array of complex128"),
        ([[1.0, 2.0], [3.0]], "v must hold numbers: setting an array element with a sequence"),
        ([2 ** 1024], "v must hold numbers: int too large to convert to float"),
        ([1.0, float("nan")], "v must be finite, got nan"),
        (np.array([[1.0, -np.inf]]), "v must be finite, got -inf"),
    ])
    def test_rejects(self, value, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}"):
            float_array(value, "v")

    @pytest.mark.parametrize("value", [
        3, 2.5, np.float32(0.5), [1, 2.5], ((1, np.int8(2)), [3.0, np.float64(4)]),
        np.arange(3), np.ones((2, 2), dtype=np.float32), [np.ones(2), np.zeros(2)],
    ])
    def test_accepts_numbers(self, value):
        out = float_array(value, "v")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.asarray(value, dtype=np.float64))

    def test_float_array_is_not_copied(self):
        a = np.ones((3, 2))
        assert float_array(a, "v") is a


class TestLabeledDataset:
    def test_requires_two_rows(self):
        with pytest.raises(TooFewObservations):
            LabeledDataset(x=[[1.0]], y=[1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LabeledDataset(x=[[1.0], [np.inf]], y=[0.0, 0.0])

    def test_center_y(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 3.0])
        centered = ds.center_y()
        np.testing.assert_allclose(centered.y[centered.rank], [-1.0, 1.0])
        assert centered.rank.tobytes() == ds.rank.tobytes()

    def test_statistics_are_its_own_and_kept(self):
        g = np.random.default_rng(7)
        x = g.standard_normal((9, 4))
        y = x[:, 1] + g.standard_normal(9)
        ds = LabeledDataset(x=x, y=y)
        w, want = ds.w, build_w(ds)
        assert ds.w is w
        for got, ref in ((w.w, want.w), (w.column_sums, want.column_sums),
                         (w.column_square_sums, want.column_square_sums)):
            assert got.tobytes() == ref.tobytes()
        assert ds.gram is ds.gram
        ref = gram(ds.x, ds.y)
        assert ds.gram.row_sums_offdiag.tobytes() == ref.row_sums_offdiag.tobytes()
        assert ds.gram.row_square_sums_offdiag.tobytes() == ref.row_square_sums_offdiag.tobytes()
        assert ds.sigma_y2 == sample_variance_y(ds.y)
        # the zero-estimator g_i = sum_{j<j'} x_ij x_ij', by the formula it has always had
        assert ds.g is ds.g and not ds.g.flags.writeable
        row_sums = np.sum(ds.x, axis=1)
        zero = 0.5 * (row_sums * row_sums - np.einsum("ij,ij->i", ds.x, ds.x))
        assert ds.g.tobytes() == build_single_zero(ds).tobytes() == zero.tobytes()
        perm = g.permutation(9)
        assert LabeledDataset(x=x[perm], y=y[perm]).g.tobytes() == ds.g.tobytes()
        # a centered copy is a dataset of its own, with statistics of its own rows
        assert ds.center_y().sigma_y2 == pytest.approx(ds.sigma_y2, rel=1e-12)
        assert ds.center_y().w is not w


_ENTRIES = (-2.5, -1.0, -0.0, 0.0, 1e-3, 1.5, 7.0)


@st.composite
def _shuffled_rows(draw):
    """(x, y, a row permutation, k): rows drawn from a small pool, so x rows
    repeat, with and without equal y, and entries include +0.0 and -0.0."""
    n, p = draw(st.integers(2, 30)), draw(st.integers(0, 30))
    entry = st.sampled_from(_ENTRIES)
    pool = draw(st.lists(st.lists(entry, min_size=p, max_size=p), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    x = np.array([pool[i] for i in picks], dtype=float).reshape(n, p)
    y = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return x, y, perm, draw(st.integers(-3, 5))


class TestCanonicalOrder:
    """A dataset stores its rows in an order that depends only on the multiset of rows."""

    @given(_shuffled_rows())
    @settings(max_examples=300, deadline=None)
    def test_order_depends_only_on_the_rows(self, case):
        x, y, perm, k = case
        ds = LabeledDataset(x=x, y=y)
        assert ds.x.flags.c_contiguous and not ds.x.flags.writeable
        assert ds.x[ds.rank].tobytes() == x.tobytes()
        assert ds.y[ds.rank].tobytes() == y.tobytes()
        permuted = LabeledDataset(x=x[perm], y=y[perm])
        assert permuted.x.tobytes() == ds.x.tobytes()
        assert permuted.y.tobytes() == ds.y.tobytes()
        scaled = LabeledDataset(x=x, y=y * 2.0**k)
        assert scaled.rank.tobytes() == ds.rank.tobytes()

    def test_rows_sort_by_x_bytes_then_y(self):
        # byte order, not numeric order: 2.0's bytes sort before 1.0's
        ds = LabeledDataset(x=[[1.0], [2.0], [1.0], [1.0]], y=[3.0, 0.0, -0.0, 0.0])
        assert ds.x[:, 0].tolist() == [2.0, 1.0, 1.0, 1.0]
        assert [v.hex() for v in ds.y.tolist()] == [v.hex() for v in (0.0, 0.0, -0.0, 3.0)]
        assert ds.rank.tolist() == [3, 0, 2, 1]


class TestBuildW:
    def test_hand_example(self):
        ds = LabeledDataset(x=[[1.0], [2.0]], y=[1.0, 1.0])
        w = build_w(ds)
        np.testing.assert_array_equal(w.w[ds.rank], [[1.0], [2.0]])
        np.testing.assert_array_equal(w.column_sums, [3.0])

    def test_zero_response(self):
        w = build_w(LabeledDataset(x=rng.standard_normal((4, 2)), y=np.zeros(4)))
        assert np.all(w.w == 0.0)

    def test_matches_loop(self):
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        ds = LabeledDataset(x=x, y=y)
        np.testing.assert_array_equal(build_w(ds).w[ds.rank], w_loop(x, y))

    def test_cached_sums_match_recomputation(self):
        x = rng.standard_normal((30, 7))
        y = rng.standard_normal(30)
        w = build_w(LabeledDataset(x=x, y=y))
        np.testing.assert_allclose(w.column_sums, w.w.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(w.column_square_sums, (w.w ** 2).sum(axis=0), rtol=1e-12)

    def test_column_permutation_commutes(self):
        x = rng.standard_normal((8, 5))
        y = rng.standard_normal(8)
        perm = rng.permutation(5)
        ds1, ds2 = LabeledDataset(x=x[:, perm], y=y), LabeledDataset(x=x, y=y)
        # in the caller's row order: the canonical order may differ between the two
        w1, w2 = build_w(ds1).w[ds1.rank], build_w(ds2).w[ds2.rank]
        np.testing.assert_array_equal(w1, w2[:, perm])


class TestColumnSet:
    def test_sorted_unique(self):
        assert column_set([3, 1, 3, np.int64(0), np.int32(1)], 4) == [0, 1, 3]
        assert all(type(j) is int for j in column_set(np.array([2, 0]), 4))
        assert column_set([], 0) == []

    @pytest.mark.parametrize("b_set", [[-1], [4], [0, 7]])
    def test_out_of_range(self, b_set):
        with pytest.raises(IndexOutOfRange):
            column_set(b_set, 4)

    @pytest.mark.parametrize("b_set", [[2.7], [2.0], [True], ["1"], [np.float64(1.0)]])
    def test_non_integer(self, b_set):
        with pytest.raises(InvalidInput):
            column_set(b_set, 4)


class TestSampleVarianceY:
    def test_constant_vector(self):
        assert sample_variance_y([1.0, 1.0, 1.0]) == 0.0

    def test_hand_example(self):
        assert sample_variance_y([0.0, 2.0]) == 2.0

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            sample_variance_y([1.0])

    def test_simulation_oracle(self):
        g = np.random.default_rng(99)
        y = g.normal(0.0, 2.0, size=2000)
        est = sample_variance_y(y)
        # Var of the sample variance of N(0,4): 2*sigma^4/(n-1)
        se = np.sqrt(2.0 * 16.0 / 1999)
        assert abs(est - 4.0) < 3 * se

    @given(st.floats(-1e8, 1e8))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, c):
        y = np.array([0.3, -1.2, 2.5, 0.0, 4.793])
        base = sample_variance_y(y)
        shifted = sample_variance_y(y + c)
        assert abs(shifted - base) <= 1e-12 * max(base, abs(c) ** 2 * 1e-3, 1.0)


class TestCoefficientVector:
    def test_tau2(self):
        assert CoefficientVector(beta=[3.0, 4.0]).tau2 == 25.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoefficientVector(beta=[np.nan])


@dataclass(frozen=True)
class _Fields:
    """Every annotation ``check_fields`` reads, and two that it does not."""

    count: "int" = 1
    scale: "float" = 1.0
    name: "str" = "a"
    flag: "bool" = False
    cap: "int | None" = None
    method: "str | None" = None
    array: "np.ndarray" = None
    pair: "tuple" = ()


class TestCheckFields:
    @pytest.mark.parametrize("fields", [
        {}, {"count": np.int64(3), "scale": 2, "cap": 0, "method": "m"},
        {"scale": np.float32(0.5), "flag": np.True_, "cap": np.uint8(7)},
        {"scale": -1.7976931348623157e308, "array": "any", "pair": [1, "x"]},
    ])
    def test_accepts_values_of_the_annotated_type(self, fields):
        check_fields(_Fields(**fields), InvalidInput)

    @pytest.mark.parametrize("fields, message", [
        ({"count": True}, "count must be an integer, got True"),
        ({"count": np.True_}, "count must be an integer, got np.True_"),
        ({"count": 2.0}, "count must be an integer, got 2.0"),
        ({"count": "2"}, "count must be an integer, got '2'"),
        ({"count": None}, "count must be an integer, got None"),
        ({"scale": False}, "scale must be a number, got False"),
        ({"scale": "1"}, "scale must be a number, got '1'"),
        ({"scale": float("nan")}, "scale must be finite, got nan"),
        ({"scale": -float("inf")}, "scale must be finite, got -inf"),
        ({"scale": 2 ** 1024}, f"scale must be finite, got {2 ** 1024}"),
        ({"name": 3}, "name must be a string, got 3"),
        ({"flag": 1}, "flag must be true or false, got 1"),
        ({"flag": "yes"}, "flag must be true or false, got 'yes'"),
        ({"cap": True}, "cap must be an integer or None, got True"),
        ({"cap": 1.5}, "cap must be an integer or None, got 1.5"),
        ({"method": 0}, "method must be a string or None, got 0"),
    ])
    def test_rejects_a_value_of_another_type(self, fields, message):
        with pytest.raises(InvalidInput) as info:
            check_fields(_Fields(**fields), InvalidInput)
        assert str(info.value) == message

    def test_raises_the_given_error(self):
        with pytest.raises(TooFewObservations, match="count must be an integer"):
            check_fields(_Fields(count=None), TooFewObservations)
