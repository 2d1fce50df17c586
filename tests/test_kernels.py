import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varest.errors import InvalidInput, LengthMismatch, TooFewObservations
from varest.kernels import (
    chain_sum_distinct,
    gram,
    offdiag_square_sum,
    ordered_col_sums,
    ordered_sum,
    pair_sum_distinct,
    triple_sum_distinct,
)
from varest.model import LabeledDataset, build_w

from oracles import (
    chain_sum_loop,
    gram_loop,
    offdiag_square_sum_loop,
    pair_sum_loop,
    triple_sum_loop,
)

rng = np.random.default_rng(20240817)


class TestPairSumDistinct:
    def test_hand_all_ones(self):
        assert pair_sum_distinct([1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_hand_mixed(self):
        assert pair_sum_distinct([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 12.0

    def test_matches_loop(self):
        u = rng.standard_normal(25)
        v = rng.standard_normal(25)
        np.testing.assert_allclose(pair_sum_distinct(u, v), pair_sum_loop(u, v), rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pair_sum_distinct([1.0, 2.0], [1.0])

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            pair_sum_distinct([1.0], [1.0])


class TestTripleSumDistinct:
    def test_hand_all_ones(self):
        assert triple_sum_distinct([1.0] * 3, [1.0] * 3, [1.0] * 3) == 6.0

    def test_hand_single_survivor(self):
        assert triple_sum_distinct([1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1.0

    def test_matches_loop(self):
        u, v, w = (rng.standard_normal(20) for _ in range(3))
        np.testing.assert_allclose(
            triple_sum_distinct(u, v, w), triple_sum_loop(u, v, w), rtol=1e-12
        )

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            triple_sum_distinct([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])


def _loop_row_stats(rows):
    off = gram_loop(rows)
    np.fill_diagonal(off, 0.0)
    return off.sum(axis=1), (off * off).sum(axis=1)


class TestGram:
    def test_hand(self):
        g = gram(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(g.row_sums_offdiag, [2.0, 2.0])
        np.testing.assert_array_equal(g.row_square_sums_offdiag, [4.0, 4.0])
        assert g.n == 2

    def test_orthogonal_rows(self):
        g = gram(np.eye(3))
        assert np.all(g.row_sums_offdiag == 0.0)
        assert np.all(g.row_square_sums_offdiag == 0.0)

    def test_matches_loop(self):
        rows = rng.standard_normal((10, 4))
        g = gram(rows)
        sums, square_sums = _loop_row_stats(rows)
        np.testing.assert_allclose(g.row_sums_offdiag, sums, rtol=1e-12)
        np.testing.assert_allclose(g.row_square_sums_offdiag, square_sums, rtol=1e-12)

    def test_row_sums_cached(self):
        rows = rng.standard_normal((8, 3))
        g = gram(rows)
        loop = gram_loop(rows)
        expected = loop.sum(axis=1) - np.diagonal(loop)
        np.testing.assert_allclose(g.row_sums_offdiag, expected, rtol=1e-12)

    def test_weights_scale_columns(self):
        rows, weights = rng.standard_normal((9, 3)), rng.standard_normal(9)
        scaled = gram_loop(rows) * weights  # column k times weights[k]
        np.fill_diagonal(scaled, 0.0)
        g = gram(rows, weights)
        np.testing.assert_allclose(g.row_sums_offdiag, scaled.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(offdiag_square_sum(g), offdiag_square_sum_loop(scaled),
                                   rtol=1e-12)
        # scaled is not symmetric: the kernel pairs two entries of one row, scaled[i2, :]
        np.testing.assert_allclose(chain_sum_distinct(g), chain_sum_loop(scaled.T, scaled),
                                   rtol=1e-12)

    def test_unit_weights_change_nothing(self):
        rows = rng.standard_normal((7, 2))
        weighted, plain = gram(rows, np.ones(7)), gram(rows)
        assert weighted.row_sums_offdiag.tobytes() == plain.row_sums_offdiag.tobytes()
        assert (weighted.row_square_sums_offdiag.tobytes()
                == plain.row_square_sums_offdiag.tobytes())

    def test_weights_of_wrong_length(self):
        with pytest.raises(LengthMismatch):
            gram(np.ones((4, 2)), np.ones(3))

    def test_two_dimensional_weights(self):
        with pytest.raises(InvalidInput):
            gram(np.ones((4, 2)), np.ones((4, 1)))

    def test_rows_scaled_by_y_is_the_gram_of_w(self):
        # W W' = diag(y) X X' diag(y): the Gram statistics of W, to rounding
        g0 = np.random.default_rng(31)
        x, y = g0.standard_normal((9, 4)), g0.standard_normal(9)
        w = x * y[:, None]
        g = gram(x, y).rows_scaled(y)
        sums, square_sums = _loop_row_stats(w)
        np.testing.assert_allclose(g.row_sums_offdiag, sums, rtol=1e-12)
        np.testing.assert_allclose(g.row_square_sums_offdiag, square_sums, rtol=1e-12)
        np.testing.assert_allclose(chain_sum_distinct(g), chain_sum_loop(gram_loop(w)),
                                   rtol=1e-12)

    def test_rows_scaled_by_a_power_of_two_is_exact(self):
        g = gram(np.random.default_rng(32).standard_normal((6, 3)))
        scaled = g.rows_scaled(np.full(6, 0.25))
        assert scaled.row_sums_offdiag.tobytes() == (g.row_sums_offdiag / 4).tobytes()
        assert scaled.row_square_sums_offdiag.tobytes() == \
            (g.row_square_sums_offdiag / 16).tobytes()

    def test_rows_scaled_of_wrong_length(self):
        with pytest.raises(LengthMismatch):
            gram(np.ones((4, 2))).rows_scaled(np.ones(3))
        with pytest.raises(InvalidInput):
            gram(np.ones((4, 2))).rows_scaled(np.ones((4, 1)))

    @staticmethod
    def _traced_gram(n=1000, p=20):
        """(bytes kept after ``gram`` returns, peak bytes while it runs) over n x n doubles."""
        rows = np.random.default_rng(3).standard_normal((n, p))
        tracemalloc.start()
        try:
            g = gram(rows)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == n
        return kept, peak / (n * n * 8)

    def test_keeps_no_n_by_n_matrix(self):
        assert self._traced_gram()[0] < 1_000_000

    def test_holds_one_n_by_n_matrix(self):
        assert self._traced_gram()[1] < 1.5


class TestOffdiagSquareSum:
    def test_identity(self):
        assert offdiag_square_sum(gram(np.eye(3))) == 0.0

    def test_all_ones(self):
        g = gram(np.ones((3, 1)))
        assert offdiag_square_sum(g) == 6.0

    def test_matches_loop(self):
        rows = rng.standard_normal((15, 4))
        g = gram(rows)
        np.testing.assert_allclose(
            offdiag_square_sum(g), offdiag_square_sum_loop(gram_loop(rows)), rtol=1e-12
        )


class TestChainSumDistinct:
    def test_identity(self):
        assert chain_sum_distinct(gram(np.eye(3))) == 0.0

    def test_all_ones(self):
        assert chain_sum_distinct(gram(np.ones((3, 1)))) == 6.0

    def test_matches_loop(self):
        rows = rng.standard_normal((12, 4))
        g = gram(rows)
        np.testing.assert_allclose(chain_sum_distinct(g), chain_sum_loop(gram_loop(rows)),
                                   rtol=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            chain_sum_distinct(gram(np.ones((2, 1))))


def _col_sum_cases():
    g = np.random.default_rng(7)
    return {
        "ties-and-signed-zeros": g.choice([-2.5, -0.0, 0.0, 1e-3, 1.5, 7.0], size=(9, 5)),
        "single-row": np.array([[1.5, -0.0, 0.0, -3.0]]),
        "one-column": g.standard_normal((17, 1)) * 1e3,
        "tall": g.standard_normal((4000, 50)) * g.lognormal(0.0, 2.0, (4000, 1)),
    }


_COL_SUM_CASES = _col_sum_cases()


def _sum_error_bound(a, axis=None):
    """A bound on the rounding error of any order of summing ``a`` (along ``axis``)."""
    n = a.size if axis is None else a.shape[axis]
    return n * np.finfo(float).eps * np.sum(np.abs(a), axis=axis)


def _exact_col_sums(a):
    return np.array([math.fsum(c) for c in a.T]), np.array([math.fsum(c * c) for c in a.T])


class TestOrderedColSums:
    @pytest.mark.parametrize("name", list(_COL_SUM_CASES))
    def test_matches_exact_sum_of_each_column(self, name):
        a = _COL_SUM_CASES[name]
        for got, exact, terms in zip(ordered_col_sums(a), _exact_col_sums(a), (a, a * a)):
            assert np.all(np.abs(got - exact) <= _sum_error_bound(terms, axis=0))

    @pytest.mark.parametrize("name", list(_COL_SUM_CASES))
    def test_row_permutation_bitwise(self, name):
        # At the dataset level: the column sums of W do not depend on the order in
        # which the rows were given.  Every row appears twice, with two responses.
        a = _COL_SUM_CASES[name]
        x = np.vstack([a, a])
        y = np.repeat([2.0, -0.5], a.shape[0])
        perm = np.random.default_rng(11).permutation(x.shape[0])
        want = build_w(LabeledDataset(x, y))
        got = build_w(LabeledDataset(x[perm], y[perm]))
        assert got.column_sums.tobytes() == want.column_sums.tobytes()
        assert got.column_square_sums.tobytes() == want.column_square_sums.tobytes()

    def test_input_unchanged(self):
        a = _COL_SUM_CASES["ties-and-signed-zeros"]
        before = a.tobytes()
        ordered_col_sums(a)
        assert a.tobytes() == before


class TestReductionStability:
    def test_reversal_tolerance(self):
        x = rng.standard_normal(10_000) * rng.lognormal(0.0, 2.0, 10_000)
        exact = math.fsum(x)
        bound = _sum_error_bound(x)
        assert abs(ordered_sum(x) - exact) <= bound
        assert abs(ordered_sum(x[::-1]) - exact) <= bound

    def test_permutation_bitwise(self):
        # At the dataset level: the kernels read the columns of a dataset, whose
        # rows are stored in the same order however they were given.
        x = rng.standard_normal((200, 3))
        perm = rng.permutation(200)
        a, b = LabeledDataset(x, x[:, 0]), LabeledDataset(x[perm], x[perm, 0])
        assert pair_sum_distinct(a.x[:, 0], a.x[:, 1]) == pair_sum_distinct(b.x[:, 0], b.x[:, 1])
        assert triple_sum_distinct(*a.x.T) == triple_sum_distinct(*b.x.T)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_pair_sum_matches_loop_hypothesis(self, values):
        u = np.asarray(values)
        v = u[::-1].copy()
        fast = pair_sum_distinct(u, v)
        slow = pair_sum_loop(u, v)
        scale = max(1.0, np.abs(u).max() ** 2 * len(u) ** 2)
        assert abs(fast - slow) <= 1e-9 * scale


@pytest.mark.parametrize("trial", range(20))
def test_kernel_battery_random_sizes(trial):
    """Random-size agreement battery over all distinct-index kernels."""
    g = np.random.default_rng(1000 + trial)
    n = int(g.integers(3, 16))
    p = int(g.integers(1, 6))
    rows = g.standard_normal((n, p)) * g.lognormal(0, 1)
    u, v, w = rows[:, 0], g.standard_normal(n), g.standard_normal(n)
    np.testing.assert_allclose(pair_sum_distinct(u, v), pair_sum_loop(u, v),
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(triple_sum_distinct(u, v, w), triple_sum_loop(u, v, w),
                               rtol=1e-10, atol=1e-10)
    gm, loop = gram(rows), gram_loop(rows)
    np.testing.assert_allclose(offdiag_square_sum(gm), offdiag_square_sum_loop(loop),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(chain_sum_distinct(gm), chain_sum_loop(loop),
                               rtol=1e-10, atol=1e-10)
