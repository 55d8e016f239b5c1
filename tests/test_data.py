import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudomallows import data as data_module
from pseudomallows.clicking import estimate_alpha_clicks
from pseudomallows.data import ClickDataset, RankCountMatrix, RankingDataset, RowError, SampleSet, rank_cost, rank_counts
from pseudomallows.evaluation import (
    choose_sigma, default_sigma, iterative_search, ordering_kl, posterior_profile,
)
from pseudomallows.exact import constrained_l1_minimizer, elbo_exact, joint_kl_exact, marginal_median
from pseudomallows.mcmc import McmcConfig, mcmc_rho
from pseudomallows.perms import _BLOCK_CELLS, adjacent_swaps, as_ranking, non_permutation_rows
from pseudomallows.pseudo import PseudoConfig, estimate_alpha_full, estimate_rho_hat, sample_rho
from pseudomallows.simulate import make_dataset, sample_mallows


def test_ranking_dataset_validates_rows():
    with pytest.raises(ValueError, match="row 1"):
        RankingDataset(np.array([[1, 2, 3], [1, 1, 2]]))
    with pytest.raises(ValueError, match="integers"):
        RankingDataset([[1.5, 2, 3]])


def _non_permutation_reference(table) -> np.ndarray:
    """True for each row along the last axis whose sorted entries are not 1..n."""
    a = np.asarray(table)
    n = a.shape[-1]
    flags = [sorted(row) != list(range(1, n + 1)) for row in a.reshape(-1, n).tolist()]
    return np.array(flags, dtype=bool).reshape(a.shape[:-1])


def _overwrite(perm, changes) -> list:
    row = list(perm)
    for j, value in changes:
        row[j] = value
    return row


@st.composite
def _integer_tables(draw):
    """1-6 rows of width n in [1, 12] or one of 63, 64, 65, 200. A row is a
    permutation of 1..n with up to three entries overwritten, or n entries
    drawn outright. Entries lie in [-1, n+1] or wrap to a rank when cast to
    a narrow dtype (n + 256, 2**40, -2**63)."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([63, 64, 65, 200])))
    entry = st.one_of(st.integers(-1, n + 1), st.sampled_from([n + 256, 2**40, -(2**63)]))
    edits = st.lists(st.tuples(st.integers(0, n - 1), entry), max_size=3)
    row = st.one_of(
        st.builds(_overwrite, st.permutations(range(1, n + 1)), edits),
        st.lists(entry, min_size=n, max_size=n),
    )
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, database=None)
@given(_integer_tables())
def test_ranking_dataset_accepts_exactly_the_permutation_rows(rows):
    n = len(rows[0])
    good = [sorted(row) == list(range(1, n + 1)) for row in rows]
    assert non_permutation_rows(rows).tolist() == _non_permutation_reference(rows).tolist()
    if all(good):
        assert RankingDataset(rows).rankings.tolist() == rows
    else:
        with pytest.raises(RowError) as err:
            RankingDataset(rows)
        assert err.value.row == good.index(False)
        assert f"ranking row {err.value.row} " in str(err.value)
    for row, ok in zip(rows, good):
        if ok:
            assert as_ranking(row).tolist() == row
        else:
            with pytest.raises(ValueError, match="permutation"):
                as_ranking(row)


@pytest.mark.parametrize("table", [
    np.array([3, 1, 2]),
    np.array([3, 3, 2]),
    np.array([[[1, 2], [2, 2]], [[2, 1], [0, 1]], [[1, 3], [2, 1]]]),
    np.empty((0, 5), dtype=np.int64),
    np.array([[True], [False]]),
    np.array([True, True]),
    np.array([[1, 2, 3], [2**64 - 1, 1, 2], [3 + 2**63, 1, 2], [3, 3, 1]], dtype=np.uint64),
    np.array([[1.0, 3.0, 2.0], [2.5, 1.0, 3.0], [np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0],
              [-np.inf, 1.0, 2.0], [1.0, 1.0, 2.0]]),
], ids=["1d", "1d-dup", "3d", "no-rows", "bool", "bool-1d", "uint64", "float"])
def test_non_permutation_rows_matches_a_sorted_reference(table):
    flags = non_permutation_rows(table)
    assert np.shape(flags) == table.shape[:-1]
    assert np.array_equal(flags, _non_permutation_reference(table))


@pytest.mark.parametrize("n", [20, 200])
def test_first_bad_row_is_named_across_blocks(n):
    """The check runs over blocks of rows; bad rows in the second and fourth
    block must still be flagged, and the first of them named."""
    block = _BLOCK_CELLS // n
    rng = np.random.default_rng(3)
    table = np.argsort(rng.random((4 * block + 7, n)), axis=1) + 1
    first, second = block + 5, 3 * block + 2
    table[first, 0] = table[first, 1]
    table[second, -1] = n + 256
    flags = non_permutation_rows(table)
    assert np.flatnonzero(flags).tolist() == [first, second]
    with pytest.raises(RowError) as err:
        RankingDataset(table)
    assert err.value.row == first


def test_ranking_dataset_shape_and_labels():
    ds = RankingDataset(np.array([[2, 1], [1, 2]]), labels=("a", "b"))
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.labels == ("a", "b")
    with pytest.raises(ValueError, match="label"):
        RankingDataset(np.array([[1, 2]]), labels=("only",))


def test_ranking_dataset_is_frozen():
    ds = RankingDataset(np.array([[1, 2, 3]]))
    with pytest.raises(ValueError):
        ds.rankings[0, 0] = 5


def test_click_dataset_validates_bits():
    with pytest.raises(ValueError, match="row 0"):
        ClickDataset(np.array([[0, 2, 1]]))
    with pytest.raises(ValueError, match="integers"):
        ClickDataset([[0.5, 1]])
    ds = ClickDataset(np.array([[1, 0, 1], [0, 0, 0]]))
    assert ds.click_counts().tolist() == [2, 0]


def test_click_dataset_row_error_carries_the_row():
    with pytest.raises(RowError, match="clicks row 2") as err:
        ClickDataset(np.array([[1, 0], [0, 1], [1, -1]]))
    assert err.value.row == 2


def test_sample_set_metadata():
    ss = SampleSet(np.array([[1, 2], [2, 1]]), alpha=2.0, sigma=0.5, seed=7)
    assert ss.n_samples == 2 and ss.n_items == 2
    assert ss.alpha == 2.0 and ss.seed == 7


class TestRankCountMatrix:
    def test_counts_sum_to_n_users(self):
        rng = np.random.default_rng(0)
        arr = np.array([rng.permutation(6) + 1 for _ in range(40)])
        rcm = RankCountMatrix(arr)
        assert (rcm.counts.sum(axis=1) == 40).all()
        with pytest.raises(ValueError, match="1..3"):
            RankCountMatrix(np.array([[1, 2, 4]]))

    def test_cost_matches_brute_force(self):
        """cost[i, l-1] must equal sum_j |R^j_i - l| computed directly."""
        rng = np.random.default_rng(1)
        arr = np.array([rng.permutation(5) + 1 for _ in range(17)])
        rcm = RankCountMatrix(arr)
        for i in range(5):
            for l in range(1, 6):
                assert rcm.cost[i, l - 1] == np.abs(arr[:, i] - l).sum()

    def test_rank_cost_of_any_table(self):
        """Rows of unequal totals and float weights: the cost and the rank sums
        match sum_r counts[i, r-1] |r - l| and sum_r r counts[i, r-1]."""
        rng = np.random.default_rng(3)
        for counts in (rng.integers(0, 9, (6, 6)), rng.random((4, 4)), np.zeros((1, 1), dtype=np.int64)):
            n = counts.shape[0]
            ranks = np.arange(1, n + 1)
            cost, sums = rank_cost(counts)
            assert np.allclose(cost, counts @ np.abs(ranks[:, None] - ranks), rtol=0, atol=1e-12)
            assert np.allclose(sums, counts @ ranks, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match=r"\(n, n\)"):
            rank_cost(np.ones((2, 3)))

    def test_weighted_counts_add_in_row_order(self):
        """A weighted count equals the per-item ``np.add.at`` loop bit for bit."""
        rng = np.random.default_rng(2)
        for n in range(1, 7):
            arr = np.array([rng.permutation(n) + 1 for _ in range(30)])
            weights = rng.random(30)
            want = np.zeros((n, n))
            for i in range(n):
                np.add.at(want[i], arr[:, i] - 1, weights)
            assert np.array_equal(rank_counts(arr, weights), want)

    @pytest.mark.parametrize("N, n", [(0, 3), (0, 100), (1, 1), (200, 20), (5000, 20), (1700, 100)])
    def test_counts_over_several_blocks(self, N, n):
        """Counted a block of rows at a time, with an offset block (narrow
        rows) or one offset row (n = 100): the table equals each item's own
        count, as int64, over several blocks and a partial last one."""
        rng = np.random.default_rng(N + n)
        arr = np.argsort(rng.random((N, n)), axis=1) + 1
        want = np.array([np.bincount(arr[:, i] - 1, minlength=n) for i in range(n)]).reshape(n, n)
        for rows in (arr, arr.view(data_module.CheckedRows), arr[::-1]):
            got = rank_counts(rows)
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_from_dataset_takes_a_table_a_dataset_or_rankings(self):
        arr = np.array([[2, 1, 3], [1, 3, 2]])
        table = RankCountMatrix.from_dataset(arr)
        assert RankCountMatrix.from_dataset(table) is table
        assert np.array_equal(RankCountMatrix.from_dataset(RankingDataset(arr)).cost, table.cost)
        with pytest.raises(RowError):
            RankCountMatrix.from_dataset([[1, 1, 3]])

    def test_constructor_checks_rows_as_the_dataset_does(self, monkeypatch):
        """Raw rows that RankingDataset rejects are rejected by the constructor
        too, with the same RowError, after one row check."""
        with pytest.raises(RowError, match="row 0 is not a permutation of 1..3") as err:
            RankCountMatrix(np.array([[1, 1, 3], [2, 2, 2]]))
        assert err.value.row == 0
        with pytest.raises(ValueError, match="integers"):
            RankCountMatrix([[1.5, 2, 3]])
        checks = []
        inner = data_module.non_permutation_rows
        monkeypatch.setattr(data_module, "non_permutation_rows", lambda a: checks.append(1) or inner(a))
        RankCountMatrix(np.array([[2, 1, 3], [1, 3, 2]]))
        assert checks == [1]

    def test_a_dataset_keeps_one_read_only_table(self, monkeypatch):
        """``from_dataset`` of a dataset builds once, with no second row check,
        and returns that table; raw rows and a replaced dataset get their own."""
        arr = np.array([[2, 1, 3], [1, 3, 2], [3, 2, 1]])
        ds = RankingDataset(arr)
        checks = []
        inner = data_module.non_permutation_rows
        monkeypatch.setattr(data_module, "non_permutation_rows", lambda a: checks.append(1) or inner(a))
        table = RankCountMatrix.from_dataset(ds)
        assert RankCountMatrix.from_dataset(ds) is table and checks == []
        for field in (table.counts, table.cost, table.rank_sums):
            assert not field.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
        fresh = RankCountMatrix(arr)
        for name in ("counts", "cost", "rank_sums"):
            assert np.array_equal(getattr(table, name), getattr(fresh, name))
        assert (table.n_users, table.n_items) == (3, 3)
        assert RankCountMatrix.from_dataset(arr) is not RankCountMatrix.from_dataset(arr)
        replaced = dataclasses.replace(ds)
        assert RankCountMatrix.from_dataset(replaced) is not table
        assert np.array_equal(RankCountMatrix.from_dataset(replaced).cost, table.cost)

    def test_threads_that_share_a_dataset_get_equal_tables(self):
        """Threads that use one dataset first, all at once, each get a table
        equal to a fresh one, and every later call gets one and the same."""
        rng = np.random.default_rng(4)
        arr = np.array([rng.permutation(12) + 1 for _ in range(2000)])
        fresh = RankCountMatrix(arr)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ds, tables, barrier = RankingDataset(arr), [], threading.Barrier(8)

                def use():
                    barrier.wait(timeout=10)
                    tables.append(RankCountMatrix.from_dataset(ds))

                threads = [threading.Thread(target=use) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads) and len(tables) == 8
                for table in tables:
                    assert np.array_equal(table.cost, fresh.cost) and np.array_equal(table.rank_sums, fresh.rank_sums)
                assert RankCountMatrix.from_dataset(ds) is RankCountMatrix.from_dataset(ds)
        finally:
            sys.setswitchinterval(interval)

    def test_constructor_names_from_dataset_for_a_dataset(self):
        arr = np.array([[2, 1, 3], [1, 3, 2]])
        for data in (RankingDataset(arr), RankCountMatrix(arr)):
            with pytest.raises(TypeError, match="use RankCountMatrix.from_dataset"):
                RankCountMatrix(data)


_RANKINGS = make_dataset(np.arange(1, 5), 2.0, 12, np.random.default_rng(3)).rankings
_CLICKS = (_RANKINGS <= 2).astype(np.int64)

# entry -> (input kind, seeded call); each reads its input once, raw or not
_ENTRIES = {
    "sample_rho": ("rankings", lambda d: sample_rho(d, PseudoConfig(2.0, 0.5, 50, seed=1)).samples),
    "estimate_rho_hat": ("rankings", estimate_rho_hat),
    "estimate_alpha_full": ("rankings", lambda d: estimate_alpha_full(d, (1.0, 3.0), sim_users=30, rng=2)),
    "estimate_alpha_clicks": ("clicks", lambda d: estimate_alpha_clicks(d, (1.0, 3.0), sim_users=30, rng=2)),
    "mcmc_rho": ("rankings", lambda d: mcmc_rho(d, 2.0, McmcConfig(300, seed=3)).rho_samples),
    "choose_sigma": ("rankings", lambda d: choose_sigma(
        d, 2.0, (0.0, 1.0), posterior_profile(_RANKINGS, 2.0), n_samples=50, rng=4)),
    "default_sigma": ("rankings", lambda d: default_sigma(d, 1.0, rng=5)),
    "iterative_search": ("rankings", lambda d: iterative_search(d, 2.0, (1, 2, 3, 4), 1, rng=6).kl_values),
    "elbo_exact": ("rankings", lambda d: elbo_exact(d, 2.0, (2, 1, 4, 3))),
    "joint_kl_exact": ("rankings", lambda d: joint_kl_exact(d, 2.0, (2, 1, 4, 3))),
}


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_entries_take_raw_arrays_as_their_datasets(name):
    """A raw array gives the seeded output of its dataset, and a row the
    container rejects is rejected with its RowError."""
    kind, call = _ENTRIES[name]
    if kind == "rankings":
        raw, container, bad_row = _RANKINGS, RankingDataset, [1, 1, 3, 4]
    else:
        raw, container, bad_row = _CLICKS, ClickDataset, [0, 2, 1, 0]
    np.testing.assert_array_equal(call(raw.copy()), call(container(raw)))
    with pytest.raises(RowError, match="row 12"):
        call(np.vstack([raw, bad_row]))


_PROFILE = posterior_profile(_RANKINGS, 2.0)

# count argument -> call taking the bad value; each names the argument in its error
_COUNTS = {
    "size": lambda v: sample_mallows((1, 2, 3), 1.0, v, 0),
    "n_users": lambda v: make_dataset((1, 2, 3), 1.0, v, 0),
    "max_iters": lambda v: iterative_search(_RANKINGS, 2.0, (1, 2, 3, 4), v, rng=0),
    "draws (search)": lambda v: iterative_search(_RANKINGS, 2.0, (1, 2, 3, 4), 0, "sampled", v, rng=0),
    "draws (ordering_kl)": lambda v: ordering_kl(_RANKINGS, 2.0, (1, 2, 3, 4), _PROFILE, v, 0),
    "count": lambda v: adjacent_swaps((1, 2, 3), v, np.random.default_rng(0)),
    "sim_users (full)": lambda v: estimate_alpha_full(_RANKINGS, (1.0, 3.0), sim_users=v, rng=0),
    "sim_users (clicks)": lambda v: estimate_alpha_clicks(_CLICKS, (1.0, 3.0), sim_users=v, rng=0),
    "excluded rank (median)": lambda v: marginal_median((1, 2, 3), 1.0, 1, excluded=(v,)),
    "excluded rank (l1)": lambda v: constrained_l1_minimizer(_RANKINGS, 1, excluded=(v,)),
}


@pytest.mark.parametrize("bad", [2.5, 2.0])
@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_counts_must_be_integers(name, bad):
    with pytest.raises(ValueError, match=f"^{name.split(' (')[0]} must be an integer"):
        _COUNTS[name](bad)


@pytest.mark.parametrize("name", ["sim_users (full)", "sim_users (clicks)"])
def test_similarity_needs_two_simulated_users(name):
    with pytest.raises(ValueError, match="sim_users must be at least 2"):
        _COUNTS[name](1)
