"""Click-data augmentation: per-user samplers, the alternating loop,
recommendation scoring, binarization, and similarity-based alpha tuning."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from pseudomallows import data, perms, pseudo
from pseudomallows.clicking import (
    Recommendation,
    TruncatedPoisson,
    binarize,
    estimate_alpha_clicks,
    in_compatible_set,
    recommend_all,
    recommend_topk,
)
from pseudomallows.data import ClickDataset, RankingDataset, click_frequency_ranking, click_target_cells
from pseudomallows.mcmc import McmcConfig, mcmc_clicking
from pseudomallows.perms import footrule_distance, is_permutation, permutation_matrix, rank_of
from pseudomallows.pseudo import PseudoConfig, mean_pairwise_similarity, pseudo_clicking, sample_user_rankings
from pseudomallows.simulate import make_dataset


def exact_user_law(clicks_row, alpha, rho) -> dict:
    """Law of one user's compatible ranking, by enumeration.

    The item order is uniform over all n! orders. Given an order, each item
    takes a still-free rank of its own block (clicked: 1..c, unclicked:
    c+1..n) with weight exp(-(alpha/n) |target - r|), where the target
    ranks the group's items by ``rho`` inside the block.
    """
    b = np.asarray(clicks_row)
    rho = np.asarray(rho)
    n, c = b.size, int(b.sum())
    target = np.empty(n)
    for group, offset in ((1, 0), (0, c)):
        items = np.flatnonzero(b == group)
        target[items] = offset + 1 + np.argsort(np.argsort(rho[items]))
    blocks = [range(1, c + 1) if b[i] else range(c + 1, n + 1) for i in range(n)]
    weight = lambda i, r: math.exp(-(alpha / n) * abs(target[i] - r))
    compatible = [tuple(r) for r in permutation_matrix(n).tolist() if in_compatible_set(r, b)]
    law = {}
    for r in compatible:
        total = 0.0
        for order in itertools.permutations(range(n)):
            prob, taken = 1.0, set()
            for i in order:
                free = [s for s in blocks[i] if s not in taken]
                prob *= weight(i, r[i]) / sum(weight(i, s) for s in free)
                taken.add(r[i])
            total += prob
        law[r] = total / math.factorial(n)
    return law


def window_mean_recommendations(users, clicks, k) -> list:
    """Each user's list, one user at a time: the share of draws placing each
    unclicked item in ranks [c+1, c+take], take = min(k, unclicked items),
    ordered by descending share then ascending item."""
    out = []
    for j, row in enumerate(np.asarray(clicks)):
        c = int(row.sum())
        take = min(k, row.size - c)
        probs = ((users[:, j] >= c + 1) & (users[:, j] <= c + take)).mean(axis=0)
        items = sorted(np.flatnonzero(row == 0), key=lambda i: (-probs[i], i))
        out.append([Recommendation(int(i) + 1, float(probs[i])) for i in items[:take]])
    return out


class TestCountModels:
    def test_truncated_poisson_bounds(self):
        rng = np.random.default_rng(0)
        model = TruncatedPoisson(mean=5.0, low=1, high=47)
        draws = model.sample(rng, 100000)
        assert draws.min() >= 1 and draws.max() <= 47

    def test_truncated_poisson_mean_with_loose_bounds(self):
        rng = np.random.default_rng(1)
        draws = TruncatedPoisson(mean=5.0, low=1, high=47).sample(rng, 100000)
        assert abs(draws.mean() - 5.0) < 0.05

    @pytest.mark.parametrize("args,message", [
        ((0.0, 1, 4), "mean must be positive"),
        ((float("nan"), 1, 4), "mean must be positive and finite"),
        ((float("inf"), 1, 4), "mean must be positive and finite"),
        ((5.0, 1.5, 4), "low must be an integer"),
        ((5.0, -1, 4), "low must be at least 0"),
        ((5.0, 1, 4.5), "high must be an integer"),
        ((5.0, 3, 2), "high must be at least 3"),
    ])
    def test_bad_parameters_are_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            TruncatedPoisson(*args)

    def test_infeasible_bounds_raise(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="truncation"):
            TruncatedPoisson(mean=2.0, low=90, high=95).sample(rng, 100)


class TestBinarize:
    def test_top_ranked_become_clicks(self):
        ds = RankingDataset(np.array([[2, 1, 3]]))
        clicks = binarize(ds, TruncatedPoisson(mean=1.0, low=1, high=1), np.random.default_rng(0))
        assert clicks.clicks.tolist() == [[0, 1, 0]]

    def test_counts_respect_bounds(self):
        ds = make_dataset(np.arange(1, 51), 3.0, 40, np.random.default_rng(1))
        clicks = binarize(ds, TruncatedPoisson(mean=5.0, low=1, high=47), np.random.default_rng(2))
        counts = clicks.click_counts()
        assert counts.min() >= 1 and counts.max() <= 47

    def test_bounds_validated_against_n(self):
        ds = RankingDataset(np.array([[1, 2, 3]]))
        with pytest.raises(ValueError, match="bounds"):
            binarize(ds, TruncatedPoisson(mean=2.0, low=1, high=5), np.random.default_rng(0))

    def test_raw_array_gives_its_datasets_clicks(self):
        ds = make_dataset(np.arange(1, 7), 2.0, 30, np.random.default_rng(4))
        model = TruncatedPoisson(2.0, 1, 4)
        from_array = binarize(ds.rankings.copy(), model, np.random.default_rng(5))
        assert np.array_equal(from_array.clicks, binarize(ds, model, np.random.default_rng(5)).clicks)


class TestUserSampler:
    def test_clicks_are_checked(self):
        rng = np.random.default_rng(0)
        for bad in ([[2, 0, 1]], [[1, -1, 0]], [[0.5, 1, 0]]):
            with pytest.raises(ValueError, match="clicks"):
                sample_user_rankings(np.array(bad), 2.0, (1, 2, 3), rng)
        with pytest.raises(ValueError, match="columns"):
            sample_user_rankings(np.array([[1, 0]]), 2.0, (1, 2, 3), rng)

    def test_single_click_forces_rank_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = sample_user_rankings([[1, 0, 0]], 3.0, (1, 2, 3), rng)[0]
            assert r[0] == 1

    def test_two_rank_closed_form(self):
        """Unclicked group of two items: the better one lands directly after
        the clicks with the two-choice softmax probability."""
        rng = np.random.default_rng(1)
        draws = sample_user_rankings(
            np.tile([1, 0, 0], (100000, 1)), 3.0, (1, 2, 3), rng
        )
        p = (draws[:, 1] == 2).mean()
        assert p == pytest.approx(1 / (1 + math.e**-1), abs=0.005)

    def test_flat_limit_uniform_over_compatible_set(self):
        rng = np.random.default_rng(2)
        draws = sample_user_rankings(
            np.tile([1, 1, 0, 0], (40000, 1)), 1e-12, (1, 2, 3, 4), rng
        )
        counts = Counter(tuple(r) for r in draws)
        assert len(counts) == 4  # 2! x 2! compatible rankings
        expected = 40000 / 4
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, 3)

    def test_every_draw_compatible_and_valid(self):
        rng = np.random.default_rng(3)
        data = make_dataset(np.arange(1, 9), 2.0, 50, rng)
        clicks = binarize(data, TruncatedPoisson(3.0, 1, 7), rng)
        draws = sample_user_rankings(clicks.clicks, 2.0, np.arange(1, 9), rng)
        for row, b in zip(draws, clicks.clicks):
            assert is_permutation(row)
            assert in_compatible_set(row, b)

    @pytest.mark.parametrize(
        "clicks_row, rho, bound",
        [
            ((1, 0, 1, 0, 0), (3, 1, 5, 2, 4), 0.015),  # 2! x 3! compatible rankings
            ((0, 0, 0, 0, 0), (2, 5, 1, 4, 3), 0.03),  # c = 0: all 5! rankings
            ((1, 1, 1, 1, 1), (4, 2, 5, 1, 3), 0.03),  # c = n
            ((1,), (1,), 0.0),  # n = 1
        ],
        ids=["c=2", "c=0", "c=n", "n=1"],
    )
    def test_matches_exact_law(self, clicks_row, rho, bound):
        """Total variation between 1e5 draws and the enumerated law."""
        law = exact_user_law(clicks_row, 3.0, rho)
        assert sum(law.values()) == pytest.approx(1.0)
        t = 100000
        draws = sample_user_rankings(np.tile(clicks_row, (t, 1)), 3.0, rho, np.random.default_rng(6))
        counts = Counter(map(tuple, draws.tolist()))
        assert set(counts) <= set(law)
        tv = 0.5 * sum(abs(counts.get(r, 0) / t - p) for r, p in law.items())
        assert tv <= bound

    def test_mixed_click_counts_match_exact_law(self):
        """One call over users with c = 0, 1, 2 and n, whose blocks share
        kernel calls: each row's total variation to its enumerated law stays
        within the bound of its click count above."""
        rho = (3, 1, 5, 2, 4)
        rows = [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 1, 1)]
        bounds = (0.03, 0.015, 0.015, 0.03)
        t = 100000
        draws = sample_user_rankings(np.repeat(rows, t, axis=0), 3.0, rho, np.random.default_rng(6))
        for row, bound, got in zip(rows, bounds, draws.reshape(len(rows), t, -1)):
            law = exact_user_law(row, 3.0, rho)
            counts = Counter(map(tuple, got.tolist()))
            assert set(counts) <= set(law)
            assert 0.5 * sum(abs(counts.get(r, 0) / t - p) for r, p in law.items()) <= bound

    def test_targets_follow_rho_within_each_click_group(self):
        """The target cells, less each user's row offset, equal the
        re-ranking of rho with unclicked items after clicked ones, on rows
        with no clicks and with all of them too."""
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 20):
            b = rng.integers(0, 2, (30, n))
            b[0], b[1] = 0, 1
            for _ in range(5):
                rho = rng.permutation(n) + 1
                want = rank_of(rho + (1 - b) * 2 * n) - 1
                assert np.array_equal(click_target_cells(b)(rho) - np.arange(0, b.size, n)[:, None], want)

    def test_zero_click_user_unconstrained(self):
        rng = np.random.default_rng(4)
        r = sample_user_rankings([[0, 0, 0, 0]], 2.0, (4, 3, 2, 1), rng)[0]
        assert is_permutation(r)

    def test_alpha_validation(self):
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                sample_user_rankings([[1, 0]], alpha, (1, 2), np.random.default_rng(0))


class TestPseudoClicking:
    def test_all_clicked_degenerates_to_full_data_loop(self):
        clicks = ClickDataset(np.ones((10, 4), dtype=int))
        ss, users = pseudo_clicking(clicks, PseudoConfig(2.0, 0.0, 20, seed=0), warmup=2)
        assert ss.n_samples == 20 and users.shape == (20, 10, 4)
        assert all(is_permutation(r) for r in ss.samples)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        data = make_dataset(np.arange(1, 7), 3.0, 20, rng)
        clicks = binarize(data, TruncatedPoisson(2.0, 1, 5), rng)
        cfg = PseudoConfig(3.0, 0.0, 30, seed=21)
        a = pseudo_clicking(clicks, cfg, warmup=5)
        b = pseudo_clicking(clicks, cfg, warmup=5)
        assert np.array_equal(a[0].samples, b[0].samples)
        assert np.array_equal(a[1], b[1])

    def test_user_samples_compatible(self):
        rng = np.random.default_rng(6)
        data = make_dataset(np.arange(1, 7), 3.0, 15, rng)
        clicks = binarize(data, TruncatedPoisson(2.0, 1, 5), rng)
        _, users = pseudo_clicking(clicks, PseudoConfig(3.0, 0.0, 25, seed=1), warmup=3)
        for t in range(users.shape[0]):
            for j in range(clicks.n_users):
                assert in_compatible_set(users[t, j], clicks.clicks[j])

    @pytest.mark.filterwarnings("error")
    def test_zero_users_give_valid_draws(self):
        """The consensus step centres at the column sums, which tie (to the
        identity) with no users, where the mean of no rows would be NaN."""
        ss, users = pseudo_clicking(ClickDataset(np.zeros((0, 5), int)), PseudoConfig(2.0, 0.5, 7, seed=3), 2)
        assert ss.samples.shape == (7, 5) and all(is_permutation(r) for r in ss.samples)
        assert users.shape == (7, 0, 5)

    def test_raw_click_array_equals_the_dataset(self):
        rng = np.random.default_rng(8)
        clicks = binarize(make_dataset(np.arange(1, 7), 2.0, 12, rng), TruncatedPoisson(2.0, 1, 5), rng)
        cfg = PseudoConfig(2.0, 0.3, 15, seed=4)
        ss, users = pseudo_clicking(clicks.clicks.tolist(), cfg, 3)
        want_ss, want_users = pseudo_clicking(clicks, cfg, 3)
        assert np.array_equal(ss.samples, want_ss.samples) and np.array_equal(users, want_users)
        with pytest.raises(ValueError, match="outside"):
            pseudo_clicking([[0, 2, 1]], cfg)

    def test_warmup_must_be_an_integer(self):
        clicks = ClickDataset(np.array([[1, 0, 0], [0, 1, 1]]))
        cfg = PseudoConfig(2.0, 0.0, 3, seed=1)
        with pytest.raises(ValueError, match="warmup must be an integer"):
            pseudo_clicking(clicks, cfg, warmup=2.5)
        with pytest.raises(ValueError, match="warmup must be at least 0"):
            pseudo_clicking(clicks, cfg, warmup=-1)
        ss, users = pseudo_clicking(clicks, cfg, warmup=np.int64(2))
        want_ss, want_users = pseudo_clicking(clicks, cfg, warmup=2)
        assert np.array_equal(ss.samples, want_ss.samples) and np.array_equal(users, want_users)

    def test_no_permutation_check_per_iteration(self, monkeypatch):
        """The loop checks no ranking it made itself: the permutation checks
        of one call do not grow with the number of iterations."""
        calls = []
        for module in (perms, pseudo, data):
            check = module.non_permutation_rows
            monkeypatch.setattr(module, "non_permutation_rows", lambda arr, check=check: calls.append(1) or check(arr))
        rng = np.random.default_rng(9)
        clicks = binarize(make_dataset(np.arange(1, 9), 2.0, 30, rng), TruncatedPoisson(2.0, 1, 6), rng)
        counts = []
        for n_samples in (5, 50):
            calls.clear()
            pseudo_clicking(clicks, PseudoConfig(2.0, 0.5, n_samples, seed=2), warmup=3)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_one_and_two_items(self, n, sigma):
        """n = 1 and 2 give an empty and a one-pair V-set; users click
        everything, nothing or (at n = 2) one item."""
        clicks = np.array([[1] * n, [0] * n, [1] + [0] * (n - 1), [0] * (n - 1) + [1]])
        cfg = PseudoConfig(2.0, sigma, 40, seed=6)
        ss, users = pseudo_clicking(clicks, cfg, warmup=2)
        assert ss.samples.shape == (40, n) and users.shape == (40, 4, n)
        assert all(is_permutation(r) for r in ss.samples)
        assert all(in_compatible_set(users[t, j], clicks[j]) for t in range(40) for j in range(4))
        again, again_users = pseudo_clicking(clicks, cfg, warmup=2)
        assert np.array_equal(ss.samples, again.samples) and np.array_equal(users, again_users)
        if n == 2:  # both orders of the one pair are drawn
            assert {tuple(r) for r in ss.samples} == {(1, 2), (2, 1)}

    def test_consensus_recovery(self):
        """Synthetic recovery: enough users and clicks pin the consensus."""
        hits = 0
        for rep in range(10):
            rng = np.random.default_rng(7000 + rep)
            data = make_dataset(np.arange(1, 5), 5.0, 50, rng)
            clicks = binarize(data, TruncatedPoisson(2.0, 1, 3), rng)
            ss, _ = pseudo_clicking(clicks, PseudoConfig(5.0, 0.0, 200, seed=rep), warmup=10)
            from pseudomallows.experiments import cp_consensus

            hits += footrule_distance(cp_consensus(ss), np.arange(1, 5)) <= 2
        assert hits >= 9


class TestRecommendations:
    def test_window_covering_everything_gives_probability_one(self):
        samples = np.array([[1, 2, 3, 4], [1, 3, 2, 4], [1, 4, 2, 3]])
        recs = recommend_topk(samples, (1, 0, 0, 0), 3)
        assert [r.probability for r in recs] == [1.0, 1.0, 1.0]

    def test_two_sample_tie_prefers_lower_item(self):
        samples = np.array([[1, 2, 3], [1, 3, 2]])
        recs = recommend_topk(samples, (1, 0, 0), 1)
        assert recs == [Recommendation(2, 0.5)]

    def test_point_mass_recommends_next_items(self):
        samples = np.tile([2, 1, 3, 4], (50, 1))
        recs = recommend_topk(samples, (0, 1, 0, 0), 2)
        assert [r.item for r in recs] == [1, 3]
        assert all(r.probability == 1.0 for r in recs)

    def test_k_too_large(self):
        samples = np.array([[1, 2, 3]])
        with pytest.raises(ValueError, match="k"):
            recommend_topk(samples, (1, 1, 0), 2)

    def test_click_row_must_hold_only_zeros_and_ones(self):
        """A 2 is not two clicks and 0.5 is not cut down to no click; a 0/1
        row of ints, floats or bools gives the list recommend_all gives."""
        samples = np.array([[1, 2, 3], [2, 1, 3]])
        for row, message in (((2, 0, 0), "outside"), ((0.5, 0, 0), "integers")):
            with pytest.raises(ValueError, match=message):
                recommend_topk(samples, row, 1)
        want = recommend_all(samples[:, None, :], [[1, 0, 0]], 1)[0]
        assert want == [Recommendation(2, 0.5)]
        for row in ((1, 0, 0), np.array([1.0, 0.0, 0.0]), np.array([True, False, False])):
            assert recommend_topk(samples, row, 1) == want

    def test_click_row_must_match_the_samples_width(self):
        samples = np.array([[1, 2, 3], [2, 1, 3]])
        with pytest.raises(ValueError, match="does not match"):
            recommend_topk(samples, (1, 0, 0, 0), 1)

    def test_clicked_items_never_recommended(self):
        rng = np.random.default_rng(8)
        data = make_dataset(np.arange(1, 7), 3.0, 10, rng)
        clicks = binarize(data, TruncatedPoisson(2.0, 1, 4), rng)
        _, users = pseudo_clicking(clicks, PseudoConfig(3.0, 0.0, 40, seed=3), warmup=5)
        for j in range(clicks.n_users):
            c = int(clicks.click_counts()[j])
            recs = recommend_topk(users[:, j], clicks.clicks[j], min(3, 6 - c))
            for item, _ in recs:
                assert clicks.clicks[j, item - 1] == 0

    def test_recommend_all_is_the_per_user_loop(self):
        """Every user's list is the per-user window mean at min(k, unclicked),
        for pseudo and MCMC traces: a user who clicked everything gets [],
        one with fewer than k unclicked items gets all of them, and no users
        give no lists. recommend_topk at that size gives the same list."""
        rng = np.random.default_rng(21)
        data = make_dataset(np.arange(1, 7), 2.0, 8, rng)
        b = binarize(data, TruncatedPoisson(2.0, 1, 5), rng).clicks.copy()
        b[0] = 1
        b[1] = (1, 1, 1, 1, 0, 1)
        b[2] = 0
        clicks = ClickDataset(b)
        _, pseudo_users = pseudo_clicking(clicks, PseudoConfig(2.0, 0.0, 30, seed=5), warmup=2)
        _, mcmc_users = mcmc_clicking(clicks, 2.0, McmcConfig(600, burn_in=100, thin=10, seed=5))
        for users in (pseudo_users, mcmc_users):
            for k in (1, 3, 4, 7):
                got = recommend_all(users, clicks, k)
                assert got == window_mean_recommendations(users, b, k)
                assert got[0] == [] and len(got[1]) == 1 and len(got[2]) == min(k, 6)
                assert recommend_all(users, b, k) == got
                for j in range(1, clicks.n_users):
                    assert recommend_topk(users[:, j], b[j], len(got[j])) == got[j]
        assert recommend_all(np.zeros((5, 0, 6), dtype=np.int64), np.zeros((0, 6), dtype=int), 3) == []

    def test_recommend_all_rejects_a_trace_of_other_users(self):
        users = np.tile([1, 2, 3], (4, 2, 1))
        with pytest.raises(ValueError, match="does not match"):
            recommend_all(users, [[1, 0, 0]], 1)

    @pytest.mark.parametrize("k", [0, -2])
    def test_recommend_all_rejects_k_below_one(self, k):
        users = np.tile([1, 2, 3], (4, 1, 1))
        with pytest.raises(ValueError, match="k must be at least 1"):
            recommend_all(users, [[1, 0, 0]], k)

    def test_k_must_be_an_integer(self):
        users = np.tile([1, 2, 3], (4, 1, 1))
        for call in (lambda k: recommend_all(users, [[1, 0, 0]], k), lambda k: recommend_topk(users[:, 0], (1, 0, 0), k)):
            with pytest.raises(ValueError, match="k must be an integer"):
                call(1.5)
            assert call(np.int64(1)) == call(1)


class TestClickFrequencyRanking:
    def test_descending_frequency(self):
        clicks = ClickDataset(np.array([[1, 0, 1], [1, 0, 0], [1, 1, 1]]))
        # frequencies 3, 1, 2 -> ranks 1, 3, 2
        assert click_frequency_ranking(clicks).tolist() == [1, 3, 2]

    def test_frequency_ties_break_by_index(self):
        clicks = ClickDataset(np.array([[1, 1, 0]]))
        assert click_frequency_ranking(clicks).tolist() == [1, 2, 3]


class TestBinarySimilarity:
    def test_pair_value(self):
        assert mean_pairwise_similarity(np.array([[1, 0, 1], [1, 1, 0]])) == pytest.approx(0.5)

    def test_zero_click_users_excluded(self):
        with_zero = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0]])
        assert mean_pairwise_similarity(with_zero) == pytest.approx(0.5)

    def test_needs_two_clicking_users(self):
        with pytest.raises(ValueError, match="two users"):
            mean_pairwise_similarity(np.array([[1, 0], [0, 0]]))


class TestAlphaFromClicks:
    def test_identical_click_vectors_take_largest_alpha(self):
        clicks = ClickDataset(np.tile([1, 1, 0, 0, 0, 0, 0, 0], (30, 1)))
        est = estimate_alpha_clicks(
            clicks, (1.0, 3.0, 8.0),
            count_model=TruncatedPoisson(2.0, 1, 8),
            sim_users=100, rng=np.random.default_rng(0),
        )
        assert est == 8.0

    def test_empty_grid_rejected(self):
        clicks = ClickDataset(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="empty"):
            estimate_alpha_clicks(clicks, ())
        with pytest.raises(ValueError, match="ascending"):
            estimate_alpha_clicks(clicks, (2.0, 1.0))

    def test_simulated_similarity_increases_with_alpha(self):
        """The similarity statistic must be monotone on the default grid for
        the matching estimator to be well posed."""
        rng = np.random.default_rng(1)
        rho0 = np.arange(1, 16)
        model = TruncatedPoisson(3.0, 1, 15)
        sims = []
        for a in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0):
            data = make_dataset(rho0, a, 250, rng)
            sims.append(mean_pairwise_similarity(binarize(data, model, rng).clicks))
        assert all(x < y for x, y in zip(sims, sims[1:]))
