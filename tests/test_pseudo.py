"""Sequential sampler correctness against closed forms and the enumeration
oracle, plus the estimators built on top of it."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from pseudomallows.data import RankCountMatrix, RankingDataset
from pseudomallows.exact import constrained_l1_minimizer, exact_distribution
from pseudomallows.perms import (
    CapacityError,
    is_permutation,
    ordering_of,
    permutation_matrix,
    v_set,
)
from pseudomallows.pseudo import (
    PseudoConfig,
    estimate_alpha_full,
    estimate_rho_hat,
    mean_pairwise_similarity,
    sample_rho,
    sample_rho_with_orderings,
)
from pseudomallows.simulate import make_dataset


class TestSampleGivenOrdering:
    def test_two_rank_closed_form(self):
        ds = RankingDataset(np.array([[1, 2]]))
        rng = np.random.default_rng(0)
        draws = sample_rho_with_orderings(ds, 2.0, np.broadcast_to((1, 2), (100000, 2)), rng)
        p = (draws[:, 0] == 1).mean()
        assert p == pytest.approx(1 / (1 + math.e**-1), abs=0.005)

    def test_flat_limit_uniform(self):
        ds = make_dataset((1, 2, 3, 4), 2.0, 10, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        draws = sample_rho_with_orderings(ds, 1e-12, np.broadcast_to((1, 2, 3, 4), (48000, 4)), rng)
        counts = Counter(tuple(r) for r in draws)
        expected = 48000 / 24
        stat = sum((counts.get(tuple(p), 0) - expected) ** 2 / expected
                   for p in permutation_matrix(4))
        assert stat < chi2.ppf(0.999, 23)

    def test_single_item(self):
        ds = RankingDataset(np.array([[1]]))
        rng = np.random.default_rng(3)
        assert sample_rho_with_orderings(ds, 1.0, [(1,)], rng).tolist() == [[1]]

    def test_every_draw_is_a_permutation(self):
        ds = make_dataset(np.arange(1, 9), 3.0, 20, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        draws = sample_rho_with_orderings(ds, 3.0, np.broadcast_to(np.arange(1, 9), (2000, 8)), rng)
        assert all(is_permutation(r) for r in draws)

    def test_alpha_validation(self):
        ds = RankingDataset(np.array([[1, 2]]))
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                sample_rho_with_orderings(ds, alpha, [(1, 2)], np.random.default_rng(0))

    def test_orderings_must_be_permutations(self):
        ds = RankingDataset(np.array([[1, 2, 3]]))
        rng = np.random.default_rng(0)
        for bad in ([[1, 1, 2]], [[0, 1, 2]], [[1, 2, 3], [1.5, 2, 3]], [[3, 3, 1]]):
            with pytest.raises(ValueError, match="permutation"):
                sample_rho_with_orderings(ds, 1.0, bad, rng)


class TestExactDistribution:
    def test_two_rank_closed_form(self):
        ds = RankingDataset(np.array([[1, 2]]))
        dist = exact_distribution(ds, 2.0, (1, 2))
        assert dist.prob_of((1, 2)) == pytest.approx(1 / (1 + math.e**-1), abs=1e-12)

    def test_alpha_zero_uniform(self):
        ds = make_dataset((1, 2, 3), 1.0, 7, np.random.default_rng(0))
        dist = exact_distribution(ds, 0.0, (3, 1, 2))
        assert np.allclose(dist.probs, 1 / 6)

    def test_probabilities_sum_to_one(self):
        ds = make_dataset(np.arange(1, 6), 2.5, 30, np.random.default_rng(1))
        dist = exact_distribution(ds, 2.5, (3, 2, 4, 1, 5))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sampler_self_consistency(self):
        ds = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(2))
        ordering = ordering_of((2, 1, 3))
        dist = exact_distribution(ds, 2.0, ordering)
        rng = np.random.default_rng(3)
        draws = sample_rho_with_orderings(ds, 2.0, np.broadcast_to(ordering, (100000, 3)), rng)
        counts = Counter(tuple(r) for r in draws)
        tv = 0.5 * sum(
            abs(counts.get(tuple(r), 0) / 100000 - p)
            for r, p in zip(dist.support, dist.probs)
        )
        assert tv < 0.02

    def test_capacity(self):
        ds = make_dataset(np.arange(1, 10), 1.0, 2, np.random.default_rng(4))
        with pytest.raises(CapacityError):
            exact_distribution(ds, 1.0, np.arange(1, 10))

    def test_non_permutation_data_rejected(self):
        with pytest.raises(ValueError, match="ranking row 1"):
            exact_distribution(np.array([[1, 2, 3], [1, 1, 2]]), 1.0, (1, 2, 3))


class TestFactorProductIdentity:
    """The product of factor numerators is the unnormalized posterior weight,
    an integer identity on the cost exponents."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exponent_identity(self, n):
        rng = np.random.default_rng(n)
        ds = make_dataset(np.arange(1, n + 1), 2.0, 12, rng)
        cost = RankCountMatrix.from_dataset(ds).cost
        perms = permutation_matrix(n)
        seq = cost[np.arange(n)[None, :], perms - 1].sum(axis=1)
        direct = np.abs(ds.rankings[:, None, :] - perms[None, :, :]).sum(axis=(0, 2))
        assert np.array_equal(seq, direct)


class TestModeByStep:
    def test_max_weight_rank_matches_l1_minimizer(self):
        """At every step the heaviest admissible rank is the constrained L1
        minimizer of that item's rank column."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            ds = make_dataset(np.arange(1, n + 1), 2.0, int(rng.integers(3, 25)), rng)
            cost = RankCountMatrix.from_dataset(ds).cost
            ordering = rng.permutation(n) + 1
            taken: set[int] = set()
            for item in ordering:
                admissible = [r for r in range(1, n + 1) if r not in taken]
                weights = {r: cost[item - 1, r - 1] for r in admissible}
                best = min(weights.values())
                step_mode = min(r for r, w in weights.items() if w == best)
                assert step_mode == constrained_l1_minimizer(ds, int(item), taken)
                taken.add(step_mode)  # deterministic descent, any choice works


class TestMiddleItemFirstStep:
    def test_first_step_mode_is_middle_rank(self):
        """With the sequence starting at the middle item of the base ranking
        and symmetric rank weights (exact marginal expectations), the first
        step's heaviest rank is the middle rank itself."""
        from pseudomallows.exact import mallows_distribution, marginal_rank_distribution

        n, m = 5, 3
        rho0 = np.arange(1, 6)
        for alpha in (0.4, 1.0, 3.0):
            marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), m)
            expected_cost = [
                sum(abs(a - l) * marg[a - 1] for a in range(1, n + 1))
                for l in range(1, n + 1)
            ]
            assert int(np.argmin(expected_cost)) + 1 == m


class TestEstimateRhoHat:
    def test_single_user(self):
        ds = RankingDataset(np.array([[3, 1, 2]]))
        assert estimate_rho_hat(ds).tolist() == [3, 1, 2]

    def test_mean_ties_break_by_index(self):
        ds = RankingDataset(np.array([[1, 2, 3], [1, 3, 2]]))
        assert estimate_rho_hat(ds).tolist() == [1, 2, 3]

    def test_no_users_give_the_identity(self):
        ds = RankingDataset(np.empty((0, 4), dtype=np.int64))
        assert estimate_rho_hat(ds).tolist() == [1, 2, 3, 4]


class TestSampleRho:
    def test_sigma_zero_uses_v_orderings(self):
        # the member generator feeding the orderings must emit V-set rows
        vs = v_set((2, 1, 3))
        rows = vs.sample(np.random.default_rng(0), 200)
        assert all(np.asarray(row) in vs for row in rows)

    def test_outputs_are_permutations(self):
        ds = make_dataset(np.arange(1, 7), 2.0, 25, np.random.default_rng(1))
        ss = sample_rho(ds, PseudoConfig(2.0, 1.0, 500, seed=7))
        assert ss.n_samples == 500
        assert all(is_permutation(r) for r in ss.samples)

    def test_deterministic_given_seed(self):
        ds = make_dataset(np.arange(1, 7), 2.0, 25, np.random.default_rng(2))
        cfg = PseudoConfig(2.0, 0.5, 100, seed=13)
        a = sample_rho(ds, cfg)
        b = sample_rho(ds, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_draws_are_serially_independent(self):
        """Lag-1 autocorrelation of the distance-to-truth series is noise."""
        rho0 = np.arange(1, 21)
        ds = make_dataset(rho0, 2.0, 200, np.random.default_rng(3))
        ss = sample_rho(ds, PseudoConfig(2.0, 0.0, 2000, seed=17))
        dists = np.abs(ss.samples - rho0).sum(axis=1).astype(float)
        x = dists - dists.mean()
        acf1 = float((x[:-1] * x[1:]).sum() / (x * x).sum())
        assert abs(acf1) < 0.05

    def test_zero_users_draw_uniformly(self):
        """With no users the cost table is all zeros, so the posterior is uniform."""
        ds = RankingDataset(np.empty((0, 4), dtype=np.int64))
        t = 48000
        ss = sample_rho(ds, PseudoConfig(2.0, 0.5, t, seed=19))
        counts = Counter(map(tuple, ss.samples.tolist()))
        tv = 0.5 * sum(abs(counts.get(tuple(p), 0) / t - 1 / 24) for p in permutation_matrix(4))
        assert set(counts) <= set(map(tuple, permutation_matrix(4).tolist()))
        assert tv <= 0.02

    def test_config_validation(self):
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                PseudoConfig(alpha=alpha, sigma=0.0, n_samples=10)
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma"):
                PseudoConfig(alpha=1.0, sigma=sigma, n_samples=10)
        with pytest.raises(ValueError, match="alpha must be a real number"):
            PseudoConfig("2", 0.0, 3)

    def test_n_samples_must_be_an_integer(self):
        for bad in (2.5, 2.0, np.float64(3.0), "4"):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                PseudoConfig(alpha=1.0, n_samples=bad)
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            PseudoConfig(alpha=1.0, n_samples=0)
        assert PseudoConfig(alpha=1.0, n_samples=np.int32(3)).n_samples == 3


class TestAlphaEstimation:
    def test_pair_similarity_value(self):
        assert mean_pairwise_similarity(np.array([[1, 2], [2, 1]])) == pytest.approx(0.8)

    def test_similarity_rejects_non_finite_rows(self):
        with pytest.raises(ValueError, match="similarity input must be finite"):
            mean_pairwise_similarity([[1, np.nan], [1, 2], [2, 1]])

    def test_identical_users_take_largest_alpha(self):
        rows = np.tile(np.arange(1, 9), (20, 1))
        ds = RankingDataset(rows)
        grid = (0.5, 1.0, 3.0, 8.0)
        est = estimate_alpha_full(ds, grid, sim_users=120, rng=np.random.default_rng(0))
        assert est == 8.0

    def test_grid_validation(self):
        ds = RankingDataset(np.tile(np.arange(1, 4), (3, 1)))
        with pytest.raises(ValueError, match="empty"):
            estimate_alpha_full(ds, ())
        with pytest.raises(ValueError, match="ascending"):
            estimate_alpha_full(ds, (2.0, 1.0))
        for grid in ((0.0, 1.0), (0.5, float("nan"))):
            with pytest.raises(ValueError, match="alpha grid entry must be positive and finite"):
                estimate_alpha_full(ds, grid)
