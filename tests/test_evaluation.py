"""Approximation metrics and the ordering search, checked against
independent enumeration oracles."""

import itertools
import math

import numpy as np
import pytest

from pseudomallows.data import RankCountMatrix, RankingDataset
from pseudomallows.evaluation import (
    MarginalProfile,
    assignment_solve,
    choose_sigma,
    default_sigma,
    enumerate_ordering_study,
    iterative_search,
    ls_move,
    marginal_kl,
    ordering_kl,
    posterior_profile,
    reference_profile,
)
from pseudomallows.exact import elbo_exact, exact_distribution, exact_posterior, joint_kl_exact, log_evidence
from pseudomallows.mcmc import McmcConfig, mcmc_rho
from pseudomallows.perms import (
    is_permutation,
    ordering_of,
    permutation_matrix,
    v_set,
)
from pseudomallows.pseudo import PseudoConfig, estimate_rho_hat, sample_rho, sample_rho_with_orderings
from pseudomallows.simulate import make_dataset


class TestMarginalProfile:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MarginalProfile(np.array([[0.6, 0.3], [0.5, 0.5]]))

    def test_from_samples_is_smoothed(self):
        samples = np.tile([1, 2, 3], (50, 1))
        prof = MarginalProfile.from_samples(samples)
        assert (prof.matrix > 0).all()
        assert np.allclose(prof.matrix.sum(axis=1), 1.0)

    def test_from_samples_rejects_zero_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            MarginalProfile.from_samples(np.empty((0, 4), dtype=np.int64))

    @pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan), [[1.5, -0.5], [0.5, 0.5]]])
    def test_rejects_entries_that_are_not_finite_and_nonnegative(self, matrix):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MarginalProfile(matrix)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
    def test_smooth_rejects_a_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            MarginalProfile(np.full((2, 2), 0.5)).smooth(eps)

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf, -1.0])
    def test_from_samples_rejects_a_bad_smoothing(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be positive and finite"):
            MarginalProfile.from_samples(np.tile([1, 2], (5, 1)), smoothing=smoothing)

    def test_smooth_keeps_rows_stochastic(self):
        prof = posterior_profile(make_dataset((1, 2, 3), 3.0, 10, np.random.default_rng(0)), 3.0)
        smoothed = prof.smooth(1e-3)
        assert np.allclose(smoothed.matrix.sum(axis=1), 1.0)
        assert (smoothed.matrix > 0).all()


class TestMarginalKL:
    def test_identical_profiles_give_zero(self):
        prof = MarginalProfile(np.full((3, 3), 1 / 3))
        assert marginal_kl(prof, prof) == 0.0

    def test_two_row_closed_form(self):
        q = MarginalProfile(np.array([[0.75, 0.25], [0.75, 0.25]]))
        p = MarginalProfile(np.array([[0.5, 0.5], [0.5, 0.5]]))
        expected = 2 * (0.75 * math.log(1.5) + 0.25 * math.log(0.5))
        assert marginal_kl(q, p) == pytest.approx(expected, abs=1e-12)
        assert marginal_kl(q, p) == pytest.approx(0.26162, abs=5e-6)

    def test_matches_double_enumeration(self):
        """Cross-check the profile pipeline against a from-scratch double
        enumeration of both distributions."""
        ds = make_dataset((1, 2, 3), 2.0, 15, np.random.default_rng(1))
        ordering = ordering_of((2, 1, 3))
        q_dist = exact_distribution(ds, 2.0, ordering)
        p_dist = exact_posterior(ds, 2.0)
        total = 0.0
        for i in range(3):
            for r in range(1, 4):
                qv = sum(p for perm, p in zip(q_dist.support, q_dist.probs) if perm[i] == r)
                pv = sum(p for perm, p in zip(p_dist.support, p_dist.probs) if perm[i] == r)
                if qv > 0:
                    total += qv * math.log(qv / pv)
        computed = marginal_kl(
            MarginalProfile.from_distribution(q_dist),
            MarginalProfile.from_distribution(p_dist),
        )
        assert computed == pytest.approx(total, abs=1e-12)

    def test_dimension_mismatch(self):
        q = MarginalProfile(np.full((2, 2), 0.5))
        p = MarginalProfile(np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="shapes"):
            marginal_kl(q, p)

    def test_zero_in_reference_raises(self):
        q = MarginalProfile(np.array([[0.5, 0.5], [0.5, 0.5]]))
        p = MarginalProfile(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="zero"):
            marginal_kl(q, p)

    def test_nonnegative_on_random_profiles(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.dirichlet(np.ones(4), size=4)
            p = rng.dirichlet(np.ones(4), size=4)
            assert marginal_kl(MarginalProfile(q), MarginalProfile(p)) >= 0.0

    def test_strictly_positive_for_distinct_profiles(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.dirichlet(np.ones(4), size=4)
            p = rng.dirichlet(np.ones(4), size=4)
            assert marginal_kl(MarginalProfile(q), MarginalProfile(p)) > 1e-6


class TestElbo:
    def test_single_item_is_zero(self):
        ds = RankingDataset(np.array([[1]]))
        assert elbo_exact(ds, 2.0, (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_kl_plus_elbo_is_log_evidence(self):
        ds = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(3))
        logz = log_evidence(ds, 2.0)
        for perm in permutation_matrix(3):
            o = ordering_of(perm)
            total = joint_kl_exact(ds, 2.0, o) + elbo_exact(ds, 2.0, o)
            assert total == pytest.approx(logz, abs=1e-10)

    def test_invariant_under_consistent_relabeling(self):
        rng = np.random.default_rng(4)
        ds = make_dataset((1, 2, 3), 1.5, 8, rng)
        ordering = np.array([2, 3, 1])
        base = elbo_exact(ds, 1.5, ordering)
        relabel = np.array([1, 2, 0])  # item i -> position relabel[i]
        relabeled_rows = ds.rankings[:, np.argsort(relabel)]
        relabeled_ordering = np.array([relabel[o - 1] + 1 for o in ordering])
        value = elbo_exact(RankingDataset(relabeled_rows), 1.5, relabeled_ordering)
        assert value == pytest.approx(base, abs=1e-10)


class TestAssignment:
    def test_two_by_two_example(self):
        assignment, total = assignment_solve([[4.0, 1.0], [2.0, 3.0]])
        assert assignment.tolist() == [2, 1]
        assert total == pytest.approx(3.0)

    def test_identity_friendly_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assignment, total = assignment_solve(cost)
        assert assignment.tolist() == [1, 2, 3, 4]
        assert total == 0.0

    def test_matches_brute_force_6x6(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cost = rng.normal(size=(6, 6))
            _, total = assignment_solve(cost)
            brute = min(
                sum(cost[i, p[i]] for i in range(6))
                for p in itertools.permutations(range(6))
            )
            assert total == pytest.approx(brute, abs=1e-9)

    def test_matches_brute_force_7x7(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cost = rng.normal(size=(7, 7))
            _, total = assignment_solve(cost)
            brute = min(
                sum(cost[i, p[i]] for i in range(7))
                for p in itertools.permutations(range(7))
            )
            assert total == pytest.approx(brute, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            assignment_solve(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            assignment_solve(np.array([[1.0, np.inf], [1.0, 1.0]]))


class TestLsMove:
    def test_pull_forward(self):
        assert ls_move((1, 2, 3, 4), 1, 3).tolist() == [3, 1, 2, 4]

    def test_push_back(self):
        assert ls_move((1, 2, 3, 4), 4, 2).tolist() == [1, 3, 4, 2]

    def test_noop(self):
        assert ls_move((2, 1, 3), 1, 2).tolist() == [2, 1, 3]

    def test_exhaustive_validity(self):
        for n in range(2, 7):
            for perm in permutation_matrix(n)[:: max(1, n - 2)]:
                for item in range(1, n + 1):
                    for rank in range(1, n + 1):
                        assert is_permutation(ls_move(perm, item, rank))

    def test_index_validation(self):
        with pytest.raises(IndexError):
            ls_move((1, 2, 3), 4, 1)
        with pytest.raises(IndexError):
            ls_move((1, 2, 3), 1, 0)


class TestOrderingStudy:
    def test_n2_evaluates_both_orderings(self):
        ds = RankingDataset(np.array([[1, 2], [1, 2], [2, 1]]))
        results = enumerate_ordering_study(ds, 2.0)
        assert len(results) == 2
        assert {r[0] for r in results} == {(1, 2), (2, 1)}

    def test_kl_values_nonnegative_and_sorted(self):
        ds = make_dataset((1, 2, 3, 4), 2.0, 20, np.random.default_rng(7))
        results = enumerate_ordering_study(ds, 2.0)
        values = [kl for _, kl in results]
        assert all(v >= 0 for v in values)
        assert values == sorted(values)

    def test_sampled_tracks_exact_v_membership(self):
        """Scoring every ordering with 200-draw ``ordering_kl`` finds
        V-orderings at a rate within 10 percentage points of the exact study
        (moderate-signal regime)."""
        rho0 = np.arange(1, 5)
        vs = v_set(rho0)
        exact_hits = sampled_hits = 0
        for rep in range(20):
            rng = np.random.default_rng(5000 + rep)
            ds = make_dataset(rho0, 1.0, 50, rng)
            exact_best = enumerate_ordering_study(ds, 1.0)[0][0]
            reference = posterior_profile(ds, 1.0)
            sampled_kl = [
                ordering_kl(ds, 1.0, ordering_of(ranking), reference, 200, rng)
                for ranking in permutation_matrix(4)
            ]
            sampled_best = permutation_matrix(4)[int(np.argmin(sampled_kl))]
            exact_hits += np.array(exact_best) in vs
            sampled_hits += np.array(sampled_best) in vs
        assert abs(exact_hits - sampled_hits) / 20 <= 0.10


class TestIterativeSearch:
    def test_zero_iterations_records_initial_only(self):
        ds = make_dataset((1, 2, 3, 4), 2.0, 20, np.random.default_rng(10))
        trace = iterative_search(ds, 2.0, (3, 1, 2, 4), max_iters=0)
        assert trace.rankings.shape == (1, 4)
        assert trace.kl_values.shape == (1,)

    def test_negative_iterations_rejected(self):
        ds = make_dataset((1, 2, 3, 4), 2.0, 20, np.random.default_rng(10))
        with pytest.raises(ValueError, match="max_iters"):
            iterative_search(ds, 2.0, (3, 1, 2, 4), max_iters=-3)

    def test_best_never_worse_than_init(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(np.arange(1, 6), 2.5, 100, rng)
        init = v_set(np.arange(1, 6)).sample(rng)
        trace = iterative_search(ds, 2.5, init, max_iters=8, rng=rng)
        assert trace.best_kl <= trace.kl_values[0] + 1e-12

    def test_trace_v_distances_match_best(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(np.arange(1, 6), 2.5, 60, rng)
        trace = iterative_search(ds, 2.5, np.arange(1, 6), max_iters=5, rng=rng)
        assert len(trace.v_distances) == len(trace.kl_values)
        assert trace.best_index == int(np.argmin(trace.kl_values))

    def test_sampled_mode_smoke(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(np.arange(1, 7), 2.0, 40, rng)
        trace = iterative_search(
            ds, 2.0, np.arange(1, 7), max_iters=2, eval_mode="sampled", draws=60, rng=rng
        )
        assert trace.rankings.shape == (3, 6)


class TestChooseSigma:
    def test_singleton_grid(self):
        ds = make_dataset((1, 2, 3), 2.0, 20, np.random.default_rng(14))
        ref = posterior_profile(ds, 2.0)
        assert choose_sigma(ds, 2.0, (0.0,), ref, n_samples=50, rng=0) == 0.0

    def test_grid_validation(self):
        ds = make_dataset((1, 2, 3), 2.0, 20, np.random.default_rng(15))
        ref = posterior_profile(ds, 2.0)
        with pytest.raises(ValueError, match="empty"):
            choose_sigma(ds, 2.0, (), ref)
        with pytest.raises(ValueError, match="nonnegative"):
            choose_sigma(ds, 2.0, (-1.0,), ref)

    def test_default_sigma_rule_zero_for_strong_data(self):
        ds = make_dataset((1, 2, 3, 4), 3.0, 600, np.random.default_rng(16))
        assert default_sigma(ds, 3.0) == 0.0

    def test_default_sigma_early_return_builds_no_table(self, monkeypatch):
        """The rule's early return comes before any cost table, from a raw
        array as from a dataset; the spy sees the build that follows it."""
        ds = make_dataset((1, 2, 3, 4), 3.0, 600, np.random.default_rng(16))
        built = []
        inner = RankCountMatrix.__init__
        monkeypatch.setattr(RankCountMatrix, "__init__", lambda self, r: built.append(1) or inner(self, r))
        assert default_sigma(ds, 3.0) == 0.0 and default_sigma(ds.rankings, 3.0) == 0.0
        assert built == []
        assert default_sigma(ds.rankings[:5], 3.0, rng=0) in (0.0, 1.0, 2.0, 3.0)
        assert built == [1]


def test_one_dataset_is_counted_once_across_its_fits(monkeypatch):
    """Every consumer of one dataset reads the table it keeps: the spy sees
    one build across the samplers, the chain, the estimator and the oracles."""
    ds = make_dataset((1, 2, 3, 4, 5), 1.5, 30, np.random.default_rng(21))
    built = []
    inner = RankCountMatrix.__init__
    monkeypatch.setattr(RankCountMatrix, "__init__", lambda self, r: built.append(1) or inner(self, r))
    cfg = PseudoConfig(1.5, 0.5, 40, seed=3)
    sample_rho(ds, cfg)
    sample_rho(ds, cfg)
    sample_rho_with_orderings(ds, 1.5, np.tile(np.arange(1, 6), (4, 1)), np.random.default_rng(4))
    mcmc_rho(ds, 1.5, McmcConfig(200, seed=5))
    estimate_rho_hat(ds)
    reference = reference_profile(ds, 1.5)
    ordering_kl(ds, 1.5, (3, 1, 2, 4, 5), reference)
    exact_posterior(ds, 1.5)
    choose_sigma(ds, 1.5, (0.0, 1.0), reference, n_samples=30, rng=6)
    assert built == [1]


@pytest.mark.parametrize("sigma", [0.0, 1.5])
def test_draws_from_a_dataset_equal_draws_from_a_fresh_table(sigma):
    """The table a dataset keeps draws what a new table of its rows draws,
    on the first fit and on a later one."""
    ds = make_dataset(np.arange(1, 10), 2.0, 50, np.random.default_rng(22))
    cfg = PseudoConfig(2.0, sigma, 60, seed=8)
    for _ in range(2):
        want = sample_rho(RankCountMatrix(ds.rankings), cfg).samples
        assert np.array_equal(sample_rho(ds, cfg).samples, want)
    chain = McmcConfig(300, seed=9)
    assert np.array_equal(mcmc_rho(ds, 2.0, chain).rho_samples,
                          mcmc_rho(RankCountMatrix(ds.rankings), 2.0, chain).rho_samples)
