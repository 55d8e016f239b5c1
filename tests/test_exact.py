"""Enumeration-oracle tests: closed-form spot values plus the symmetry,
monotonicity, and median properties that the approximate samplers lean on,
and the oracles' float64 outputs pinned by SHA-256 digest."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from pseudomallows.data import RankingDataset
from pseudomallows.exact import (
    DiscreteDistribution,
    _logsumexp,
    constrained_l1_minimizer,
    elbo_exact,
    exact_distribution,
    exact_posterior,
    joint_kl_exact,
    log_evidence,
    log_partition,
    mallows_distribution,
    marginal_expectation,
    marginal_median,
    marginal_rank_distribution,
)
from pseudomallows.perms import CapacityError, permutation_matrix


class TestLogPartition:
    def test_uniform_limit_is_log_factorial(self):
        assert log_partition(3, 0.0) == pytest.approx(math.log(6), abs=1e-12)
        assert log_partition(5, 0.0) == pytest.approx(math.log(120), abs=1e-12)

    def test_n3_alpha3_closed_form(self):
        # distance multiset from any reference in P_3 is {0, 2, 2, 4, 4, 4}
        expected = math.log(1 + 2 * math.e**-2 + 3 * math.e**-4)
        assert log_partition(3, 3.0) == pytest.approx(expected, abs=1e-12)

    def test_single_item(self):
        assert log_partition(1, 4.2) == 0.0

    def test_strictly_decreasing_in_alpha(self):
        grid = (0.0, 0.3, 1.0, 2.0, 5.0, 9.0)
        for n in (2, 4, 6):
            values = [log_partition(n, a) for a in grid]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            log_partition(9, 1.0)


class TestExactPosterior:
    def test_two_items_single_user(self):
        ds = RankingDataset(np.array([[1, 2]]))
        post = exact_posterior(ds, 2.0)
        assert post.prob_of((1, 2)) == pytest.approx(1 / (1 + math.e**-2), abs=1e-12)

    def test_alpha_zero_uniform(self):
        ds = RankingDataset(np.array([[2, 1, 3]]))
        post = exact_posterior(ds, 0.0)
        assert np.allclose(post.probs, 1 / 6)

    def test_no_users_returns_prior(self):
        post = exact_posterior(np.empty((0, 3), dtype=np.int64), 2.0)
        assert np.allclose(post.probs, 1 / 6)

    def test_non_permutation_arrays_rejected(self):
        bad = np.array([[1, 2, 3], [1, 1, 2]])
        for call in (
            lambda: exact_posterior(bad, 1.0),
            lambda: log_evidence(bad, 1.0),
            lambda: constrained_l1_minimizer(bad, 1),
        ):
            with pytest.raises(ValueError, match="ranking row 1"):
                call()

    def test_user_order_invariance(self):
        rng = np.random.default_rng(0)
        rows = np.array([rng.permutation(4) + 1 for _ in range(6)])
        a = exact_posterior(RankingDataset(rows), 1.5)
        b = exact_posterior(RankingDataset(rows[::-1]), 1.5)
        assert np.allclose(a.probs, b.probs, atol=1e-14)

    def test_duplicating_data_doubles_alpha(self):
        rng = np.random.default_rng(1)
        rows = np.array([rng.permutation(4) + 1 for _ in range(5)])
        doubled = exact_posterior(np.vstack([rows, rows]), 1.3)
        scaled = exact_posterior(rows, 2.6)
        assert np.allclose(doubled.probs, scaled.probs, atol=1e-12)


class TestAlphaChecks:
    ORACLES = {
        "log_partition": lambda a: log_partition(3, a),
        "exact_posterior": lambda a: exact_posterior([[1, 2, 3]], a),
        "log_evidence": lambda a: log_evidence([[1, 2, 3]], a),
        "exact_distribution": lambda a: exact_distribution([[1, 2, 3]], a, (1, 2, 3)),
    }

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, oracle, alpha):
        with pytest.raises(ValueError, match="alpha"):
            self.ORACLES[oracle](alpha)

    def test_alpha_zero_evidence_is_log_factorial(self):
        assert log_evidence([[1, 2, 3]], 0.0) == pytest.approx(math.log(6), abs=1e-12)


class TestDiscreteDistribution:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(permutation_matrix(2), np.array([0.7, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_probs_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(permutation_matrix(2), np.array([bad, 1.0]))

    def test_prob_of_missing_ranking(self):
        dist = mallows_distribution((1, 2, 3), 0.0)
        assert dist.prob_of((1, 2, 3)) == pytest.approx(1 / 6)


class TestMarginals:
    def test_uniform_marginal(self):
        dist = mallows_distribution((1, 2, 3), 0.0)
        for item in (1, 2, 3):
            assert np.allclose(marginal_rank_distribution(dist, item), 1 / 3)

    def test_mallows_prior_item2(self):
        dist = mallows_distribution((1, 2, 3), 3.0)
        marg = marginal_rank_distribution(dist, 2)
        assert np.allclose(marg, (0.11591, 0.76819, 0.11591), atol=5e-6)

    def test_point_mass(self):
        dist = DiscreteDistribution(np.array([[2, 1, 3]]), np.array([1.0]))
        assert marginal_rank_distribution(dist, 1).tolist() == [0.0, 1.0, 0.0]

    def test_item_out_of_range(self):
        with pytest.raises(IndexError):
            marginal_rank_distribution(mallows_distribution((1, 2, 3), 0.0), 4)


class TestMiddleItemSymmetry:
    """The rank of the middle-ranked item is symmetric about the middle, so
    its expectation equals the middle rank exactly."""

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
    def test_symmetry_exact(self, n, alpha):
        rng = np.random.default_rng(n * 13 + int(alpha * 10))
        rho0 = rng.permutation(n) + 1
        m = (n + 1) // 2
        middle_item = int(np.flatnonzero(rho0 == m)[0]) + 1
        marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), middle_item)
        for k in range(1, m):
            assert marg[m - k - 1] == pytest.approx(marg[m + k - 1], abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_middle_expectation_equals_m(self, n):
        rho0 = np.arange(1, n + 1)
        m = (n + 1) // 2
        assert marginal_expectation(rho0, 1.7, m) == pytest.approx(m, abs=1e-9)


class TestNeighborExpectations:
    """Expected ranks stay strictly ordered for every positive scale."""

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
    def test_strict_monotonicity(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        for n in range(2, 8):
            rho0 = rng.permutation(n) + 1
            ordering = np.argsort(rho0)
            expectations = [
                marginal_expectation(rho0, alpha, int(item) + 1) for item in ordering
            ]
            assert all(a < b for a, b in zip(expectations, expectations[1:]))


class TestMedian:
    def test_alpha_zero_conventions(self):
        assert marginal_median((2, 1, 3), 0.0, 1) == 2
        assert marginal_expectation((2, 1, 3), 0.0, 1) == pytest.approx(2.0)
        assert marginal_median((1, 2, 3, 4), 0.0, 3) == 2  # ceil(4/2)

    def test_low_alpha_pulls_edge_item_to_middle(self):
        # item ranked 1 in rho0, weak signal: the median sits at the middle
        assert marginal_median((1, 2, 3, 4, 5), 0.5, 1) == 3

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            marginal_median((1, 2, 3), 1.0, 1, excluded={1, 2, 3})

    def test_median_minimizes_expected_l1(self):
        """The restricted median must minimize the expected absolute rank
        distance over the admissible ranks."""
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            rho0 = rng.permutation(n) + 1
            alpha = float(rng.uniform(0.2, 5.0))
            item = int(rng.integers(1, n + 1))
            excluded = set(
                int(v) for v in rng.choice(n, size=rng.integers(0, n - 1), replace=False) + 1
            )
            marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), item)
            admissible = [r for r in range(1, n + 1) if r not in excluded]
            costs = {
                l: sum(abs(a - l) * marg[a - 1] for a in admissible) for l in admissible
            }
            best = min(costs.values())
            med = marginal_median(rho0, alpha, item, excluded)
            assert costs[med] == pytest.approx(best, abs=1e-12)


class TestConstrainedL1Minimizer:
    def test_single_user_returns_their_rank(self):
        ds = RankingDataset(np.array([[3, 1, 2]]))
        assert constrained_l1_minimizer(ds, 1) == 3

    def _dataset_with_column(self, values, n):
        rows = []
        for v in values:
            rows.append([v] + [x for x in range(1, n + 1) if x != v])
        return RankingDataset(np.array(rows))

    def test_median_minimizes(self):
        ds = self._dataset_with_column([1, 2, 9], 9)
        assert constrained_l1_minimizer(ds, 1) == 2

    def test_exclusion_with_tie_takes_smallest(self):
        # costs at l = 1 and l = 3 are both 9; the tie rule picks 1
        ds = self._dataset_with_column([1, 2, 9], 9)
        assert constrained_l1_minimizer(ds, 1, excluded={2}) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            rows = np.array([rng.permutation(n) + 1 for _ in range(rng.integers(1, 12))])
            ds = RankingDataset(rows)
            item = int(rng.integers(1, n + 1))
            excluded = set(
                int(v) for v in rng.choice(n, size=rng.integers(0, n - 1), replace=False) + 1
            )
            admissible = [l for l in range(1, n + 1) if l not in excluded]
            costs = [(int(np.abs(rows[:, item - 1] - l).sum()), l) for l in admissible]
            best = min(c for c, _ in costs)
            expected = min(l for c, l in costs if c == best)
            assert constrained_l1_minimizer(ds, item, excluded) == expected

    def test_empty_admissible_set(self):
        ds = RankingDataset(np.array([[1, 2]]))
        with pytest.raises(ValueError, match="admissible"):
            constrained_l1_minimizer(ds, 1, excluded={1, 2})


@pytest.mark.parametrize("alpha", [1e4, 1e6])
def test_factorized_law_at_a_scale_where_every_free_weight_underflows(alpha):
    """At ordering (1, ..., 5) the items' best ranks are taken early, so
    relative to a whole cost row every free weight of a later step is below
    1e-300; those steps are redone relative to their free maximum."""
    rows, ordering = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [2, 1, 3, 5, 4]], (1, 2, 3, 4, 5)
    probs = exact_distribution(rows, alpha, ordering).probs
    assert np.isfinite(probs).all() and probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(elbo_exact(rows, alpha, ordering))
    kl = joint_kl_exact(rows, alpha, ordering)
    assert np.isfinite(kl) and kl >= 0


@pytest.mark.parametrize("alpha", [1e5, 1e6, 1e9])
def test_posterior_at_a_scale_where_the_log_normalizer_loses_digits(alpha):
    """The log weights are about -3.2e6 at alpha = 1e6, so subtracting their
    log-sum-exp keeps about 10 digits; the posterior still sums to 1 within
    1e-12 and splits its mass over the four tied modes."""
    rows = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [2, 1, 3, 5, 4]]
    probs = exact_posterior(rows, alpha).probs
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.sort(probs)[-4:].tolist() == [0.25] * 4 and np.sort(probs)[-5] == 0.0
    assert np.isfinite(log_evidence(rows, alpha))
    probs = exact_distribution(rows, alpha, (3, 1, 5, 2, 4)).probs
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("oracle", [log_evidence, exact_posterior])
def test_alpha_that_overflows_the_log_weights_is_rejected(oracle):
    """At alpha = 1e308, (alpha/n) times the largest total distance, 30, is
    past the float range: the weights would be -inf and the answers NaN, so
    the oracle names alpha in a ValueError, with no warning before it
    (warnings fail the suite). At 1e300 the weights are finite, and the
    evidence is the weight of the four modes at total distance 16, as log 4
    is below its rounding."""
    rows = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [2, 1, 3, 5, 4]]
    with pytest.raises(ValueError, match=r"alpha=1e\+308 overflows"):
        oracle(rows, 1e308)
    oracle(rows, 1e300)
    assert log_evidence(rows, 1e300) == -(1e300 / 5) * 16


def _oracle_cases():
    """Fixed-seed (rankings, alpha, ordering) cases at n = 1..8: random users
    and alpha, plus the all-tied cases (alpha = 0, no users) and n = 1."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(24):
        n = int(rng.integers(2, 7))
        rows = np.argsort(rng.random((int(rng.integers(1, 30)), n)), axis=1) + 1
        cases.append((rows, float(rng.uniform(0.1, 6.0)), rng.permutation(n) + 1))
    cases.append((np.array([[3, 1, 4, 2, 6, 5, 8, 7]] * 3), 1.7, np.arange(8, 0, -1)))
    cases.append((np.array([[2, 1, 3, 4]]), 0.0, np.array([4, 1, 3, 2])))
    cases.append((np.empty((0, 5), dtype=np.int64), 2.5, np.array([2, 4, 1, 5, 3])))
    cases.append((np.array([[1]]), 3.0, np.array([1])))
    return cases


ORACLE_DIGESTS = {
    # SHA-256 of the float64 bytes of each oracle over _oracle_cases()
    "exact_posterior": "24f08311427c1f1cb4b5a7d8636e1eb1310bf8185b775c594a215398b8fd6522",
    "log_evidence": "3bf86f18b7243b7d9801333c8675cde9b369892d5e883b9f28bc541995cd6d1d",
    "elbo_exact": "729f8abd5f48399f66a2bb7ea23aa31a4ebf127bd7f527bdab3fb9e0c650fa57",
    "joint_kl_exact": "91e4d17d3661b158acd67e17b9a8b29fc9dc9b837c4eb91a69337c03a9fe07f8",
    "exact_distribution": "cd174146bc2cdc16c5a67a7687ff3f1a058f1911643b82648e93d62a58dd0c49",
    "log_partition": "97e99c05f71c7600e620bb293248a83a4e2c6350b65e58d6cc091dbd99cbcaac",
}

ORACLES = {
    "exact_posterior": lambda r, a, o: exact_posterior(r, a).probs,
    "log_evidence": lambda r, a, o: log_evidence(r, a),
    "elbo_exact": lambda r, a, o: elbo_exact(r, a, o),
    "joint_kl_exact": lambda r, a, o: joint_kl_exact(r, a, o),
    "exact_distribution": lambda r, a, o: exact_distribution(r, a, o).probs,
    "log_partition": lambda r, a, o: log_partition(r.shape[1], a),
}


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_values_are_pinned_bit_for_bit(name):
    h = hashlib.sha256()
    for rows, alpha, ordering in _oracle_cases():
        h.update(np.asarray(ORACLES[name](rows, alpha, ordering), dtype=np.float64).tobytes())
    assert h.hexdigest() == ORACLE_DIGESTS[name]


def test_logsumexp_is_scipys_bit_for_bit():
    rng = np.random.default_rng(8)
    vectors = [rng.normal(0.0, rng.choice([1e-3, 1.0, 50.0]), rng.choice([2, 7, 120, 720, 5040]))
               for _ in range(400)]
    vectors += [np.round(v) for v in vectors[:100]]  # several entries tied at the top
    vectors += [np.full(720, -0.0), np.full(24, -3.25), np.array([-1.5]), np.array([0.0])]
    for x in vectors:
        assert np.float64(_logsumexp(x)).tobytes() == np.float64(logsumexp(x)).tobytes()
