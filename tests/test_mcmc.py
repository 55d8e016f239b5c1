"""Chain correctness: proposal mechanics, stationary distributions against
the enumeration oracle, and the click-data augmentation scheme."""

from collections import Counter

import numpy as np
import pytest

from pseudomallows.clicking import binarize, in_compatible_set, TruncatedPoisson
from pseudomallows.data import ClickDataset, RankingDataset
from pseudomallows.exact import exact_posterior
from pseudomallows.mcmc import (
    McmcConfig,
    leap_and_shift_propose,
    mcmc_clicking,
    mcmc_rho,
)
from pseudomallows.perms import is_permutation, permutation_matrix
from pseudomallows.simulate import make_dataset


class TestLeapAndShift:
    def test_n2_always_transposition_ratio_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            prop, ratio = leap_and_shift_propose((1, 2), 1, rng)
            assert prop.tolist() == [2, 1]
            assert ratio == 0.0

    def test_case_table_downshift(self):
        # relocating item 1 from rank 1 to rank 3 pulls items at ranks 2..3 down
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(500):
            prop, _ = leap_and_shift_propose((1, 2, 3, 4), 1, rng)
            seen.add(tuple(prop))
        # leap_size 1 from the identity can only swap adjacent ranks
        assert seen <= {(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)}

    def test_validity_many_trials(self):
        rng = np.random.default_rng(2)
        state = np.arange(1, 11)
        for _ in range(100000):
            state, _ = leap_and_shift_propose(state, 4, rng)
        assert is_permutation(state)

    def test_leap_size_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="leap_size"):
            leap_and_shift_propose((1, 2, 3, 4, 5), 3, rng)


class TestConfig:
    def test_burn_in_bounds(self):
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=10, burn_in=10)

    def test_default_leap(self):
        assert McmcConfig(iterations=10).resolved_leap(20) == 2
        assert McmcConfig(iterations=10).resolved_leap(5) == 1
        assert McmcConfig(iterations=10).resolved_leap(2) == 1

    def test_sample_count_contract(self):
        data = make_dataset((1, 2, 3), 1.0, 5, np.random.default_rng(0))
        cfg = McmcConfig(iterations=1000, burn_in=100, thin=7, seed=1)
        trace = mcmc_rho(data, 1.0, cfg)
        assert trace.n_samples == (1000 - 100) // 7


class TestRhoChain:
    def test_alpha_must_be_positive(self):
        data = make_dataset((1, 2, 3), 1.0, 5, np.random.default_rng(0))
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                mcmc_rho(data, alpha, McmcConfig(iterations=10))

    def test_flat_target_accepts_everything(self):
        data = make_dataset(np.arange(1, 6), 1.0, 5, np.random.default_rng(1))
        trace = mcmc_rho(data, 1e-9, McmcConfig(iterations=20000, seed=3))
        assert trace.acceptance_rate > 0.999

    def test_deterministic_given_seed(self):
        data = make_dataset(np.arange(1, 6), 2.0, 10, np.random.default_rng(2))
        cfg = McmcConfig(iterations=5000, burn_in=100, seed=42)
        a = mcmc_rho(data, 2.0, cfg)
        b = mcmc_rho(data, 2.0, cfg)
        assert np.array_equal(a.rho_samples, b.rho_samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_uniform_stationary_with_wide_leap(self):
        """With a flat target the chain must stay uniform; any error in the
        two-path proposal ratio for leaps >= 2 would show up here."""
        data = make_dataset(np.arange(1, 6), 1.0, 5, np.random.default_rng(1))
        trace = mcmc_rho(
            data, 1e-9, McmcConfig(iterations=300000, leap_size=2, burn_in=5000, seed=4)
        )
        counts = Counter(tuple(r) for r in trace.rho_samples)
        freqs = np.array([counts.get(tuple(p), 0) for p in permutation_matrix(5)])
        tv = 0.5 * np.abs(freqs / trace.n_samples - 1 / 120).sum()
        assert tv < 0.03

    def test_matches_exact_posterior(self):
        data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(5))
        trace = mcmc_rho(data, 2.0, McmcConfig(iterations=60000, burn_in=2000, seed=6))
        post = exact_posterior(data, 2.0)
        counts = Counter(tuple(r) for r in trace.rho_samples)
        tv = 0.5 * sum(
            abs(counts.get(tuple(r), 0) / trace.n_samples - p)
            for r, p in zip(post.support, post.probs)
        )
        assert tv < 0.03

    def test_detailed_balance_empirically(self):
        """pi(a) P(a->b) must match pi(b) P(b->a) on the n = 3 chain."""
        data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(42))
        trace = mcmc_rho(data, 2.0, McmcConfig(iterations=300000, seed=9))
        idx = {tuple(r): i for i, r in enumerate(permutation_matrix(3))}
        flux = np.zeros((6, 6))
        samples = trace.rho_samples
        for a, b in zip(samples[:-1], samples[1:]):
            flux[idx[tuple(a)], idx[tuple(b)]] += 1
        flux /= len(samples) - 1
        gap = np.abs(flux - flux.T)
        scale = (flux + flux.T) / 2
        mask = scale > 1e-4
        assert (gap[mask] / scale[mask]).max() < 0.2


class TestClickingChain:
    def _clicks(self, n, n_users, alpha, seed, lam=2.0):
        rng = np.random.default_rng(seed)
        data = make_dataset(np.arange(1, n + 1), alpha, n_users, rng)
        return binarize(data, TruncatedPoisson(lam, 1, n - 1), rng)

    def test_samples_stay_compatible(self):
        clicks = self._clicks(6, 15, 2.0, 0)
        _, users = mcmc_clicking(
            clicks, 2.0, McmcConfig(iterations=3000, burn_in=100, thin=10, seed=1)
        )
        for t in range(users.shape[0]):
            for j in range(clicks.n_users):
                assert in_compatible_set(users[t, j], clicks.clicks[j])

    def test_single_click_forces_top_rank(self):
        clicks = ClickDataset(np.array([[1, 0, 0]] * 5))
        _, users = mcmc_clicking(
            clicks, 2.0, McmcConfig(iterations=2000, burn_in=100, seed=2)
        )
        assert (users[:, :, 0] == 1).all()

    def test_all_clicked_is_unconstrained(self):
        clicks = ClickDataset(np.ones((8, 4), dtype=int))
        trace, users = mcmc_clicking(
            clicks, 1.0, McmcConfig(iterations=4000, burn_in=500, thin=5, seed=3)
        )
        # every user ranking value occurs: nothing is pinned to the top ranks
        assert users.min() == 1 and users.max() == 4
        spread = np.array([len(set(users[:, 0, i].tolist())) for i in range(4)])
        assert (spread == 4).all()

    def test_deterministic_given_seed(self):
        clicks = self._clicks(5, 10, 2.0, 4)
        cfg = McmcConfig(iterations=2000, burn_in=100, thin=5, seed=11)
        t1, u1 = mcmc_clicking(clicks, 2.0, cfg)
        t2, u2 = mcmc_clicking(clicks, 2.0, cfg)
        assert np.array_equal(t1.rho_samples, t2.rho_samples)
        assert np.array_equal(u1, u2)

    def test_matches_augmented_posterior_enumeration(self):
        """Long-run consensus marginals against a brute-force sum over all
        compatible completions (feasible at n = 4)."""
        clicks = self._clicks(4, 20, 3.0, 99)
        alpha = 3.0
        perms = permutation_matrix(4)
        logw = np.zeros(len(perms))
        for b in clicks.clicks:
            c = b.sum()
            compat = perms[((perms <= c) == (b[None, :] == 1)).all(axis=1)]
            d = np.abs(compat[:, None, :] - perms[None, :, :]).sum(axis=2)
            logw += np.log(np.exp(-(alpha / 4) * d).sum(axis=0))
        w = np.exp(logw - logw.max())
        pexact = w / w.sum()
        marg_exact = np.zeros((4, 4))
        for i in range(4):
            np.add.at(marg_exact[i], perms[:, i] - 1, pexact)

        trace, _ = mcmc_clicking(
            clicks, alpha, McmcConfig(iterations=150000, burn_in=10000, thin=5, seed=5)
        )
        t = trace.n_samples
        for i in range(4):
            emp = np.bincount(trace.rho_samples[:, i] - 1, minlength=4) / t
            assert 0.5 * np.abs(emp - marg_exact[i]).sum() < 0.05
