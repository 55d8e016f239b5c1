"""The sequential-draw kernel: seeded equality with the log-space kernel it
replaced (alone and inside the click loop), the law of its underflow path,
its inverse-CDF pick, its two-level rank search on wide rank tables, and
sampler properties."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from pseudomallows import pseudo
from pseudomallows.clicking import in_compatible_set, pseudo_clicking, sample_user_rankings
from pseudomallows.data import ClickDataset, RankCountMatrix, RankingDataset
from pseudomallows.perms import is_permutation, permutation_matrix, perturbed_v_ranking, rank_of
from pseudomallows.pseudo import (
    PseudoConfig, _pick, _sequential_draws, sample_rho, sample_rho_with_orderings,
)
from pseudomallows.simulate import make_dataset


def reference_draws(log_weights, orderings0, rng):
    """Log-space kernel over a shared (n, n) table or a (T, n, n) stack: each
    step masks taken ranks with -inf, subtracts the row max and exponentiates."""
    T, n = orderings0.shape
    table = np.broadcast_to(log_weights, (T, n, n))
    avail = np.ones((T, n), dtype=bool)
    out = np.zeros((T, n), dtype=np.int64)
    rows = np.arange(T)
    for k in range(n):
        items = orderings0[:, k]
        lw = np.where(avail, table[rows, items], -np.inf)
        lw -= lw.max(axis=1, keepdims=True)
        w = np.exp(lw)
        cum = np.cumsum(w, axis=1)
        u = rng.random(T) * cum[:, -1]
        chosen = np.minimum((cum <= u[:, None]).sum(axis=1), n - 1)
        bad = w[rows, chosen] == 0
        if bad.any():
            chosen[bad] = n - 1 - np.argmax(w[bad][:, ::-1] > 0, axis=1)
        out[rows, items] = chosen + 1
        avail[rows, chosen] = False
    return out


def reference_user_draws(clicks, alpha, rho, rng):
    """User augmentation through one (N, n, n) log-weight table, -inf off each item's rank block."""
    n = clicks.shape[1]
    target = rank_of(np.asarray(rho) + (1 - clicks) * 2 * n)
    ranks = np.arange(1, n + 1)
    in_block = (ranks <= clicks.sum(axis=1)[:, None, None]) == (clicks[:, :, None] == 1)
    log_weights = np.where(in_block, -(alpha / n) * np.abs(target[:, :, None] - ranks), -np.inf)
    return reference_draws(log_weights, np.argsort(rng.random(clicks.shape), axis=1), rng)


def reference_clicking(clicks, cfg, warmup):
    """The alternating click loop on one generator, through the log-space
    references, centred at the rank of the augmented mean ranks."""
    rng = np.random.default_rng(cfg.seed)
    n = clicks.shape[1]
    rho = rank_of(-clicks.sum(axis=0))
    rhos, users = [], []
    for _ in range(warmup + cfg.n_samples):
        R = reference_user_draws(clicks, cfg.alpha, rho, rng)
        v = perturbed_v_ranking(rank_of(R.mean(axis=0)), cfg.sigma, rng, 1)
        cost = RankCountMatrix(R).cost
        rho = reference_draws(-(cfg.alpha / n) * cost, np.argsort(v, axis=1, kind="stable"), rng)[0]
        rhos.append(rho)
        users.append(R)
    return np.array(rhos[warmup:]), np.array(users[warmup:])


@pytest.mark.parametrize("sigma", [0.0, 0.7])
@pytest.mark.parametrize("alpha", [2.0, 1e4])
def test_seeded_clicking_equals_the_reference_loop(alpha, sigma, monkeypatch):
    """A user with no clicks, one with all n, and three groups of four users
    who each click one of items 1-3 alone, so that items 1 and 2 share their
    best consensus rank: at alpha = 1e4 the second of them finds no free
    mass in linear space and the log-space fallback runs."""
    fallbacks = []
    inner = pseudo._log_space
    monkeypatch.setattr(pseudo, "_log_space", lambda *a: fallbacks.append(1) or inner(*a))
    n = 8
    clicks = np.zeros((14, n), dtype=np.int64)
    clicks[1] = 1
    clicks[np.arange(2, 14), np.arange(12) // 4] = 1
    cfg = PseudoConfig(alpha, sigma, 6, seed=5)
    ss, users = pseudo_clicking(clicks, cfg, 3)
    want_rho, want_users = reference_clicking(clicks, cfg, 3)
    assert np.array_equal(ss.samples, want_rho) and np.array_equal(users, want_users)
    assert bool(fallbacks) == (alpha > 100)


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4, 1e6])
@pytest.mark.parametrize("n", [1, 5, 20, 200])
def test_seeded_draws_equal_the_log_space_reference(n, alpha):
    rng = np.random.default_rng(n)
    data = make_dataset(np.arange(1, n + 1), 2.0, 40, rng)
    orderings = np.argsort(rng.random((60, n)), axis=1) + 1
    cost = RankCountMatrix.from_dataset(data).cost
    got = sample_rho_with_orderings(data, alpha, orderings, np.random.default_rng(1))
    want = reference_draws(-(alpha / n) * cost, orderings - 1, np.random.default_rng(1))
    assert np.array_equal(got, want)

    counts = rng.integers(0, n + 1, 40)
    counts[:2] = (0, n)  # a user with no clicks and one with all
    clicks = (data.rankings <= counts[:, None]).astype(np.int64)
    rho = rng.permutation(n) + 1
    got = sample_user_rankings(clicks, alpha, rho, np.random.default_rng(2))
    want = reference_user_draws(clicks, alpha, rho, np.random.default_rng(2))
    assert np.array_equal(got, want)


def factorized_law(log_weights, ordering0) -> dict:
    """Probability of every ranking under one fixed item order, by enumeration."""
    law = {}
    for perm in permutation_matrix(log_weights.shape[0]):
        free = np.ones(perm.size, dtype=bool)
        log_p = 0.0
        for i in ordering0:
            log_p += log_weights[i, perm[i] - 1] - logsumexp(log_weights[i, free])
            free[perm[i] - 1] = False
        law[tuple(perm)] = np.exp(log_p)
    return law


def test_underflow_rows_follow_the_factorized_law():
    """Off-peak weights near -800 nats underflow to zero in linear space, so
    every item whose peak rank is already taken is drawn by the fallback."""
    n = 5
    rng = np.random.default_rng(0)
    log_weights = -800.0 + rng.uniform(-1.0, 1.0, (n, n))
    log_weights[np.arange(n), [0, 0, 1, 1, 2]] = 0.0  # items share peak ranks
    assert (np.exp(log_weights[log_weights < 0]) == 0).all()
    ordering0 = np.array([1, 0, 3, 2, 4])
    law = factorized_law(log_weights, ordering0)
    t = 100_000
    draws = _sequential_draws(log_weights, np.tile(ordering0, (t, 1)), np.random.default_rng(1))
    counts = Counter(map(tuple, draws.tolist()))
    assert set(counts) <= set(law)
    tv = 0.5 * sum(abs(counts.get(r, 0) / t - p) for r, p in law.items())
    assert tv <= 0.015  # a uniform choice among the off-peak ranks would sit at 0.39


def test_pick_never_takes_a_zero_weight():
    """A uniform past the last positive weight, as rounding between a block's
    mass and its own cumulative sum can give, falls back onto that weight;
    a uniform of 0 skips leading zero weights, and a uniform on a cumulative
    value skips the zero weights after it."""
    w = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 2.0], [0.0, 0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0, 2.0], [1.0, 2.0, 0.0, 0.0]])
    u = np.array([1.0 + 1e-12, 3.0, 0.0, 1.0, 3.0])
    assert _pick(w, np.cumsum(w, axis=1), u).tolist() == [1, 3, 2, 3, 1]


def reference_pick(w, cum, u):
    """The inverse-CDF pick that checks every row for a zero weight."""
    m = w.shape[1]
    idx = np.minimum((cum <= u[:, None]).sum(axis=1), m - 1)
    bad = w[np.arange(len(w)), idx] == 0
    if bad.any():
        idx[bad] = m - 1 - np.argmax(w[bad][:, ::-1] > 0, axis=1)
    return idx


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_pick_matches_the_zero_checking_rule(T, m, seed):
    """Rows with zero weights, and uniforms at 0, on cumulative values, at
    and past the total, or anywhere in [0, total)."""
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((T, m)) < 0.5, 0.0, rng.exponential(1.0, (T, m)))
    cum = np.cumsum(w, axis=1)
    total = cum[:, -1]
    choices = np.stack([np.zeros(T), cum[np.arange(T), rng.integers(0, m, T)], total,
                        total * (1 + 1e-12) + 1e-300, rng.random(T) * total])
    u = choices[rng.integers(0, len(choices), T), np.arange(T)]
    got = _pick(w, cum, u)
    assert np.array_equal(got, reference_pick(w, cum, u))
    assert (w[np.arange(T), got] > 0)[(w > 0).any(axis=1)].all()


@pytest.fixture()
def two_level_calls(monkeypatch):
    """Count the kernel calls that take the two-level search."""
    calls = []
    inner = pseudo._two_level_draws

    def counted(*args):
        calls.append(args[2].shape)
        return inner(*args)

    monkeypatch.setattr(pseudo, "_two_level_draws", counted)
    return calls


def test_underflow_rows_follow_the_factorized_law_in_two_levels(monkeypatch, two_level_calls):
    monkeypatch.setattr(pseudo, "_COARSE_MIN", 1)
    test_underflow_rows_follow_the_factorized_law()
    assert two_level_calls == [(100_000, 5)]


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4, 1e6])
@pytest.mark.parametrize("n", [130, 200, 257])
def test_two_level_draws_equal_the_log_space_reference(n, alpha, two_level_calls):
    """Blocks of ceil(sqrt(n)) ranks: 12, 15 and 17, none of which divides n."""
    t = 150
    assert min(n, t) >= pseudo._COARSE_MIN
    rng = np.random.default_rng(n)
    data = make_dataset(np.arange(1, n + 1), 2.0, 40, rng)
    orderings = np.argsort(rng.random((t, n)), axis=1) + 1
    cost = RankCountMatrix.from_dataset(data).cost
    got = sample_rho_with_orderings(data, alpha, orderings, np.random.default_rng(1))
    want = reference_draws(-(alpha / n) * cost, orderings - 1, np.random.default_rng(1))
    assert two_level_calls == [(t, n)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4, 1e6])
def test_wide_user_draws_stay_single_level(alpha, monkeypatch, two_level_calls):
    """Click augmentation keeps the single-level search at any width."""
    n, n_users = 150, 40
    monkeypatch.setattr(pseudo, "_COARSE_MIN", 1)
    rng = np.random.default_rng(7)
    counts = rng.integers(0, n + 1, n_users)
    counts[:4] = (0, n, 0, n)  # users with no clicks and users with all
    clicks = (np.argsort(rng.random((n_users, n)), axis=1) < counts[:, None]).astype(np.int64)
    rho = rng.permutation(n) + 1
    got = sample_user_rankings(clicks, alpha, rho, np.random.default_rng(2))
    want = reference_user_draws(clicks, alpha, rho, np.random.default_rng(2))
    assert two_level_calls == []
    assert np.array_equal(got, want)
    assert all(in_compatible_set(r, b) for r, b in zip(got, clicks))


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_two_level_draws_at_small_n(n, monkeypatch, two_level_calls):
    """One block of one rank at n=1, and a last block with padding above it."""
    monkeypatch.setattr(pseudo, "_COARSE_MIN", 1)
    rng = np.random.default_rng(n)
    log_weights = rng.normal(0.0, 3.0, (n, n))
    orderings0 = np.argsort(rng.random((50, n)), axis=1)
    got = _sequential_draws(log_weights, orderings0, np.random.default_rng(3))
    want = reference_draws(log_weights, orderings0, np.random.default_rng(3))
    assert two_level_calls == [(50, n)]
    assert np.array_equal(got, want)


@st.composite
def _sampler_inputs(draw):
    """n in [1, 12], alpha from 1e-6 to 1e6, sigma up to 1e3, 0-6 users and
    click rows that are empty, full or random."""
    n = draw(st.integers(1, 12))
    alpha = 10.0 ** draw(st.floats(-6.0, 6.0))
    sigma = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]) | st.floats(0.0, 1e3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rankings = np.argsort(rng.random((draw(st.integers(0, 6)), n)), axis=1) + 1
    kinds = draw(st.lists(st.sampled_from(["none", "all", "random"]), min_size=1, max_size=6))
    clicks = np.array([np.zeros(n) if k == "none" else np.ones(n) if k == "all"
                       else rng.integers(0, 2, n) for k in kinds], dtype=np.int64)
    return n, alpha, sigma, seed, rankings, clicks


@settings(max_examples=60, deadline=None, database=None)
@given(_sampler_inputs())
def test_samplers_give_valid_reproducible_draws(inputs):
    n, alpha, sigma, seed, rankings, clicks = inputs
    data = RankingDataset(rankings.reshape(-1, n))
    cfg = PseudoConfig(alpha, sigma, 8, seed=seed)
    draws = sample_rho(data, cfg).samples
    assert draws.shape == (8, n) and all(is_permutation(r) for r in draws)
    assert np.array_equal(draws, sample_rho(data, cfg).samples)

    rho = np.random.default_rng(seed).permutation(n) + 1
    users = lambda: sample_user_rankings(clicks, alpha, rho, np.random.default_rng(seed))
    first = users()
    assert all(is_permutation(r) and in_compatible_set(r, b) for r, b in zip(first, clicks))
    assert np.array_equal(first, users())

    fit = lambda: pseudo_clicking(ClickDataset(clicks), PseudoConfig(alpha, sigma, 3, seed=seed), 1)
    (ss, trace), (again, trace_again) = fit(), fit()
    assert all(is_permutation(r) for r in ss.samples)
    assert all(in_compatible_set(r, b) for draw in trace for r, b in zip(draw, clicks))
    assert np.array_equal(ss.samples, again.samples) and np.array_equal(trace, trace_again)
