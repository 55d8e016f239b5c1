"""The sequential-draw kernel: seeded equality with the log-space kernel it
replaced (alone, in block-by-block click augmentation and inside the click
loop), the law of its underflow path, its inverse-CDF pick, its two-level
rank search on wide rank tables, and sampler properties."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from pseudomallows import pseudo
from pseudomallows.clicking import TruncatedPoisson, binarize, in_compatible_set
from pseudomallows.data import ClickDataset, RankCountMatrix, RankingDataset, click_frequency_ranking
from pseudomallows.perms import is_permutation, permutation_matrix, rank_of, v_set
from pseudomallows.pseudo import (
    PseudoConfig, _pick, _sequential_draws, pseudo_clicking, sample_rho, sample_rho_with_orderings,
    sample_user_rankings,
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


def reference_block_draws(clicks, alpha, iterations, rng):
    """``iterations`` draws of every user's rank blocks through the log-space
    reference. Per block size m, ascending, each iteration's blocks of that
    size (users' clicked blocks, then their unclicked ones) take a uniform
    item order and one draw from the m x m table -(alpha/n) |target - rank|,
    shifted onto the block's ranks. Entry [t, u, j] is the rank of user u's
    item with 0-based target j at iteration t."""
    n_users, n = clicks.shape
    c = clicks.sum(axis=1)
    blocks = [(u, 0, c[u]) for u in range(n_users)] + [(u, c[u], n - c[u]) for u in range(n_users)]
    ranks0 = np.arange(n)
    out = np.empty((iterations, n_users, n), dtype=np.int64)
    for m in sorted({size for _, _, size in blocks} - {0}):
        group = [(u, lo) for u, lo, size in blocks if size == m]
        orderings0 = np.argsort(rng.random((iterations * len(group), m)), axis=1)
        draws = reference_draws(-(alpha / n) * np.abs(ranks0[:m, None] - ranks0[:m]), orderings0, rng)
        for row, (t, (u, lo)) in zip(draws, itertools.product(range(iterations), group)):
            out[t, u, lo:lo + m] = lo + row
    return out


def reference_user_draws(clicks, alpha, rho, rng, drawn=None):
    """One compatible ranking per user: one iteration of block draws (or
    ``drawn``) relabelled by each user's targets, the compatible ranking that
    follows ``rho`` within each click group."""
    n = clicks.shape[1]
    drawn = reference_block_draws(clicks, alpha, 1, rng)[0] if drawn is None else drawn
    target0 = rank_of(np.asarray(rho) + (1 - clicks) * 2 * n) - 1
    return np.take_along_axis(drawn, target0, axis=1)


def perturbed_v_ranking(rho_hat, sigma, rng, size):
    """``size`` V-set members of ``rho_hat``, each entry jittered with
    Gaussian noise of scale ``sigma`` and ranked (the members at sigma = 0)."""
    v = v_set(rho_hat).sample(rng, size)
    return v if sigma == 0 else rank_of(v + rng.normal(0.0, sigma, size=v.shape))


def reference_clicking(clicks, cfg, warmup):
    """The alternating click loop on one generator, through the log-space
    references, centred at the rank of the augmented column sums. The block
    draws of a chunk of iterations come before its consensus steps; warm-up
    and kept iterations are chunked apart, at most ``_CHUNK_CELLS`` user ranks
    (and at least one iteration) per chunk."""
    rng = np.random.default_rng(cfg.seed)
    n_users, n = clicks.shape
    chunk = max(1, pseudo._CHUNK_CELLS // max(n_users * n, 1))
    rho = rank_of(-clicks.sum(axis=0))
    rhos, users = [], []
    for iterations in (warmup, cfg.n_samples):
        for lo in range(0, iterations, chunk):
            for drawn in reference_block_draws(clicks, cfg.alpha, min(chunk, iterations - lo), rng):
                R = reference_user_draws(clicks, cfg.alpha, rho, None, drawn)
                v = perturbed_v_ranking(rank_of(R.sum(axis=0)), cfg.sigma, rng, 1)
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


@pytest.mark.parametrize(
    "n_users, n, clicked, warmup, n_samples, sigma",
    [(6, 5, "random", 0, 5, 0.5), (6, 5, "random", 7, 3, 0.5), (6, 5, "random", 3, 1, 0.5),
     (0, 5, "random", 4, 3, 0.5), (6, 5, "all", 3, 4, 0.5), (6, 1, "random", 3, 4, 0.5),
     (12, 7, "random", 3, 6, 0.0)],
    ids=["warmup-0", "warmup-over-chunks", "one-sample", "no-users", "all-clicked", "n=1", "odd-n-sigma-0"],
)
def test_click_loop_chunk_edges(n_users, n, clicked, warmup, n_samples, sigma, monkeypatch):
    """Chunks of two iterations (one with no users): shapes, compatible and
    reproducible draws, and the reference loop's stream. The odd n at
    sigma = 0 checks the middle-item-first V-set order of the one
    consensus draw without jitter."""
    monkeypatch.setattr(pseudo, "_CHUNK_CELLS", 2 * n_users * n)
    rng = np.random.default_rng(warmup + n_samples)
    clicks = rng.integers(0, 2, (n_users, n)) if clicked == "random" else np.ones((n_users, n), dtype=np.int64)
    cfg = PseudoConfig(2.0, sigma, n_samples, seed=11)
    ss, users = pseudo_clicking(clicks, cfg, warmup)
    assert ss.samples.shape == (n_samples, n) and users.shape == (n_samples, n_users, n)
    assert all(is_permutation(r) for r in ss.samples)
    assert all(in_compatible_set(r, b) for draw in users for r, b in zip(draw, clicks))
    again, users_again = pseudo_clicking(clicks, cfg, warmup)
    assert np.array_equal(ss.samples, again.samples) and np.array_equal(users, users_again)
    want_rho, want_users = reference_clicking(clicks, cfg, warmup)
    assert np.array_equal(ss.samples, want_rho) and np.array_equal(users, want_users)


@pytest.mark.parametrize("n, alpha, T", [
    # the T=60 cases keep their ids; the others sit just below and at the row-add
    # cut-over, and at the one draw of the click loop's consensus step
    pytest.param(n, alpha, T, id=f"{n}-{alpha}" + ("" if T == 60 else f"-T{T}"))
    for T in (60, pseudo._ROW_ADD_MIN - 1, pseudo._ROW_ADD_MIN, 1)
    for alpha in (1e-6, 2.0, 1e4, 1e6) for n in (1, 5, 20, 200)
])
def test_seeded_draws_equal_the_log_space_reference(n, alpha, T, monkeypatch):
    """Single-level draws take np.cumsum below ``_ROW_ADD_MIN`` draws and
    row-by-row adds from it on, and one draw takes Python floats; at n=200
    and T >= ``_COARSE_MIN`` they take two levels. At alpha >= 1e4 with
    n >= 20, underflowing draws are redone in log space in whichever branch
    runs."""
    fallbacks = []
    inner = pseudo._log_space
    monkeypatch.setattr(pseudo, "_log_space", lambda *a: fallbacks.append(1) or inner(*a))
    rng = np.random.default_rng(n)
    data = make_dataset(np.arange(1, n + 1), 2.0, 40, rng)
    orderings = np.argsort(rng.random((T, n)), axis=1) + 1
    cost = RankCountMatrix.from_dataset(data).cost
    got = sample_rho_with_orderings(data, alpha, orderings, np.random.default_rng(1))
    want = reference_draws(-(alpha / n) * cost, orderings - 1, np.random.default_rng(1))
    assert np.array_equal(got, want)
    assert bool(fallbacks) == (alpha > 100 and n >= 20)

    counts = rng.integers(0, n + 1, 40)
    counts[:2] = (0, n)  # a user with no clicks and one with all
    clicks = (data.rankings <= counts[:, None]).astype(np.int64)
    rho = rng.permutation(n) + 1
    got = sample_user_rankings(clicks, alpha, rho, np.random.default_rng(2))
    want = reference_user_draws(clicks, alpha, rho, np.random.default_rng(2))
    assert np.array_equal(got, want)


def vector_steps(log_weights, ordering0, rng):
    """One draw through the vector path's steps, written out: one
    ``rng.random((n, 1))``, then per step the free ranks' linear weights as
    an (n, 1) column, their np.cumsum, the log-space redo of a free mass
    below 1e-300, and ``_pick``."""
    lw = np.asarray(log_weights)
    lin = np.exp(lw - lw.max(axis=1, keepdims=True))
    n = ordering0.size
    u01 = rng.random((n, 1))
    free = np.ones((n, 1))
    out = np.empty((1, n), dtype=np.int64)
    for k, item in enumerate(ordering0):
        w = lin[item][:, None] * free
        cum = np.cumsum(w, axis=0)
        if cum[-1, 0] < 1e-300:
            w_low, cum_low = pseudo._log_space(lw, ordering0[k : k + 1], free.T > 0)
            w, cum = w_low.T, cum_low.T
        chosen = _pick(w, cum, u01[k] * cum[-1])[0]
        out[0, item] = chosen + 1
        free[chosen] = 0.0
    return out


def test_one_draw_equals_the_vector_steps_on_a_click_loop_table(monkeypatch):
    """The consensus step's shape: n=20 items, N=200 augmented rankings and
    alpha=5, a table that spans more than ``_UNDERFLOW_SPAN`` nats. Each of
    300 orderings is drawn alone, through the kernel and through the vector
    steps, from generators on one seed; the draws and the next uniform agree."""
    one_draws = []
    inner = pseudo._one_draw
    monkeypatch.setattr(pseudo, "_one_draw", lambda *a: one_draws.append(1) or inner(*a))
    n, alpha = 20, 5.0
    rng = np.random.default_rng(19)
    clicks = binarize(make_dataset(np.arange(1, n + 1), alpha, 200, rng), TruncatedPoisson(4.0, 1, 17), rng)
    R = sample_user_rankings(clicks, alpha, click_frequency_ranking(clicks.clicks), rng)
    log_weights = -(alpha / n) * RankCountMatrix(R).cost
    assert np.ptp(log_weights, axis=1).max() > pseudo._UNDERFLOW_SPAN
    for seed in range(300):
        ordering0 = rng.permutation(n)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sequential_draws(log_weights, ordering0[None], got_rng)
        assert np.array_equal(got, vector_steps(log_weights, ordering0, want_rng))
        assert got_rng.random() == want_rng.random()
    assert len(one_draws) == 300


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
    value skips the zero weights after it. One column per draw."""
    w = np.array([[0.5, 0.0, 0.0, 1.0, 1.0], [0.5, 1.0, 0.0, 0.0, 2.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0, 0.0]])
    u = np.array([1.0 + 1e-12, 3.0, 0.0, 1.0, 3.0])
    assert _pick(w, np.cumsum(w, axis=0), u).tolist() == [1, 3, 2, 3, 1]


def reference_pick(w, cum, u):
    """The inverse-CDF pick that checks every draw for a zero weight, over
    rank-major (m, T) tables."""
    m = w.shape[0]
    idx = np.minimum((cum <= u).sum(axis=0), m - 1)
    bad = w[idx, np.arange(w.shape[1])] == 0
    if bad.any():
        idx[bad] = m - 1 - np.argmax(w[::-1, bad] > 0, axis=0)
    return idx


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(1, 10) | st.sampled_from([127, 128]), st.integers(0, 2**32 - 1))
def test_pick_matches_the_zero_checking_rule(T, m, seed):
    """Columns with zero weights, and uniforms at 0, on cumulative values, at
    and past the total, or anywhere in [0, total); m = 127 and 128 sit on
    either side of the widest count kept in int8."""
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((m, T)) < 0.5, 0.0, rng.exponential(1.0, (m, T)))
    cum = np.cumsum(w, axis=0)
    total = cum[-1]
    choices = np.stack([np.zeros(T), cum[rng.integers(0, m, T), np.arange(T)], total,
                        total * (1 + 1e-12) + 1e-300, rng.random(T) * total])
    u = choices[rng.integers(0, len(choices), T), np.arange(T)]
    got = _pick(w, cum, u)
    assert np.array_equal(got, reference_pick(w, cum, u))
    assert (w[got, np.arange(T)] > 0)[(w > 0).any(axis=0)].all()


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


@pytest.mark.parametrize("n, alpha, t", [
    # the T=150 cases keep their ids; T=300 takes the row adds at both levels
    pytest.param(n, alpha, t, id=f"{n}-{alpha}" + ("" if t == 150 else f"-T{t}"))
    for t in (150, 300) for n in (130, 200, 257) for alpha in (1e-6, 2.0, 1e4, 1e6)
])
def test_two_level_draws_equal_the_log_space_reference(n, alpha, t, two_level_calls):
    """Blocks of ceil(sqrt(n)) ranks: 12, 15 and 17, none of which divides n."""
    assert min(n, t) >= pseudo._COARSE_MIN and (t >= pseudo._ROW_ADD_MIN) == (t == 300)
    rng = np.random.default_rng(n)
    data = make_dataset(np.arange(1, n + 1), 2.0, 40, rng)
    orderings = np.argsort(rng.random((t, n)), axis=1) + 1
    cost = RankCountMatrix.from_dataset(data).cost
    got = sample_rho_with_orderings(data, alpha, orderings, np.random.default_rng(1))
    want = reference_draws(-(alpha / n) * cost, orderings - 1, np.random.default_rng(1))
    assert two_level_calls == [(t, n)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4, 1e6])
def test_wide_user_draws_equal_the_log_space_reference(alpha, two_level_calls):
    """Blocks up to n = 150 ranks. The 130 users with no clicks or with all
    of them make 130 full-width blocks, which take the two-level search
    through the kernel's T/n rule; the other block sizes take one level."""
    n, n_users = 150, 170
    rng = np.random.default_rng(7)
    counts = rng.integers(0, n + 1, n_users)
    counts[:130] = np.arange(130) % 2 * n
    clicks = (np.argsort(rng.random((n_users, n)), axis=1) < counts[:, None]).astype(np.int64)
    rho = rng.permutation(n) + 1
    got = sample_user_rankings(clicks, alpha, rho, np.random.default_rng(2))
    want = reference_user_draws(clicks, alpha, rho, np.random.default_rng(2))
    assert two_level_calls == [(130, n)]
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
