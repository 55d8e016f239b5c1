"""Preference learning from binary click data.

Clicked items are assumed ranked above unclicked ones, so a user's latent
ranking is a sequential draw around the consensus in which every item is
confined to its own rank block: clicked items to 1..c, unclicked items to
c+1..n. The alternating loop draws all user rankings given the current
consensus, then one consensus sample given the augmented rankings, as a
``sample_rho`` call on their cost table, and repeats. An item's weight
exp(-(alpha/n) |target - r|) depends only on its distance from the target,
and a block's targets are its own ranks in a uniform item order, so each
block is a draw from a law on the permutations of its m ranks that depends
on m and alpha alone, relabelled by the targets.
The loop draws the blocks of a chunk of iterations up front, one kernel call
per block size, and relabels them at each iteration's consensus.

Both click-data samplers (this loop and ``mcmc.mcmc_clicking``) start from
``data.click_frequency_ranking``, take each user's targets from
``data.click_targets`` and return a (T, N, n) user-ranking trace;
``recommend_all`` turns either trace into every user's top-k list with one
window count over the trace and one stable argsort per user. Rankings are
turned into clicks with a truncated Poisson count model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import (
    ClickDataset, RankCountMatrix, RankingDataset, SampleSet, check_alpha, check_count,
    click_frequency_ranking, click_targets, clicks_of, rankings_of,
)
from .perms import as_ranking
from .pseudo import PseudoConfig, _sequential_draws, match_alpha_grid, mean_pairwise_similarity, sample_rho
from .simulate import make_dataset


class Recommendation(NamedTuple):
    item: int  # 1-based item index
    probability: float


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson click-count model restricted to [low, high] by rejection."""

    mean: float
    low: int = 1
    high: int | None = None

    def __post_init__(self):
        check_alpha(self.mean, name="mean")
        low = check_count(self.low, "low", 0)
        if self.high is not None:
            check_count(self.high, "high", low)

    def sample(self, rng, size: int) -> np.ndarray:
        out = np.empty(size, dtype=np.int64)
        filled = 0
        for _ in range(1000):
            cand = rng.poisson(self.mean, max(size - filled, 16)).astype(np.int64)
            ok = cand >= self.low
            if self.high is not None:
                ok &= cand <= self.high
            cand = cand[ok][: size - filled]
            out[filled : filled + cand.size] = cand
            filled += cand.size
            if filled == size:
                return out
        raise ValueError(f"truncation bounds [{self.low}, {self.high}] reject essentially all draws")


def in_compatible_set(ranking, clicks_row) -> bool:
    """True when every clicked item outranks every unclicked item."""
    r = np.asarray(ranking, dtype=np.int64)
    b = np.asarray(clicks_row, dtype=np.int64)
    c = int(b.sum())
    return bool((r[b == 1] <= c).all() and (r[b == 0] >= c + 1).all())


_CHUNK_CELLS = 200_000  # user ranks per chunk of block draws (50 iterations at N=200, n=20)


def _draw_blocks(b: np.ndarray, alpha: float, out: np.ndarray, rng) -> np.ndarray:
    """Fill and return the (L, N, n) ``out``: ``out[t, u, j]`` is the rank of
    user u's item with 0-based target j at iteration t. Per block size m,
    ascending, one kernel call draws all clicked, then unclicked, blocks of m
    ranks from the m x m corner of -(alpha/n) |target - rank|, in uniform orders."""
    n_users, n = b.shape
    c = b.sum(axis=1)
    sizes, starts = np.concatenate([c, n - c]), np.concatenate([0 * c, c])
    users = np.tile(np.arange(n_users), 2)
    ranks0 = np.arange(n)
    log_weights = -(alpha / n) * np.abs(ranks0[:, None] - ranks0)
    for m in np.unique(sizes[sizes > 0]):
        block = sizes == m
        cols = starts[block][:, None] + ranks0[:m]
        orderings0 = np.argsort(rng.random((out.shape[0] * cols.shape[0], m)), axis=1)
        draws = _sequential_draws(log_weights[:m, :m], orderings0, rng)
        out[:, users[block][:, None], cols] = draws.reshape(out.shape[0], -1, m) + cols[:, :1]
    return out


def sample_user_rankings(clicks, alpha: float, rho, rng) -> np.ndarray:
    """Draw one compatible ranking per user given the consensus (vectorized).

    Each user's ranking is one sequential draw per rank block, in a uniform
    item order: item i takes rank r of its own block with weight
    exp(-(alpha/n) |target_i - r|), the target being the compatible ranking
    that follows ``rho`` within each group. This is one iteration of the
    loop's block draws (``_draw_blocks``), one kernel call per block size;
    with few users per size it costs more than an iteration of the loop,
    which draws a chunk of iterations per call. Memory is O(N * n + n^2).
    ``clicks`` is a ClickDataset or anything ClickDataset accepts.
    """
    alpha = check_alpha(alpha)
    rho = as_ranking(rho)
    b = clicks_of(clicks)
    n = rho.size
    if b.shape[1] != n:
        raise ValueError(f"clicks have {b.shape[1]} columns but rho ranks {n} items")
    drawn = _draw_blocks(b, alpha, np.empty((1, *b.shape), dtype=np.int64), rng)[0]
    return np.take_along_axis(drawn, click_targets(b, rho), axis=1)


def pseudo_clicking(clicks, cfg: PseudoConfig, warmup: int = 10):
    """Alternating sampler for click data.

    Starts the consensus at the descending click-frequency ranking, then per
    iteration (i) samples every user's ranking given the current consensus
    and (ii) draws one consensus sample treating the augmented rankings as
    complete data: a one-draw ``sample_rho`` call on their RankCountMatrix,
    which continues the loop's generator. The first ``warmup`` iterations are
    discarded. The clicks are read once per call; block draws come a chunk of
    warm-up or kept iterations at a time (``_CHUNK_CELLS`` user ranks, at
    least one).
    Returns the consensus SampleSet and the (n_samples, N, n) user-ranking
    draws. ``clicks`` is a ClickDataset or anything ClickDataset accepts.
    """
    check_count(warmup, "warmup", 0)
    b = clicks_of(clicks)
    n_users, n = b.shape
    rng = np.random.default_rng(cfg.seed)
    step = replace(cfg, n_samples=1, seed=rng)
    rho = click_frequency_ranking(b)
    total = warmup + cfg.n_samples
    chunk = max(1, _CHUNK_CELLS // max(n_users * n, 1))
    starts = [*range(0, warmup, chunk), *range(warmup, total, chunk)]
    rho_keep = np.empty((cfg.n_samples, n), dtype=np.int64)
    user_keep = np.empty((cfg.n_samples, n_users, n), dtype=np.int64)
    start = time.perf_counter()
    for lo, hi in zip(starts, starts[1:] + [total]):
        # kept iterations draw into their slice of the trace, warm-up ones into scratch
        drawn = (user_keep[lo - warmup : hi - warmup] if lo >= warmup
                 else np.empty((hi - lo, n_users, n), dtype=np.int64))
        for t, R in enumerate(_draw_blocks(b, cfg.alpha, drawn, rng), lo):
            R[:] = np.take_along_axis(R, click_targets(b, rho), axis=1)
            rho = sample_rho(RankCountMatrix(R), step).samples[0]
            if t >= warmup:
                rho_keep[t - warmup] = rho
    wall = time.perf_counter() - start
    return SampleSet(rho_keep, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall), user_keep


def _recommend(samples: np.ndarray, b: np.ndarray, k: int) -> list[list[Recommendation]]:
    """Every user's top-k list from a (T, N, n) trace and (N, n) clicks: the
    share of draws placing each unclicked item in the user's next-k window
    [c+1, c+k], by one stable argsort per row with clicked items last (ties
    by ascending item index), cut at min(k, unclicked items)."""
    c = b.sum(axis=1)[:, None]
    # int32 counts: the reduction over T runs faster than in int64
    hits = ((samples > c) & (samples <= c + k)).sum(axis=0, dtype=np.int32)
    order = np.argsort(np.where(b == 1, 1, -hits), axis=1, kind="stable")
    n = b.shape[1]
    return [
        [Recommendation(i + 1, probs[i]) for i in items[: min(k, n - clicked)]]
        for items, probs, clicked in zip(order.tolist(), (hits / samples.shape[0]).tolist(), c[:, 0].tolist())
    ]


def recommend_topk(user_samples, clicks_row, k: int) -> list[Recommendation]:
    """The k unclicked items most likely to sit in the next-k rank window.

    Probabilities are the fraction of posterior samples placing the item in
    [c+1, c+k]; ties are broken by ascending item index. ``clicks_row`` is
    read as a one-row ClickDataset, and must match the samples' width.
    """
    samples = user_samples.samples if isinstance(user_samples, SampleSet) else user_samples
    b = clicks_of(clicks_row)
    unclicked = b.shape[1] - int(b.sum())
    if not 1 <= k <= unclicked:
        raise ValueError(f"k must be in [1, {unclicked}] for this user")
    return recommend_all(np.asarray(samples)[:, None, :], b, k)[0]


def recommend_all(user_samples, clicks, k: int) -> list[list[Recommendation]]:
    """:func:`recommend_topk` for every user of a (T, N, n) user-ranking trace.

    A user with fewer than ``k`` unclicked items gets all of them, ranked;
    a user who clicked everything gets ``[]``. ``clicks`` is a ClickDataset
    or anything ClickDataset accepts.
    """
    check_count(k, "k", 1)
    b = clicks_of(clicks)
    samples = np.asarray(user_samples)
    if samples.ndim != 3 or samples.shape[1:] != b.shape:
        raise ValueError(f"a trace of shape {samples.shape} does not match clicks of shape {b.shape}")
    return _recommend(samples, b, k)


def binarize(data: RankingDataset | np.ndarray, count_model, rng) -> ClickDataset:
    """Convert rankings to clicks: draw a click count per user from the count
    model and mark that user's top-ranked items as clicked."""
    rankings = rankings_of(data)
    n_users, n = rankings.shape
    if count_model.low < 1 or (count_model.high is not None and count_model.high > n):
        raise ValueError(f"truncation bounds must sit inside [1, {n}]")
    rng = np.random.default_rng(rng)
    counts = count_model.sample(rng, n_users)
    counts = np.minimum(counts, n)
    clicks = (rankings <= counts[:, None]).astype(np.int64)
    return ClickDataset(clicks)


def estimate_alpha_clicks(
    clicks: ClickDataset | np.ndarray,
    alpha_grid,
    count_model=None,
    sim_users: int = 300,
    rng=None,
) -> float:
    """Grid alpha whose simulated binarized similarity best matches the data.

    Simulated Mallows datasets are binarized with ``count_model`` (default: a
    truncated Poisson with the observed mean click count) before computing
    the binary similarity statistic (``mean_pairwise_similarity``, which
    leaves zero-click users out).
    """
    rng = np.random.default_rng(rng)
    b = clicks_of(clicks)
    observed = mean_pairwise_similarity(b)
    n = b.shape[1]
    if count_model is None:
        counts = b.sum(axis=1)
        counts = counts[counts > 0]
        count_model = TruncatedPoisson(mean=float(counts.mean()), low=1, high=n)
    rho0 = np.arange(1, n + 1)

    def simulate(a):
        return mean_pairwise_similarity(binarize(make_dataset(rho0, a, sim_users, rng), count_model, rng).clicks)

    return match_alpha_grid(alpha_grid, observed, simulate)
