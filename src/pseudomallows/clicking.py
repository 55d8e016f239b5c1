"""Preference learning from binary click data.

Clicked items are assumed ranked above unclicked ones, so a user's latent
ranking is a sequential draw around the consensus in which every item is
confined to its own rank block: clicked items to 1..c, unclicked items to
c+1..n. The alternating loop draws all user rankings given the current
consensus, then one consensus sample given the augmented rankings, and
repeats. An item's weight exp(-(alpha/n) |target - r|) depends only on its
distance from the target, and a block's targets are its own ranks in a
uniform item order, so each block is a draw from a law on the permutations
of its m ranks that depends on m and alpha alone, relabelled by the targets.
The loop draws the blocks of a chunk of iterations up front, one kernel call
per block size, and relabels them at each iteration's consensus.

Both click-data samplers (this loop and ``mcmc.mcmc_clicking``) start from
``click_frequency_ranking`` and return a (T, N, n) user-ranking trace;
``recommend_all`` turns either trace into every user's top-k list with one
window count over the trace and one stable argsort per user.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ClickDataset, RankCountMatrix, RankingDataset, SampleSet, check_alpha, clicks_of
from .perms import as_ranking, perturbed_v_ranking, rank_of
from .pseudo import PseudoConfig, _sequential_draws, match_alpha_grid, mean_pairwise_similarity


class Recommendation(NamedTuple):
    item: int  # 1-based item index
    probability: float


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson click-count model restricted to [low, high] by rejection."""

    mean: float
    low: int = 1
    high: int | None = None

    def sample(self, rng, size: int) -> np.ndarray:
        return _rejection_counts(lambda s: rng.poisson(self.mean, s), self.low, self.high, size)


@dataclass(frozen=True)
class TruncatedExponential:
    """Exponential click-count model; draws are rounded to integers, then
    restricted to [low, high] by rejection."""

    mean: float
    low: int = 1
    high: int | None = None

    def sample(self, rng, size: int) -> np.ndarray:
        draw = lambda s: np.rint(rng.exponential(self.mean, s)).astype(np.int64)
        return _rejection_counts(draw, self.low, self.high, size)


def _rejection_counts(draw, low, high, size, max_rounds: int = 1000) -> np.ndarray:
    out = np.empty(size, dtype=np.int64)
    filled = 0
    for _ in range(max_rounds):
        cand = np.asarray(draw(max(size - filled, 16)), dtype=np.int64)
        ok = cand >= low
        if high is not None:
            ok &= cand <= high
        cand = cand[ok][: size - filled]
        out[filled : filled + cand.size] = cand
        filled += cand.size
        if filled == size:
            return out
    raise ValueError(f"truncation bounds [{low}, {high}] reject essentially all draws")


def in_compatible_set(ranking, clicks_row) -> bool:
    """True when every clicked item outranks every unclicked item."""
    r = np.asarray(ranking, dtype=np.int64)
    b = np.asarray(clicks_row, dtype=np.int64)
    c = int(b.sum())
    return bool((r[b == 1] <= c).all() and (r[b == 0] >= c + 1).all())


def click_frequency_ranking(clicks) -> np.ndarray:
    """Items ranked by descending click frequency, ties by item index.

    The most-clicked item gets rank 1, consistent with clicked items being
    the preferred ones. ``clicks`` is a ClickDataset or anything ClickDataset
    accepts.
    """
    freq = clicks_of(clicks).sum(axis=0).astype(np.float64)
    return rank_of(-freq)


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


def _targets(b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Each user's 0-based targets, ``rank_of(rho + (1 - b) * 2 * n) - 1`` (the
    compatible ranking that follows ``rho`` in each click group), from one
    argsort of ``rho`` and the cumulative click counts in its order."""
    in_order = b[:, np.argsort(rho)]
    clicked = in_order.cumsum(axis=1)  # clicked items up to each consensus position
    return np.where(in_order, clicked - 1, clicked[:, -1:] + np.arange(rho.size) - clicked)[:, rho - 1]


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
    return np.take_along_axis(drawn, _targets(b, rho), axis=1)


def pseudo_clicking(clicks, cfg: PseudoConfig, warmup: int = 10):
    """Alternating sampler for click data.

    Starts the consensus at the descending click-frequency ranking, then per
    iteration (i) samples every user's ranking given the current consensus
    and (ii) draws one consensus sample treating the augmented rankings as
    complete data, with a sigma-perturbed V-set ordering around the rank of
    the augmented rankings' column sums (the order of their mean ranks, as
    in ``estimate_rho_hat``). The first ``warmup`` iterations are discarded.
    The clicks are read once per call; block draws come a chunk of warm-up or
    kept iterations at a time (``_CHUNK_CELLS`` user ranks, at least one).
    Returns the consensus SampleSet and the (n_samples, N, n) user-ranking
    draws. ``clicks`` is a ClickDataset or anything ClickDataset accepts.
    """
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")
    b = clicks_of(clicks)
    n_users, n = b.shape
    rng = np.random.default_rng(cfg.seed)
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
            R[:] = np.take_along_axis(R, _targets(b, rho), axis=1)
            v = perturbed_v_ranking(rank_of(R.sum(axis=0)), cfg.sigma, rng, 1)
            ordering0 = np.argsort(v, axis=1, kind="stable")
            rho = _sequential_draws(-(cfg.alpha / n) * RankCountMatrix(R).cost, ordering0, rng)[0]
            if t >= warmup:
                rho_keep[t - warmup] = rho
    wall = time.perf_counter() - start
    rho_samples = SampleSet(
        rho_keep, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall
    )
    return rho_samples, user_keep


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
    [c+1, c+k]; ties are broken by ascending item index. ``clicks_row`` must
    hold only 0 and 1.
    """
    samples = user_samples.samples if isinstance(user_samples, SampleSet) else user_samples
    b = np.asarray(clicks_row)
    if not ((b == 0) | (b == 1)).all():
        raise ValueError(f"clicks row contains values outside {{0, 1}}: {b.tolist()}")
    b = b.astype(np.int64)
    c = int(b.sum())
    if not 1 <= k <= b.size - c:
        raise ValueError(f"k must be in [1, {b.size - c}] for this user")
    return _recommend(np.asarray(samples)[:, None, :], b[None, :], k)[0]


def recommend_all(user_samples, clicks, k: int) -> list[list[Recommendation]]:
    """:func:`recommend_topk` for every user of a (T, N, n) user-ranking trace.

    A user with fewer than ``k`` unclicked items gets all of them, ranked;
    a user who clicked everything gets ``[]``. ``clicks`` is a ClickDataset
    or anything ClickDataset accepts.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b = clicks_of(clicks)
    samples = np.asarray(user_samples)
    if samples.ndim != 3 or samples.shape[1:] != b.shape:
        raise ValueError(f"a trace of shape {samples.shape} does not match clicks of shape {b.shape}")
    return _recommend(samples, b, k)


def binarize(data: RankingDataset, count_model, rng) -> ClickDataset:
    """Convert rankings to clicks: draw a click count per user from the count
    model and mark that user's top-ranked items as clicked."""
    n = data.n_items
    if count_model.low < 1 or (count_model.high is not None and count_model.high > n):
        raise ValueError(f"truncation bounds must sit inside [1, {n}]")
    if count_model.high is not None and count_model.low > count_model.high:
        raise ValueError("low exceeds high")
    rng = np.random.default_rng(rng)
    counts = count_model.sample(rng, data.n_users)
    counts = np.minimum(counts, n)
    clicks = (data.rankings <= counts[:, None]).astype(np.int64)
    return ClickDataset(clicks)


def binary_mean_similarity(clicks: ClickDataset | np.ndarray) -> float:
    """Mean pairwise cosine similarity between click vectors.

    Zero-click users carry no signal and are excluded from both the sum and
    the pair normalization.
    """
    return mean_pairwise_similarity(clicks_of(clicks))


def estimate_alpha_clicks(
    clicks: ClickDataset,
    alpha_grid,
    count_model=None,
    sim_users: int = 300,
    rng=None,
) -> float:
    """Grid alpha whose simulated binarized similarity best matches the data.

    Simulated Mallows datasets are binarized with ``count_model`` (default: a
    truncated Poisson with the observed mean click count) before computing
    the binary similarity statistic.
    """
    rng = np.random.default_rng(rng)
    observed = binary_mean_similarity(clicks)
    n = clicks.n_items
    if count_model is None:
        counts = clicks.click_counts()
        counts = counts[counts > 0]
        count_model = TruncatedPoisson(mean=float(counts.mean()), low=1, high=n)
    from .simulate import make_dataset

    rho0 = np.arange(1, n + 1)
    return match_alpha_grid(
        alpha_grid,
        observed,
        lambda a: binary_mean_similarity(binarize(make_dataset(rho0, a, sim_users, rng), count_model, rng)),
    )
