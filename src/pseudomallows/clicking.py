"""Preference learning from binary click data.

Clicked items are assumed ranked above unclicked ones, so a user's latent
ranking is one sequential draw around the consensus in which every item is
confined to its own rank block: clicked items to 1..c, unclicked items to
c+1..n. The alternating loop draws all user rankings given the current
consensus, then one consensus sample given the augmented rankings, and
repeats.

Both click-data samplers (this loop and ``mcmc.mcmc_clicking``) start from
``click_frequency_ranking`` and return a (T, N, n) user-ranking trace;
``recommend_all`` turns either trace into every user's top-k list, one
``recommend_topk`` call per user.
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


def click_frequency_ranking(clicks: ClickDataset) -> np.ndarray:
    """Items ranked by descending click frequency, ties by item index.

    The most-clicked item gets rank 1, consistent with clicked items being
    the preferred ones.
    """
    freq = clicks.clicks.sum(axis=0).astype(np.float64)
    return rank_of(-freq)


def sample_user_rankings(clicks, alpha: float, rho, rng) -> np.ndarray:
    """Draw one compatible ranking per user given the consensus (vectorized).

    Each user's ranking is one sequential draw over all n items, in a
    uniformly random item order. The target is the compatible ranking that
    follows ``rho`` within each group; item i takes rank r with weight
    exp(-(alpha/n) |target_i - r|) on its own rank block and zero off it.
    Within the unclicked block |(t + c) - (r + c)| = |t - r|, and the blocks
    are disjoint, so this is the law of two within-group samplers.

    The weight depends only on (target, rank), so every user reads one shared
    (n, n) table at row ``target - 1``; the blocks are an (N, 2, n) mask,
    unclicked then clicked, picked per item by its click bit. Memory is
    O(N * n + n^2). ``clicks`` is a ClickDataset or anything ClickDataset
    accepts.
    """
    alpha = check_alpha(alpha)
    rho = as_ranking(rho)
    b = clicks_of(clicks)
    n = rho.size
    if b.shape[1] != n:
        raise ValueError(f"clicks have {b.shape[1]} columns but rho ranks {n} items")
    target = rank_of(rho + (1 - b) * 2 * n)
    ranks0 = np.arange(n)
    clicked_block = ranks0 < b.sum(axis=1)[:, None]
    masks = np.stack((~clicked_block, clicked_block), axis=1)
    log_weights = -(alpha / n) * np.abs(ranks0[:, None] - ranks0)
    orderings0 = np.argsort(rng.random(b.shape), axis=1)
    return _sequential_draws(log_weights, orderings0, rng, keys=target - 1, blocks=(masks, b))


def sample_user_ranking(clicks_row, alpha: float, rho, rng) -> np.ndarray:
    """Single-user version of :func:`sample_user_rankings`."""
    return sample_user_rankings(np.asarray(clicks_row)[None, :], alpha, rho, rng)[0]


def pseudo_clicking(clicks: ClickDataset, cfg: PseudoConfig, warmup: int = 10):
    """Alternating sampler for click data.

    Starts the consensus at the descending click-frequency ranking, then per
    iteration (i) samples every user's ranking given the current consensus
    and (ii) draws one consensus sample treating the augmented rankings as
    complete data, with a sigma-perturbed V-set ordering around the rank of
    the current mean rankings. The first ``warmup`` iterations are
    discarded. Returns the consensus SampleSet and the per-user ranking
    draws with shape (n_samples, N, n).
    """
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")
    n_users, n = clicks.clicks.shape
    rng = np.random.default_rng(cfg.seed)
    rho = click_frequency_ranking(clicks)
    scale = cfg.alpha / n
    rho_keep = np.empty((cfg.n_samples, n), dtype=np.int64)
    user_keep = np.empty((cfg.n_samples, n_users, n), dtype=np.int64)
    start = time.perf_counter()
    for t in range(warmup + cfg.n_samples):
        R = sample_user_rankings(clicks, cfg.alpha, rho, rng)
        v = perturbed_v_ranking(rank_of(R.mean(axis=0)), cfg.sigma, rng, 1)
        ordering0 = np.argsort(v, axis=1, kind="stable")
        cost = RankCountMatrix(R).cost
        rho = _sequential_draws(-scale * cost, ordering0, rng)[0]
        if t >= warmup:
            rho_keep[t - warmup] = rho
            user_keep[t - warmup] = R
    wall = time.perf_counter() - start
    rho_samples = SampleSet(
        rho_keep, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall
    )
    return rho_samples, user_keep


def topk_probabilities(user_samples: np.ndarray, clicks_row, k: int) -> np.ndarray:
    """P(item ranked in the next-k window) per item, NaN for clicked items."""
    samples = np.asarray(user_samples, dtype=np.int64)
    b = np.asarray(clicks_row, dtype=np.int64)
    n = b.size
    c = int(b.sum())
    if not 1 <= k <= n - c:
        raise ValueError(f"k must be in [1, {n - c}] for this user")
    window = (samples >= c + 1) & (samples <= c + k)
    probs = window.mean(axis=0).astype(np.float64)
    probs[b == 1] = np.nan
    return probs


def recommend_topk(user_samples, clicks_row, k: int) -> list[Recommendation]:
    """The k unclicked items most likely to sit in the next-k rank window.

    Probabilities are the fraction of posterior samples placing the item in
    [c+1, c+k]; ties are broken by ascending item index.
    """
    samples = user_samples.samples if isinstance(user_samples, SampleSet) else user_samples
    b = np.asarray(clicks_row, dtype=np.int64)
    probs = topk_probabilities(samples, b, k)
    items = np.flatnonzero(b == 0)
    order = np.lexsort((items, -probs[items]))
    return [Recommendation(int(items[i]) + 1, float(probs[items[i]])) for i in order[:k]]


def recommend_all(user_samples, clicks, k: int) -> list[list[Recommendation]]:
    """:func:`recommend_topk` for every user of a (T, N, n) user-ranking trace.

    A user with fewer than ``k`` unclicked items gets all of them, ranked;
    a user who clicked everything gets ``[]``. ``clicks`` is a ClickDataset
    or anything ClickDataset accepts.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b = clicks_of(clicks)
    n = b.shape[1]
    out = []
    for j, row in enumerate(b):
        take = min(k, n - int(row.sum()))
        out.append(recommend_topk(user_samples[:, j, :], row, take) if take else [])
    return out


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
