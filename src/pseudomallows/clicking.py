"""Preference learning from binary click data: the data model and recommendation.

Clicked items are assumed ranked above unclicked ones, so a user's latent
ranking lies in the compatible set of the clicks: clicked items take ranks
1..c, unclicked items c+1..n. Both click-data samplers
(``pseudo.pseudo_clicking`` and ``mcmc.mcmc_clicking``) start from
``data.click_frequency_ranking``, take each user's targets from
``data.click_targets`` and return a (T, N, n) user-ranking trace;
``recommend_all`` turns either trace into every user's top-k list with one
window count over the trace and one stable argsort per user. Rankings are
turned into clicks with a truncated Poisson count model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ClickDataset, RankingDataset, SampleSet, clicks_of, rankings_of
from .perms import check_alpha, check_count
from .pseudo import match_alpha_grid, mean_pairwise_similarity
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
    check_count(sim_users, "sim_users", 2)
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
