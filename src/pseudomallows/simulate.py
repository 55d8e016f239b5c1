"""Synthetic Mallows data for experiments and estimator tuning.

Exact inverse-CDF sampling is used when the permutation space is small
enough to enumerate. Otherwise Mallows(rho0, alpha) is drawn as the
consensus posterior given the single ranking ``rho0``, whose density is
proportional to exp(-(alpha/n) * d(rho, rho0)): a thinned ``mcmc_rho`` chain
on that one-row dataset supplies approximately independent draws.
"""

from __future__ import annotations

import numpy as np

from .data import RankingDataset
from .exact import EXACT_CAP, mallows_distribution
from .mcmc import McmcConfig, mcmc_rho
from .perms import as_ranking, check_alpha, check_count, rank_of


def sample_mallows(rho0, alpha: float, size: int, rng) -> np.ndarray:
    """Draw ``size`` rankings from Mallows(rho0, alpha) as a (size, n) array.

    Exact by enumeration for n <= EXACT_CAP; above it, an ``mcmc_rho`` chain
    with burn-in 60n, thinning 3n and leap size max(1, n // 5), thinned
    aggressively so that the draws are close to independent.
    """
    rho0 = as_ranking(rho0)
    n = rho0.size
    alpha = check_alpha(alpha, allow_zero=True)
    size = check_count(size, "size", 1)
    rng = np.random.default_rng(rng)
    if alpha == 0 or n == 1:
        return rank_of(rng.random((size, n)))
    if n <= EXACT_CAP:
        dist = mallows_distribution(rho0, alpha)
        idx = rng.choice(len(dist.probs), size=size, p=dist.probs)
        return dist.support[idx]
    burn, thin = 60 * n, 3 * n
    cfg = McmcConfig(
        iterations=burn + size * thin,
        leap_size=max(1, n // 5),
        thin=thin,
        burn_in=burn,
        seed=rng,
    )
    return mcmc_rho(RankingDataset(rho0[None, :]), alpha, cfg).rho_samples


def make_dataset(rho0, alpha: float, n_users: int, rng) -> RankingDataset:
    """A RankingDataset of independent Mallows draws."""
    return RankingDataset(sample_mallows(rho0, alpha, check_count(n_users, "n_users", 1), rng))
