"""Exact enumeration oracle for the Mallows model (feasible for n <= 8).

This module is the ground truth the approximate samplers are tested
against, and the one module that enumerates P_n: likelihood normalizer,
posterior over the consensus, per-item rank marginals, restricted medians,
the constrained L1 minimizer, and the factorized (pseudo-Mallows) law at a
fixed ordering with its ELBO and joint KL. Both laws take their target term
from one gather over the cost table. Its own ``_logsumexp`` keeps scipy out of
every import of the package; it is scipy's formula, so the numbers match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import RankCountMatrix, RankingDataset, rank_counts, rankings_of
from .perms import CapacityError, as_ranking, check_alpha, check_count, permutation_matrix

EXACT_CAP = 8  # 8! = 40320 permutations stays sub-second
_SUM_TOL = 1e-12  # how far the probabilities of a DiscreteDistribution may sum from 1


def _logsumexp(x: np.ndarray) -> np.float64:
    """log(sum(exp(x))) of a 1-D array by scipy.special.logsumexp's formula,
    bit for bit on finite input: the k entries tied at the top are split off."""
    top = x.max()
    tied = x == top
    k = tied.sum()
    rest = np.exp(np.where(tied, -np.inf, x) - top).sum()
    return np.log1p(rest / k if rest else rest) + np.log(k) + top


def _probabilities(logw: np.ndarray) -> np.ndarray:
    """``exp(logw - logsumexp(logw))``; where log weights near 1e6 in size leave
    that too few digits to sum to 1 within ``_SUM_TOL``, exp(logw - max) / sum."""
    probs = np.exp(logw - _logsumexp(logw))
    if abs(probs.sum() - 1.0) > _SUM_TOL:
        probs = np.exp(logw - logw.max())
        probs /= probs.sum()
    return probs


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability distribution over an explicit support of rankings."""

    support: np.ndarray  # (M, n) distinct rows
    probs: np.ndarray  # (M,) nonnegative, sums to 1

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if support.ndim != 2 or probs.ndim != 1 or support.shape[0] != probs.size:
            raise ValueError("support and probs shapes are inconsistent")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def n_items(self) -> int:
        return self.support.shape[1]

    def prob_of(self, ranking) -> float:
        r = as_ranking(ranking)
        match = np.flatnonzero((self.support == r).all(axis=1))
        return float(self.probs[match[0]]) if match.size else 0.0


def _log_posterior_weights(cost: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized log posterior weight of every rho in P_n, lexicographic,
    from the (n, n) cost table: -(alpha/n) * sum_j d(R^j, rho). An alpha at
    which a weight overflows to -inf is rejected: the weights would give NaN
    probabilities and a NaN evidence. The largest weight's size is checked in
    Python floats, where the product rounds as numpy's does and an overflow
    gives inf without a warning."""
    alpha = check_alpha(alpha, allow_zero=True)
    n = cost.shape[0]
    if n > EXACT_CAP:
        raise CapacityError(f"exact enumeration requires n <= {EXACT_CAP}, got {n}")
    perms = permutation_matrix(n)
    total = cost[np.arange(n)[None, :], perms - 1].sum(axis=1)
    top = int(total.max(initial=0))
    if not math.isfinite(alpha / n * top):
        raise ValueError(f"alpha={alpha!r} overflows the log posterior weights: (alpha/n) times "
                         f"the largest total distance, {top}, exceeds the float range")
    return perms, -(alpha / n) * total


def exact_posterior(data: RankingDataset | np.ndarray, alpha: float) -> DiscreteDistribution:
    """Posterior over the consensus under a uniform prior, by enumeration.

    ``data`` is a RankCountMatrix or rankings; with no users (or alpha = 0)
    this is the uniform distribution on P_n.
    """
    perms, logw = _log_posterior_weights(RankCountMatrix.from_dataset(data).cost, alpha)
    return DiscreteDistribution(perms, _probabilities(logw))


def log_evidence(data: RankingDataset | np.ndarray, alpha: float) -> float:
    """log Z_n(alpha, R^1..R^N): the log normalizer of the posterior."""
    _, logw = _log_posterior_weights(RankCountMatrix.from_dataset(data).cost, alpha)
    return float(_logsumexp(logw))


def log_partition(n: int, alpha: float) -> float:
    """log of the Mallows normalizing constant Z_n(alpha).

    The footrule distance is right-invariant, so Z_n(alpha) is the evidence
    of a single ranking, whichever ranking it is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return log_evidence(np.arange(1, n + 1)[None, :], alpha)


def mallows_distribution(rho0, alpha: float) -> DiscreteDistribution:
    """The Mallows distribution centered at ``rho0``, by enumeration."""
    return exact_posterior(as_ranking(rho0)[None, :], alpha)


def marginal_profile_matrix(dist: DiscreteDistribution) -> np.ndarray:
    """All per-item rank marginals of ``dist`` as an (n, n) row-stochastic matrix."""
    return rank_counts(dist.support, dist.probs)


def marginal_rank_distribution(dist: DiscreteDistribution, item: int) -> np.ndarray:
    """P(rank of ``item`` = r) for r = 1..n under ``dist`` (item is 1-based)."""
    n = dist.n_items
    if not 1 <= item <= n:
        raise IndexError(f"item {item} out of range 1..{n}")
    return marginal_profile_matrix(dist)[item - 1]


def marginal_expectation(rho0, alpha: float, item: int) -> float:
    """E[R_item] under Mallows(rho0, alpha)."""
    marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), item)
    return float(marg @ np.arange(1, marg.size + 1))


def _admissible_ranks(n: int, excluded) -> list[int]:
    """The ranks 1..n not in ``excluded``, whose entries must be integer ranks;
    raises when every rank is excluded."""
    excluded = {check_count(e, "excluded rank", 1) for e in excluded}
    admissible = [r for r in range(1, n + 1) if r not in excluded]
    if not admissible:
        raise ValueError("every rank is excluded; no admissible rank remains")
    return admissible


def marginal_median(rho0, alpha: float, item: int, excluded=()) -> int:
    """Median of the Mallows marginal of ``item`` restricted to ranks not in
    ``excluded``: the smallest rank where the renormalized CDF reaches 1/2."""
    marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), item)
    admissible = _admissible_ranks(marg.size, excluded)
    weights = np.array([marg[r - 1] for r in admissible])
    cdf = np.cumsum(weights) / weights.sum()
    idx = int(np.searchsorted(cdf, 0.5))
    return admissible[min(idx, len(admissible) - 1)]


def constrained_l1_minimizer(data: RankingDataset | np.ndarray, item: int, excluded=()) -> int:
    """argmin over admissible ranks l of sum_j |R^j_item - l|, smallest l on ties."""
    rankings = rankings_of(data)
    n = rankings.shape[1]
    if not 1 <= item <= n:
        raise IndexError(f"item {item} out of range 1..{n}")
    admissible = _admissible_ranks(n, excluded)
    col = rankings[:, item - 1]
    costs = [int(np.abs(col - l).sum()) for l in admissible]
    return admissible[int(np.argmin(costs))]


def _factorized_log_components(data, alpha: float, ordering):
    """Per-permutation log probability and log normalizer of the factorization
    of ``data`` (a RankCountMatrix or rankings) at a 1-based ``ordering``.

    Returns (perms, log_q, log_zpm, log_target) over all of P_n in
    lexicographic order, where log_target is the unnormalized log posterior
    weight -(alpha/n) * sum_j d(R^j, rho). A step whose free mass underflows
    relative to its row maximum is redone relative to its free maximum.
    """
    cost = RankCountMatrix.from_dataset(data).cost
    perms, log_target = _log_posterior_weights(cost, alpha)
    n = cost.shape[0]
    ordering0 = as_ranking(ordering, "ordering") - 1
    if ordering0.size != n:
        raise ValueError("ordering length does not match the data")
    m = len(perms)
    log_e = -(alpha / n) * cost  # (n_items, n_ranks); alpha was checked above
    remaining = np.ones((m, n), dtype=bool)
    log_zpm = np.zeros(m)
    with np.errstate(divide="ignore"):
        for i in ordering0.tolist():
            row = log_e[i]
            shift = row.max()
            weights = np.exp(row - shift)
            den = remaining @ weights
            step = shift + np.log(den)
            low = den < 1e-300
            if low.any():
                free = np.where(remaining[low], row, -np.inf)
                top = free.max(axis=1)
                step[low] = top + np.log(np.exp(free - top[:, None]).sum(axis=1))
            log_zpm += step
            remaining[np.arange(m), perms[:, i] - 1] = False
    return perms, log_target - log_zpm, log_zpm, log_target


def exact_distribution(data, alpha: float, ordering) -> DiscreteDistribution:
    """The full factorized distribution over P_n for a fixed ordering (n <= 8).

    Each permutation's probability is the product of its n sequential factor
    probabilities; equivalently the Mallows numerator divided by the product
    of per-step denominators.
    """
    perms, log_q, _, _ = _factorized_log_components(data, alpha, ordering)
    return DiscreteDistribution(perms, _probabilities(log_q))


def elbo_exact(data, alpha: float, ordering) -> float:
    """Exact evidence lower bound of the factorized family at one ordering.

    Enumerates P_n, weighting each permutation's log step-normalizer by its
    factorized probability (n <= 8).
    """
    _, log_q, log_zpm, _ = _factorized_log_components(data, alpha, ordering)
    q = np.exp(log_q)
    live = q > 0
    return float(np.sum(q[live] * log_zpm[live]))


def joint_kl_exact(data, alpha: float, ordering) -> float:
    """KL between the factorized distribution and the exact posterior, by
    full enumeration of P_n (n <= 8)."""
    _, log_q, _, log_p = _factorized_log_components(data, alpha, ordering)
    log_p = log_p - _logsumexp(log_p)
    q = np.exp(log_q)
    live = q > 0
    return float(np.sum(q[live] * (log_q[live] - log_p[live])))
