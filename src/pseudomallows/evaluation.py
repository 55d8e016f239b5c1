"""Approximation quality metrics and ordering-space search.

Marginal KL (the sum of per-item rank-marginal divergences) is the working
surrogate for the joint KL between the factorized sampler and the exact
posterior; the exact ELBO and joint KL that validate it at enumeration
scale live in ``exact``. ``ordering_kl`` scores one ordering, exactly or from
samples (then smoothing the reference as the sampled profile is smoothed);
the enumeration study, the ordering search and the ``eval-kl`` command all
call it. The search relocates one item at a time, scores candidates by
marginal KL, and recombines the scores through a minimum cost assignment.
``assignment_solve`` holds the package's one function-level import: scipy's
solver, loaded on first call so that sampling never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RankCountMatrix, RankingDataset, SampleSet, rank_counts
from .exact import (
    DiscreteDistribution,
    exact_distribution,
    exact_posterior,
    marginal_profile_matrix,
)
from .mcmc import McmcConfig, ls_move, mcmc_rho
from .perms import CapacityError, as_ranking, check_alpha, check_count, ordering_of, permutation_matrix, v_set
from .pseudo import PseudoConfig, estimate_rho_hat, sample_rho, sample_rho_with_orderings

EXACT_STUDY_CAP = 6  # the enumeration study costs n!^2 evaluations
EXACT_SEARCH_CAP = 5
SAMPLED_SEARCH_CAP = 15
_REFERENCE_ITERATIONS = 20_000  # chain length of the sampled reference profile


@dataclass(frozen=True)
class MarginalProfile:
    """Per-item rank marginals as an (n, n) row-stochastic matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("profile must be a square matrix")
        if not (np.isfinite(m) & (m >= 0)).all():
            raise ValueError("profile entries must be finite and nonnegative")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("profile rows must sum to 1")
        object.__setattr__(self, "matrix", m)

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_distribution(cls, dist: DiscreteDistribution) -> "MarginalProfile":
        return cls(marginal_profile_matrix(dist))

    def smooth(self, eps: float) -> "MarginalProfile":
        """Additively smoothed copy; use on an exact reference before
        comparing against empirical profiles of matching resolution."""
        m = self.matrix + check_alpha(eps, name="eps")
        return MarginalProfile(m / m.sum(axis=1, keepdims=True))

    @classmethod
    def from_samples(cls, samples, smoothing: float | None = None):
        """Empirical profile with additive smoothing (default 1/(2*draws)) so
        unvisited cells stay positive."""
        arr = samples.samples if isinstance(samples, SampleSet) else samples
        counts = rank_counts(arr)  # rejects all but a (T, n) table of ranks in 1..n
        if not len(arr):
            raise ValueError("an empirical profile needs at least one draw")
        eps = 1.0 / (2.0 * len(arr)) if smoothing is None else check_alpha(smoothing, name="smoothing")
        counts = counts + eps
        return cls(counts / counts.sum(axis=1, keepdims=True))


def marginal_kl(q: MarginalProfile, p: MarginalProfile) -> float:
    """Sum over items of KL(q_i || p_i) between per-item rank marginals."""
    qm, pm = q.matrix, p.matrix
    if qm.shape != pm.shape:
        raise ValueError(f"profile shapes differ: {qm.shape} vs {pm.shape}")
    active = qm > 0
    if (pm[active] <= 0).any():
        raise ValueError("q puts mass where p is zero; smooth p first")
    total = float(np.sum(qm[active] * (np.log(qm[active]) - np.log(pm[active]))))
    return max(total, 0.0)


def posterior_profile(data: RankingDataset | np.ndarray, alpha: float) -> MarginalProfile:
    """Exact posterior rank marginals (n <= 8); ``data`` is a RankCountMatrix or rankings."""
    return MarginalProfile.from_distribution(exact_posterior(data, alpha))


def reference_profile(data: RankingDataset | np.ndarray, alpha: float, rng=None) -> MarginalProfile:
    """Posterior rank marginals to compare approximations against: exact at
    enumeration scale, otherwise estimated from a long chain. ``data`` is a
    RankCountMatrix or rankings."""
    table = RankCountMatrix.from_dataset(data)
    if table.n_items <= EXACT_STUDY_CAP:
        return posterior_profile(table, alpha)
    rng = np.random.default_rng(rng)
    trace = mcmc_rho(
        table,
        alpha,
        McmcConfig(
            iterations=_REFERENCE_ITERATIONS,
            burn_in=_REFERENCE_ITERATIONS // 5,
            seed=int(rng.integers(2**63)),
        ),
    )
    return MarginalProfile.from_samples(trace.rho_samples)


def ordering_kl(cost, alpha: float, ordering, reference: MarginalProfile,
                draws: int | None = None, rng=None) -> float:
    """Marginal KL of the factorized sampler at one ordering against ``reference``.

    ``cost`` is a RankCountMatrix or a ranking dataset, and ``ordering`` names
    the item sampled at each step (1-based). With ``draws=None`` the sampler's
    marginals are exact, by enumeration (n <= 8); otherwise they are estimated
    from ``draws`` samples drawn with ``rng`` and ``reference`` is smoothed by
    their 1/(2*draws) to match; ``draws`` below 1 is rejected.
    """
    if draws is None:
        q = MarginalProfile.from_distribution(exact_distribution(cost, alpha, ordering))
    else:
        orderings = np.broadcast_to(ordering, (check_count(draws, "draws", 1), np.size(ordering)))
        q = MarginalProfile.from_samples(sample_rho_with_orderings(cost, alpha, orderings, rng))
        reference = reference.smooth(1.0 / (2.0 * draws))
    return marginal_kl(q, reference)


def enumerate_ordering_study(data: RankingDataset | np.ndarray, alpha: float):
    """Score every factorization ordering against the exact posterior.

    Returns [(ordering_ranking, marginal_kl), ...] over all of P_n sorted by
    ascending KL, with the factorized marginals evaluated by enumeration
    (n <= EXACT_STUDY_CAP).
    """
    cost = RankCountMatrix.from_dataset(data)
    n = cost.n_items
    if n > EXACT_STUDY_CAP:
        raise CapacityError(f"the ordering study requires n <= {EXACT_STUDY_CAP}")
    reference = posterior_profile(cost, alpha)
    results = []
    for ranking in permutation_matrix(n):
        kl = ordering_kl(cost, alpha, ordering_of(ranking), reference)
        results.append((tuple(int(v) for v in ranking), kl))
    results.sort(key=lambda pair: pair[1])
    return results


def assignment_solve(cost) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (assignment, total) where ``assignment[row]`` is the 1-based
    column matched to each row. The optimal total is unique even when the
    matching is not; scipy's solver breaks ties deterministically.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix must be finite")
    from scipy.optimize import linear_sum_assignment  # ~44 MB, ~0.5 s: keep it off the sampling path
    rows, cols = linear_sum_assignment(c)
    assignment = np.empty(c.shape[0], dtype=np.int64)
    assignment[rows] = cols + 1
    return assignment, float(c[rows, cols].sum())


@dataclass(frozen=True)
class SearchTrace:
    """Per-iteration record of the ordering search (row 0 is the start)."""

    rankings: np.ndarray  # (T+1, n) ordering-rankings
    kl_values: np.ndarray  # (T+1,)
    v_distances: np.ndarray  # (T+1,) footrule to nearest V-set member

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.kl_values))

    @property
    def best_ranking(self) -> np.ndarray:
        return self.rankings[self.best_index]

    @property
    def best_kl(self) -> float:
        return float(self.kl_values[self.best_index])


def iterative_search(
    data: RankingDataset | np.ndarray,
    alpha: float,
    init,
    max_iters: int,
    eval_mode: str = "exact",
    draws: int = 200,
    rng=None,
) -> SearchTrace:
    """Assignment-driven search over factorization orderings.

    Each iteration relocates every (item, rank) pair with a deterministic
    leap-and-shift move, scores the candidate ordering by marginal KL
    against the reference posterior profile, converts the score differences
    into edge weights, and adopts the permutation solving the induced
    minimum-cost matching. ``eval_mode`` is "exact" (n <= 5) or "sampled"
    (``draws`` samples per candidate, n <= 15). The trace records the KL and
    the footrule distance to the nearest member of the V-set of the mean-rank
    estimate at every iterate; the search can wander after finding a good
    ordering, so consumers should read the best-so-far entry rather than the
    last one.
    """
    check_alpha(alpha)
    check_count(max_iters, "max_iters", 0)
    check_count(draws, "draws", 1)
    cost_table = RankCountMatrix.from_dataset(data)
    n = cost_table.n_items
    caps = {"exact": EXACT_SEARCH_CAP, "sampled": SAMPLED_SEARCH_CAP}
    if eval_mode not in caps:
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    if n > caps[eval_mode]:
        raise CapacityError(f"{eval_mode} search requires n <= {caps[eval_mode]}")
    rng = np.random.default_rng(rng)
    incumbent = as_ranking(init).copy()
    reference = reference_profile(cost_table, alpha, rng)
    vset = v_set(estimate_rho_hat(cost_table))
    sample_draws = draws if eval_mode == "sampled" else None

    def evaluate(ranking) -> float:
        return ordering_kl(cost_table, alpha, ordering_of(ranking), reference, sample_draws, rng)

    rankings = [incumbent.copy()]
    kls = [evaluate(incumbent)]
    v_dists = [vset.nearest_distance(incumbent)]
    for _ in range(max_iters):
        base_kl = kls[-1]
        weights = np.zeros((n, n))
        cache: dict[tuple[int, ...], float] = {tuple(incumbent): base_kl}
        for item in range(1, n + 1):
            current = int(incumbent[item - 1])
            for rank in range(1, n + 1):
                if rank == current:
                    continue
                cand = ls_move(incumbent, item, rank)
                key = tuple(cand)
                kl = cache.get(key)
                if kl is None:
                    kl = evaluate(cand)
                    cache[key] = kl
                weights[item - 1, rank - 1] = kl - base_kl
        incumbent, _ = assignment_solve(weights)
        rankings.append(incumbent.copy())
        kls.append(evaluate(incumbent))
        v_dists.append(vset.nearest_distance(incumbent))
    return SearchTrace(
        np.array(rankings, dtype=np.int64),
        np.array(kls, dtype=np.float64),
        np.array(v_dists, dtype=np.int64),
    )


def choose_sigma(
    data: RankCountMatrix | RankingDataset | np.ndarray,
    alpha: float,
    sigma_grid,
    reference: MarginalProfile,
    n_samples: int = 500,
    rng=None,
) -> float:
    """Grid-select the ordering jitter: smallest marginal KL wins, ties go to
    the smaller sigma."""
    grid = [check_alpha(s, True, "sigma grid entry") for s in sigma_grid]
    if not grid:
        raise ValueError("sigma grid is empty")
    table = RankCountMatrix.from_dataset(data)
    rng = np.random.default_rng(rng)
    kls = []
    for sigma in grid:
        cfg = PseudoConfig(alpha, sigma, n_samples, seed=int(rng.integers(2**63)))
        kls.append(marginal_kl(MarginalProfile.from_samples(sample_rho(table, cfg)), reference))
    return min(zip(kls, grid))[1]


def default_sigma(data: RankCountMatrix | RankingDataset | np.ndarray, alpha: float, rng=None) -> float:
    """Jitter heuristic: 0 when the posterior is well determined (large alpha
    and many users), otherwise chosen from {0, 1, 2, 3} with 300 draws each
    against ``reference_profile``."""
    if not isinstance(data, (RankCountMatrix, RankingDataset)):
        data = RankingDataset(data)
    if alpha >= 2.0 and data.n_users >= 500:
        return 0.0
    table = RankCountMatrix.from_dataset(data)
    rng = np.random.default_rng(rng)
    reference = reference_profile(table, alpha, rng)
    return choose_sigma(table, alpha, (0.0, 1.0, 2.0, 3.0), reference, n_samples=300, rng=rng)
