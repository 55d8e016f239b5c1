"""Sequential conditional sampling of the consensus ranking.

The pseudo-Mallows distribution factorizes the consensus into n univariate
Mallows-like terms, sampled in a data-driven order: V-set orderings around
the rank of the per-item mean ranks, optionally jittered with Gaussian
noise. Draws are mutually independent, which is what buys the speed over
MCMC; per-draw work is O(n^2) and independent of the number of users after
the rank-cost table is built.

Every draw, here and in click augmentation, goes through one kernel,
``_sequential_draws``. Once per call it exponentiates a shared log-weight
table, lays out every step's items and draws all uniforms. Its tables are
rank-major, (n, T): one row per rank, one column per draw. Each step then
takes one table row per draw as a column, zeroes the taken ranks and inverts
the cumulative sum down each column. With many draws that sum is n - 1
vector adds of T draws each, the same float adds in the same order as
``np.cumsum``, so the layout leaves every seeded draw as it was. The last
step takes the one free rank left. Draws whose linear weights underflow are
redone in log space; the test for it runs only on tables wide enough to
underflow. Draws on wide tables (T and n both at least ``_COARSE_MIN``)
invert in two levels: a block of about sqrt(n) ranks from the blocks' free
masses, then the rank within it, so no step takes a cumulative sum over all
n ranks.
Click augmentation calls the kernel once per rank-block size, on the
top-left corner of its table, and takes the same rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import RankCountMatrix, RankingDataset, SampleSet, check_alpha, rankings_of
from .exact import EXACT_CAP, DiscreteDistribution, _check_cap
from .perms import (
    as_ranking, non_permutation_rows, permutation_matrix, perturbed_v_ranking, rank_of,
)

DEFAULT_ALPHA_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0)
_COARSE_MIN = 128  # smallest T and n at which _sequential_draws searches in two levels
_ROW_ADD_MIN = 224  # smallest T at which a single-level step sums its prefix row by row
_UNDERFLOW_SPAN = 600.0  # nats a table row must span before a free mass can fall below 1e-300


@dataclass(frozen=True)
class PseudoConfig:
    alpha: float
    sigma: float = 0.0
    n_samples: int = 1000
    seed: int | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _pick(w: np.ndarray, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first row whose cumulative weight ``cum`` exceeds ``u >= 0``.

    ``w`` and ``cum`` are rank-major, (m, T): one column per draw. That row's
    weight is positive, since ``cum`` rises there. Only a column whose ``u``
    is not below its total (a float edge) finds no such row; it takes the row
    of its last positive weight, so a zero weight is never taken.
    """
    m = w.shape[0]
    # an int8 count over the ranks runs about twice as fast as the default int64 one
    below = (cum <= u).view(np.int8)
    idx = below.sum(axis=0, dtype=np.int8 if m < 128 else np.intp).astype(np.intp)
    past = idx == m
    if past.any():
        idx[past] = m - 1 - np.argmax(w[::-1, past] > 0, axis=0)
    return idx


def _log_space(lw: np.ndarray, items: np.ndarray, free: np.ndarray):
    """Weights and cumulative weights of draws whose free linear mass
    underflowed, recomputed from the log weights relative to each draw's free
    maximum; one row per draw, as ``free`` has them."""
    lw_free = np.where(free, lw[items], -np.inf)
    lw_free -= lw_free.max(axis=1, keepdims=True)
    w = np.exp(lw_free)
    return w, np.cumsum(w, axis=1)


def _sequential_draws(log_weights: np.ndarray, orderings0: np.ndarray, rng) -> np.ndarray:
    """Draw rankings by sampling ranks without replacement, one item at a time.

    ``log_weights[i, r-1]`` is the log weight of rank ``r`` for item ``i``, in
    one table shared by every draw. ``orderings0`` holds one 0-based item
    sequence per draw.

    The work is in linear space: the table is exponentiated once, relative to
    each row's maximum, and each step multiplies the gathered weights by the
    free ranks and inverts their cumulative sum with one uniform per draw.
    Once per call, before the steps, the kernel lays the item sequences out
    as (n, T) steps and draws all n·T uniforms with one
    ``rng.random((n, T))``, the stream of n calls to ``rng.random(T)``.
    A draw whose free mass falls below 1e-300 is recomputed from the log
    weights relative to its free maximum, so the law does not depend on
    underflow. That test runs only when some table row spans at least
    ``_UNDERFLOW_SPAN`` nats: below that every linear weight is at least
    exp(-600), so no free mass can underflow.

    The gathered weights, the free-rank mask and the cumulative sums are
    rank-major (n, T) buffers, written in place at every step, so a step's
    prefix sum runs down the ranks as n - 1 vector adds over all T draws
    (``np.cumsum`` costs 5-8 ns per element along either axis; an add of two
    rows costs a call plus under 1 ns per element). The adds stay
    sequential, rank after rank, because that is the order in which
    ``np.cumsum`` adds: every prefix is the same float, so seeded draws are
    byte-identical to a row-major cumsum's, where a pairwise sum would move
    draws whose uniform sits within rounding of a boundary. Below
    ``_ROW_ADD_MIN`` draws the calls cost more than they save and the step
    takes ``np.add.accumulate`` (``np.cumsum``) down the same columns. With
    the kernel forced to each branch (medians of 7 alternating runs, n = 8,
    16, 20 and 40), the adds take 0.9-1.2x the cumsum's time at T=64-192,
    1.0x at T=224, 0.76-0.94x at T=256 and 0.69-0.83x at T=512. The last
    step takes its one free rank, the ranks' sum less the taken ones; its
    uniform is still drawn.

    When both T and n are at least ``_COARSE_MIN``, each step inverts the
    cumulative sum in two levels (see ``_two_level_draws``). Below that the
    extra calls per step cost more than the narrower sums save: two levels
    take 1.04x as long at n = T = 128, 1.1-1.7x with n or T at 64, and 0.55x
    at n=200, T=1000 (2-vCPU Intel Xeon host, numpy 2.4.6, as for every
    figure here).
    """
    T, n = orderings0.shape
    lw = np.asarray(log_weights)
    lin = np.exp(lw - lw.max(axis=1, keepdims=True))
    if min(T, n) >= _COARSE_MIN:
        return _two_level_draws(lw, lin, orderings0, rng)
    cols = np.arange(T)
    steps = np.ascontiguousarray(orderings0.T)  # (n, T): the items of step k in row k
    lin_t = np.ascontiguousarray(lin.T)  # (ranks, items): a step gathers columns
    may_underflow = not (np.ptp(lw, axis=1) < _UNDERFLOW_SPAN).all()
    u01 = rng.random((n, T))
    free = np.ones((n, T))  # 1.0 where the draw's rank is still free
    w = np.empty((n, T))
    cum = np.empty((n, T))
    taken = np.empty((n, T), dtype=np.int64)
    last = cum[-1]  # each draw's free mass, once the step's prefix sum is in
    row_adds = list(zip(cum[:-1], w[1:], cum[1:])) if T >= _ROW_ADD_MIN else None
    for k, items in enumerate(steps[:-1]):
        np.take(lin_t, items, axis=1, out=w, mode="clip")  # mode="raise" would buffer ``out``
        w *= free
        if row_adds is None:
            np.add.accumulate(w, 0, None, cum)  # np.cumsum(w, axis=0) without its wrappers
        else:  # np.cumsum's adds, in its order, one row of T draws at a time
            cum[0] = w[0]
            for before, weight, out_row in row_adds:
                np.add(before, weight, out_row)
        if may_underflow and last.min(initial=np.inf) < 1e-300:
            low = last < 1e-300  # underflow: renormalize these draws in log space
            w_low, cum_low = _log_space(lw, items[low], free[:, low].T > 0)
            w[:, low], cum[:, low] = w_low.T, cum_low.T
        chosen = _pick(w, cum, u01[k] * last)
        taken[k] = chosen
        free[chosen, cols] = 0.0
    # the last step takes the one free rank, the ranks' sum less the taken ones;
    # its uniform was drawn with the others but decides nothing
    taken[-1] = n * (n - 1) // 2 - taken[:-1].sum(axis=0)
    out = np.empty((T, n), dtype=np.int64)
    out.reshape(-1)[steps + cols * n] = taken + 1
    return out


def _two_level_draws(lw, lin, orderings0, rng) -> np.ndarray:
    """``_sequential_draws`` with a two-level rank search at each step.

    The ranks are cut into B blocks of s = ceil(sqrt(n)) (the last one padded
    with zero-weight columns). One fused product-sum gives each draw's free
    mass per block; the block is picked by inverting the cumulative sum of
    the B block masses, the mass of the blocks before it is taken off the
    uniform, and the rank is picked by inverting the cumulative sum of the
    block's s weights. Each level moves a uniform that lands past the last
    positive weight back onto it. The law is that of the single-level
    search; only the order of the float sums differs, so a seeded draw can
    change only where its uniform sits within rounding of a boundary.

    Free ranks are a float table. The gathered rows, the free table and the
    block masses are allocated once per call and written in place at every
    step. These tables stay row-major, (T, B) and (T, s), and ``_pick`` reads
    their transposed views.
    """
    T, n = orderings0.shape
    s = math.isqrt(n - 1) + 1
    B = -(-n // s)
    lin_pad = np.zeros((lin.shape[0], B * s))
    lin_pad[:, :n] = lin
    avail = np.zeros((T, B * s))
    avail[:, :n] = 1.0
    g = np.empty((T, B * s))
    mass = np.empty((T, B))
    g3, avail3 = g.reshape(T, B, s), avail.reshape(T, B, s)
    g2, avail2 = g.reshape(T * B, s), avail.reshape(T * B, s)  # one row per (draw, block)
    out = np.zeros((T, n), dtype=np.int64)
    rows = np.arange(T)
    for k in range(n):
        items = orderings0[:, k]
        np.take(lin_pad, items, axis=0, out=g, mode="clip")
        np.einsum("tbs,tbs->tb", g3, avail3, out=mass)
        cum = np.cumsum(mass, axis=1)
        u01 = rng.random(T)
        u = u01 * cum[:, -1]
        b = _pick(mass.T, cum.T, u)
        u -= np.where(b > 0, cum[rows, b - 1], 0.0)
        at = rows * B + b
        w = np.take(g2, at, axis=0) * np.take(avail2, at, axis=0)
        chosen = b * s + _pick(w.T, np.cumsum(w, axis=1).T, u)
        low = cum[:, -1] < 1e-300
        if low.any():  # underflow: redo these rows in log space over the full row
            w, cum = _log_space(lw, items[low], avail[low, :n] > 0)
            chosen[low] = _pick(w.T, cum.T, u01[low] * cum[:, -1])
        out[rows, items] = chosen + 1
        avail[rows, chosen] = 0.0
    return out


def _cost_table(data) -> np.ndarray:
    if isinstance(data, RankCountMatrix):
        return data.cost
    return RankCountMatrix(rankings_of(data)).cost


def sample_rho_given_ordering(data, alpha: float, ordering, rng, size: int | None = None):
    """Sample consensus rankings with a fixed factorization ordering.

    ``ordering[m-1]`` names the item sampled at step m. With ``size=None`` a
    single ranking is returned; otherwise an (size, n) array of independent
    draws.
    """
    t = 1 if size is None else int(size)
    orderings = np.broadcast_to(ordering, (t, np.size(ordering)))
    draws = sample_rho_with_orderings(data, alpha, orderings, rng)
    return draws[0] if size is None else draws


def sample_rho_with_orderings(data, alpha: float, orderings, rng) -> np.ndarray:
    """Sample one consensus ranking per row of ``orderings``, each a permutation of 1..n."""
    check_alpha(alpha)
    cost = _cost_table(data)
    n = cost.shape[0]
    o = np.asarray(orderings)
    if o.ndim != 2 or o.shape[1] != n:
        raise ValueError("orderings must be (T, n)")
    bad = np.flatnonzero(non_permutation_rows(o))
    if bad.size:
        raise ValueError(f"ordering row {bad[0]} is not a permutation of 1..{n}")
    return _sequential_draws(-(alpha / n) * cost, o.astype(np.int64, copy=False) - 1, rng)


def _pm_log_components(data, alpha: float, ordering):
    """Per-permutation log probability and log normalizer of the factorization
    of ``data`` (a RankCountMatrix or rankings) at a 1-based ``ordering``.

    Returns (perms, log_q, log_zpm, neg_log_target) over all of P_n in
    lexicographic order, where neg_log_target(rho) = (alpha/n) * sum_j d(R^j, rho).
    """
    alpha = check_alpha(alpha, allow_zero=True)
    cost = _cost_table(data)
    n = cost.shape[0]
    _check_cap(n, EXACT_CAP)
    ordering0 = as_ranking(ordering, "ordering") - 1
    if ordering0.size != n:
        raise ValueError("ordering length does not match the data")
    perms = permutation_matrix(n)
    m = len(perms)
    scale = alpha / n
    log_e = -scale * cost  # (n_items, n_ranks)
    a_term = scale * cost[np.arange(n)[None, :], perms - 1].sum(axis=1)
    remaining = np.ones((m, n), dtype=bool)
    log_zpm = np.zeros(m)
    with np.errstate(divide="ignore"):
        for k in range(n):
            i = int(ordering0[k])
            row = log_e[i]
            shift = row.max()
            weights = np.exp(row - shift)
            den = remaining @ weights
            log_zpm += shift + np.log(den)
            remaining[np.arange(m), perms[:, i] - 1] = False
    log_q = -a_term - log_zpm
    return perms, log_q, log_zpm, a_term


def exact_distribution(data, alpha: float, ordering) -> DiscreteDistribution:
    """The full factorized distribution over P_n for a fixed ordering (n <= 8).

    Each permutation's probability is the product of its n sequential factor
    probabilities; equivalently the Mallows numerator divided by the product
    of per-step denominators.
    """
    perms, log_q, _, _ = _pm_log_components(data, alpha, ordering)
    probs = np.exp(log_q - logsumexp(log_q))
    return DiscreteDistribution(perms, probs)


def estimate_rho_hat(data: RankingDataset) -> np.ndarray:
    """Rank of the per-item mean ranks (ties broken by item index).

    The column sums are ranked: they order the items as the means do, exactly,
    and with no users they tie everywhere, giving the identity ranking.
    """
    return rank_of(data.rankings.sum(axis=0))


def sample_rho(data: RankingDataset, cfg: PseudoConfig) -> SampleSet:
    """Draw independent consensus samples with V-set orderings.

    For each draw a V-set member of the estimated central ranking is drawn,
    jittered entrywise with Gaussian noise of scale ``cfg.sigma``, re-ranked,
    and used as the factorization ordering.
    """
    rng = np.random.default_rng(cfg.seed)
    rho_hat = estimate_rho_hat(data)
    n = data.n_items
    t = cfg.n_samples
    cost = RankCountMatrix.from_dataset(data).cost
    start = time.perf_counter()
    v_rows = perturbed_v_ranking(rho_hat, cfg.sigma, rng, t)
    orderings0 = np.argsort(v_rows, axis=1, kind="stable")
    draws = _sequential_draws(-(cfg.alpha / n) * cost, orderings0, rng)
    wall = time.perf_counter() - start
    return SampleSet(draws, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall)


def mean_pairwise_similarity(vectors) -> float:
    """Mean cosine similarity over all ordered pairs of distinct rows.

    All-zero rows carry no direction and are left out of both the sum and the
    pair count. With unit rows u_j, the sum over pairs is |sum_j u_j|^2 - N,
    so the cost is O(N * n) without an N x N Gram matrix.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1)
    keep = norms > 0
    n_users = int(keep.sum())
    if n_users < 2:
        raise ValueError("need at least two users with nonzero rows")
    total = (arr[keep] / norms[keep, None]).sum(axis=0)
    return float((total @ total - n_users) / (n_users * (n_users - 1)))


def match_alpha_grid(alpha_grid, observed: float, simulate) -> float:
    """The grid alpha whose simulated statistic is closest to ``observed``.

    ``simulate(alpha)`` returns the statistic of one simulated dataset; it is
    called once per grid value, in ascending order. The grid must be
    nonempty and strictly ascending.
    """
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly ascending")
    gaps = [abs(simulate(a) - observed) for a in grid]
    return grid[int(np.argmin(gaps))]


def estimate_alpha_full(
    data: RankingDataset,
    alpha_grid=DEFAULT_ALPHA_GRID,
    sim_users: int = 300,
    rng=None,
) -> float:
    """Pick the grid alpha whose simulated mean pairwise cosine similarity is
    closest to the dataset's.

    One Mallows dataset of ``sim_users`` rankings centered at the identity is
    simulated per grid value; the similarity statistic is monotone in alpha,
    which makes the matching well posed.
    """
    rng = np.random.default_rng(rng)
    observed = mean_pairwise_similarity(data.rankings)
    from .simulate import sample_mallows

    rho0 = np.arange(1, data.n_items + 1)
    return match_alpha_grid(
        alpha_grid,
        observed,
        lambda a: mean_pairwise_similarity(sample_mallows(rho0, a, sim_users, rng)),
    )
