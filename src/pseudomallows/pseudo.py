"""Sequential conditional sampling of the consensus and of click users' rankings.

The pseudo-Mallows distribution factorizes the consensus into n univariate
Mallows-like terms, sampled in a data-driven order: V-set orderings around
the rank of the per-item mean ranks, optionally jittered with Gaussian
noise. Draws are mutually independent, which is what buys the speed over
MCMC; per-draw work is O(n^2) and independent of the number of users after
the rank-cost table is built, once per dataset. One core, ``_consensus_draws``,
draws the consensus for both kinds of data, from a cost table and its rank
sums: ``sample_rho`` calls it on the ``RankCountMatrix`` a dataset keeps,
checked and built once, and each click-loop iteration on the table of its
augmented rankings, which the loop made itself and does not check again.

The click loop, ``pseudo_clicking``, draws all user rankings given the
current consensus, then one consensus sample given the augmented rankings,
and repeats. Clicked items are assumed ranked above unclicked ones, so a
user's ranking is a sequential draw around the consensus in which every
item is confined to its own rank block: clicked items to 1..c, unclicked
items to c+1..n. An item's weight exp(-(alpha/n) |target - r|) depends only
on its distance from the target, and a block's targets are its own ranks in
a uniform item order, so each block is a draw from a law on the
permutations of its m ranks that depends on m and alpha alone, relabelled
by the targets. The loop draws the blocks of a chunk of iterations up
front, one kernel call per block size. The click tables the targets need
are built once per call (``data.click_target_cells``), so each iteration's
consensus step is one product for the target cells, one take to relabel,
one ``rank_counts`` count, one product for the cost table and rank sums
(``rank_cost``), one stable argsort for the V-set order, and one draw.

Every draw, consensus or user ranking, goes through one kernel,
``_sequential_draws``, on rank-major (n, T) tables built once per call;
each step's cumulative sums go through ``_prefix_sum``, draws whose linear
weights underflow are redone in log space (a step where every draw does,
in place), a linear table that holds a subnormal weight is scaled by 2**60
so that no step computes on subnormals, wide tables take two levels
(``_two_level_draws``), and a single draw, as each consensus step makes,
takes Python floats (``_one_draw``). Click augmentation calls the kernel
once per rank-block size, on the top-left corner of its table. The
consensus table's alpha/n is capped where its draws stop moving
(``_consensus_log_weights``).

The factorized law at a fixed ordering, computed by enumerating P_n, lives
with the other exact oracles in ``exact``.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .data import (
    CheckedRows, RankCountMatrix, RankingDataset, SampleSet, click_frequency_ranking, click_target_cells, clicks_of,
    rank_cost, rank_counts, rankings_of,
)
from .perms import VSet, as_ranking, check_alpha, check_count, mallows_scale, non_permutation_rows, rank_of
from .simulate import sample_mallows

DEFAULT_ALPHA_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0)
_COARSE_MIN = 128  # smallest T and n at which _sequential_draws searches in two levels
_ROW_ADD_MIN = 224  # smallest T at which a single-level step sums its prefix row by row
# nats a table row must span before a free mass can fall below 1e-300; a subnormal
# weight, below 2**-1022 = exp(-708.4), needs more still
_UNDERFLOW_SPAN = 600.0
_SUBNORMAL_SCALE = 2.0**60  # the vector routes' weight scale when the linear table holds a subnormal


@dataclass(frozen=True)
class PseudoConfig:
    alpha: float
    sigma: float = 0.0
    n_samples: int = 1000
    seed: int | np.random.Generator | None = None  # anything np.random.default_rng accepts

    def __post_init__(self):
        check_alpha(self.alpha)
        check_alpha(self.sigma, True, "sigma")
        check_count(self.n_samples, "n_samples", 1)


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


def _prefix_sum(w: np.ndarray, cum: np.ndarray):
    """A function that writes the cumulative sum of the rank-major (m, T)
    buffer ``w`` down its columns into ``cum``, the prefix rule of every step.

    From ``_ROW_ADD_MIN`` draws on, that is m - 1 row adds over all T draws,
    their row triples built here once (``np.cumsum`` costs 5-8 ns per element
    along either axis; an add of two rows, a call plus under 1 ns per
    element). The adds run rank after rank, the order of ``np.cumsum``, so
    every prefix is the same float as a row-major cumsum's, where a pairwise
    sum would move draws whose uniform sits within rounding of a boundary.
    Below that the calls cost more than they save, and one
    ``np.add.accumulate`` (``np.cumsum`` without its wrappers) runs down the
    columns. With the single-level kernel forced to each (medians of 7
    alternating runs, n = 8, 16, 20 and 40), the adds take 0.9-1.2x the
    cumsum's time at T=64-192, 1.0x at T=224, 0.76-0.94x at T=256 and
    0.69-0.83x at T=512.
    """
    if w.shape[1] < _ROW_ADD_MIN:
        return lambda: np.add.accumulate(w, 0, None, cum)
    row_adds = list(zip(cum[:-1], w[1:], cum[1:]))

    def add_rows():
        cum[0] = w[0]
        for before, weight, out_row in row_adds:
            np.add(before, weight, out_row)

    return add_rows


def _log_space(lw: np.ndarray, items: np.ndarray, free: np.ndarray):
    """Weights and cumulative weights of draws whose free linear mass
    underflowed, recomputed from the log weights relative to each draw's free
    maximum; one row per draw, as ``free`` has them."""
    lw_free = np.where(free, lw[items], -np.inf)
    lw_free -= lw_free.max(axis=1, keepdims=True)
    w = np.exp(lw_free)
    return w, np.cumsum(w, axis=1)


def _log_space_step(lw_t: np.ndarray, items: np.ndarray, free: np.ndarray, w: np.ndarray):
    """``_log_space`` of every draw of a single-level step, written in place
    into the rank-major (n, T) ``w`` from the rank-major log weights ``lw_t``:
    take, set the taken ranks to -inf, subtract each column's maximum,
    exponentiate. The weights are ``_log_space``'s floats, and the caller's
    ``_prefix_sum`` gives its cumulative sums, without its row-major gathers,
    transposes and column writes."""
    np.take(lw_t, items, axis=1, out=w, mode="clip")
    np.copyto(w, -np.inf, where=free == 0)
    w -= w.max(axis=0)
    np.exp(w, out=w)


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
    exp(-600), so no free mass can underflow. When every draw of a step
    underflows, as on concentrated posteriors once each row's top ranks are
    taken, the step is redone in place in the rank-major buffers
    (``_log_space_step``); when only some do, those draws are redone alone
    (``_log_space``).

    Subnormal operands (below 2**-1022) slow the float arithmetic about
    twofold, so when the linear table holds one, the vector routes hold it
    times ``_SUBNORMAL_SCALE`` = 2**60 and test underflow against
    1e-300 * 2**60. The draws stay exact: a product by 0/1 or by a power of
    two is exact; a sum or difference whose result is subnormal is exact,
    and one whose result is normal rounds on a grid that scales with it;
    so every scaled sum is 2**60 times the unscaled one. Each step's target
    is formed in the unscaled domain, u01 * (last * 2**-60) * 2**60, so
    every comparison is the unscaled one (a log-space redo's free mass is at
    least 1, where the same holds). Tables with no subnormal are not scaled
    and take no added per-step work.

    The gathered weights, the free-rank mask and the cumulative sums are
    rank-major (n, T) buffers, written in place at every step; a step's
    prefix sum runs down the ranks (``_prefix_sum``). The last step takes its
    one free rank, the ranks' sum less the taken ones; its uniform is drawn.

    When both T and n are at least ``_COARSE_MIN``, each step inverts the
    cumulative sum in two levels (see ``_two_level_draws``). Below that the
    extra calls per step cost about what the narrower sums save: two levels
    take 0.97-1.07x as long with n or T at 64, against 0.75x at n = T = 128
    and 0.6x at n=200, T=1000 (medians of 9 alternating calls on cost tables
    of 500 Mallows users; 2-vCPU Intel Xeon host, numpy 2.4.6, as for every
    figure here).

    A call of one draw (T == 1), such as each consensus step of the click
    loop, takes ``_one_draw``: the same arithmetic in Python floats on the
    unscaled table, with byte-identical draws and generator state. At n=20
    it takes about 35 us, where these vector steps took 210-300 us
    (``timeit`` minimum of 5x400 calls on an n=20, N=200 table).
    """
    T, n = orderings0.shape
    lw = np.asarray(log_weights)
    lin = np.exp(lw - lw.max(axis=1, keepdims=True))
    two_level = min(T, n) >= _COARSE_MIN
    if T == 1 and not two_level:
        return _one_draw(lw, lin, orderings0[0], rng)
    may_underflow = not (np.ptp(lw, axis=1) < _UNDERFLOW_SPAN).all()
    scale = 1.0
    if may_underflow and ((lin > 0) & (lin < 2.0**-1022)).any():
        scale = _SUBNORMAL_SCALE
        lin = lin * scale
    if two_level:
        return _two_level_draws(lw, lin, orderings0, rng, scale)
    tiny = 1e-300 * scale
    cols = np.arange(T)
    steps = np.ascontiguousarray(orderings0.T)  # (n, T): the items of step k in row k
    lin_t = np.ascontiguousarray(lin.T)  # (ranks, items): a step gathers columns
    lw_t = np.ascontiguousarray(lw.T) if may_underflow else None
    u01 = rng.random((n, T))
    free = np.ones((n, T))  # 1.0 where the draw's rank is still free
    w = np.empty((n, T))
    cum = np.empty((n, T))
    taken = np.empty((n, T), dtype=np.int64)
    last = cum[-1]  # each draw's free mass, once the step's prefix sum is in
    prefix_sum = _prefix_sum(w, cum)
    for k, items in enumerate(steps[:-1]):
        np.take(lin_t, items, axis=1, out=w, mode="clip")  # mode="raise" would buffer ``out``
        w *= free
        prefix_sum()
        if may_underflow and last.min(initial=np.inf) < tiny:
            low = last < tiny  # underflow: renormalize these draws in log space
            if low.all():
                _log_space_step(lw_t, items, free, w)
                prefix_sum()
            else:
                w_low, cum_low = _log_space(lw, items[low], free[:, low].T > 0)
                w[:, low], cum[:, low] = w_low.T, cum_low.T
        u = u01[k] * last if scale == 1.0 else u01[k] * (last * (1 / scale)) * scale
        chosen = _pick(w, cum, u)
        taken[k] = chosen
        free[chosen, cols] = 0.0
    # the last step takes the one free rank, the ranks' sum less the taken ones;
    # its uniform was drawn with the others but decides nothing
    taken[-1] = n * (n - 1) // 2 - taken[:-1].sum(axis=0)
    out = np.empty((T, n), dtype=np.int64)
    out.reshape(-1)[steps + cols * n] = taken + 1
    return out


def _one_draw(lw: np.ndarray, lin: np.ndarray, items0: np.ndarray, rng) -> np.ndarray:
    """``_sequential_draws`` of a single draw, step by step in Python floats.
    Its uniforms come from the same ``rng.random((n, 1))``. A step gathers
    the weights of the free ranks, kept in ascending order, with one
    ``itemgetter``; a taken rank would add +0.0, which leaves a prefix as it
    was, so every prefix is the vector path's float. On that non-decreasing
    list ``bisect_right`` counts the prefixes at or below the uniform, and at
    the float edge the last free rank of positive weight is taken, both as
    ``_pick`` does; a step whose free mass falls below 1e-300 is redone on
    (1, n) arrays by ``_log_space`` and ``_pick`` themselves. So the draws and
    the generator's state after them are byte-identical to the vector path's."""
    n = items0.size
    u01 = rng.random((n, 1))[:, 0].tolist()
    rows = lin.tolist()
    items = items0.tolist()
    free = list(range(n))  # the free ranks, ascending
    ranks = [0] * n
    for k, item in enumerate(items[:-1]):
        row = rows[item]
        cum = list(accumulate(itemgetter(*free)(row)))  # two or more free ranks: a tuple
        if cum[-1] < 1e-300:  # underflow: this step in log space, as the vector path takes it
            mask = np.zeros((1, n), dtype=bool)
            mask[0, free] = True
            w, c = _log_space(lw, items0[k : k + 1], mask)
            j = free.index(int(_pick(w.T, c.T, u01[k] * c[:, -1])[0]))
        else:
            j = bisect_right(cum, u01[k] * cum[-1])
            if j == len(free):  # the uniform at the total, taken as ``_pick`` takes it
                j = max(i for i, r in enumerate(free) if row[r] > 0)
        ranks[item] = free.pop(j) + 1
    ranks[items[-1]] = free[0] + 1
    return np.array([ranks], dtype=np.int64)


def _two_level_draws(lw, lin, orderings0, rng, scale: float) -> np.ndarray:
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
    ``lin`` is the linear table times ``scale``, 2**60 when it holds a
    subnormal, else 1 (see ``_sequential_draws``); the uniform's target is
    formed in the unscaled domain, and the difference taken off it at the
    block level is 2**60 times the unscaled one, so every comparison is the
    unscaled one.

    Free ranks are a float table, and every buffer is allocated once per
    call and written in place. The block masses and the chosen block's
    weights are written rank-major, (B, T) and (s, T), through transposed
    views, so their sums go through ``_prefix_sum`` and their picks read
    contiguous rows; the cumulative masses sit under a zero row, so row b is
    the mass before block b. At n=200, T=1000 each sum then takes about 12
    us a step and each pick 11 us, against 50 and 33 us over row-major
    (T, B) and (T, s) tables; the row take (60 us) and the einsum (120 us
    with no subnormal operand) are most of a step (``timeit`` minima, same
    host). Subnormal operands slow the einsum: with 2% of them a
    (1000, 14, 15) einsum took 1.8-1.9x as long, which is why a table
    holding one is scaled.
    """
    T, n = orderings0.shape
    s = math.isqrt(n - 1) + 1
    B = -(-n // s)
    lin_pad = np.zeros((lin.shape[0], B * s))
    lin_pad[:, :n] = lin
    avail = np.zeros((T, B * s))
    avail[:, :n] = 1.0
    g = np.empty((T, B * s))
    g3, avail3 = g.reshape(T, B, s), avail.reshape(T, B, s)
    g2, avail2 = g.reshape(T * B, s), avail.reshape(T * B, s)  # one row per (draw, block)
    mass = np.empty((B, T))
    cum = np.zeros((B + 1, T))  # row b: the mass of the blocks before block b
    w, w_cum = np.empty((s, T)), np.empty((s, T))
    mass_sum, w_sum = _prefix_sum(mass, cum[1:]), _prefix_sum(w, w_cum)
    out = np.zeros((T, n), dtype=np.int64)
    rows = np.arange(T)
    tiny = 1e-300 * scale
    for k in range(n):
        items = orderings0[:, k]
        np.take(lin_pad, items, axis=0, out=g, mode="clip")
        np.einsum("tbs,tbs->tb", g3, avail3, out=mass.T)
        mass_sum()
        u01 = rng.random(T)
        u = u01 * cum[-1] if scale == 1.0 else u01 * (cum[-1] * (1 / scale)) * scale
        b = _pick(mass, cum[1:], u)
        u -= cum[b, rows]
        at = rows * B + b
        np.multiply(np.take(g2, at, axis=0), np.take(avail2, at, axis=0), out=w.T)
        w_sum()
        chosen = b * s + _pick(w, w_cum, u)
        low = cum[-1] < tiny
        if low.any():  # underflow: redo these rows in log space over the full row
            w_low, cum_low = _log_space(lw, items[low], avail[low, :n] > 0)
            chosen[low] = _pick(w_low.T, cum_low.T, u01[low] * cum_low[:, -1])
        out[rows, items] = chosen + 1
        avail[rows, chosen] = 0.0
    return out


def sample_rho_with_orderings(data, alpha: float, orderings, rng) -> np.ndarray:
    """Sample one consensus ranking per row of ``orderings``, each a permutation of 1..n."""
    check_alpha(alpha)
    cost = RankCountMatrix.from_dataset(data).cost
    n = cost.shape[0]
    o = np.asarray(orderings)
    if o.ndim != 2 or o.shape[1] != n:
        raise ValueError("orderings must be (T, n)")
    bad = np.flatnonzero(non_permutation_rows(o))
    if bad.size:
        raise ValueError(f"ordering row {bad[0]} is not a permutation of 1..{n}")
    return _sequential_draws(_consensus_log_weights(cost, alpha), o.astype(np.int64, copy=False) - 1, rng)


def estimate_rho_hat(data: RankCountMatrix | RankingDataset | np.ndarray) -> np.ndarray:
    """Rank of the per-item mean ranks (ties broken by item index).

    The column sums (the table's ``rank_sums``) are ranked: they order the
    items as the means do, exactly, and with no users they tie everywhere,
    giving the identity ranking.
    """
    return rank_of(RankCountMatrix.from_dataset(data).rank_sums)


def _consensus_log_weights(cost: np.ndarray, alpha: float) -> np.ndarray:
    """The consensus log-weight table -(alpha/n) cost of an (n, n) L1 cost
    table, alpha/n capped by ``perms.mallows_scale``: past the cap every
    weight not tied for its row's (or a draw's free) top is 0 in float64, in
    the linear and log-space tables alike, so the draws no longer move, and
    a larger alpha would overflow the table to -inf and its weights to NaN."""
    return -mallows_scale(alpha, cost.shape[0]) * cost


def _consensus_draws(cost: np.ndarray, rank_sums: np.ndarray, alpha: float, sigma: float, size: int, rng):
    """``size`` consensus draws from an (n, n) L1 ``cost`` table at scale
    ``alpha``, each in its own V-set ordering of the rank of ``rank_sums``
    (``estimate_rho_hat``), jittered with scale ``sigma``. The V-set is built
    from that rank, which needs no check. The generator draws the V-set
    coins, then the jitter when ``sigma > 0``, then the kernel's uniforms.
    The orderings come from the coins with no sort (``VSet.orderings0``)."""
    orderings0 = VSet.of_scores(rank_sums).orderings0(sigma, rng, size)
    return _sequential_draws(_consensus_log_weights(cost, alpha), orderings0, rng)


def sample_rho(data: RankCountMatrix | RankingDataset | np.ndarray, cfg: PseudoConfig) -> SampleSet:
    """Draw independent consensus samples with V-set orderings.

    For each draw a V-set member of ``estimate_rho_hat`` is drawn, jittered
    entrywise with Gaussian noise of scale ``cfg.sigma``, re-ranked, and used
    as the factorization ordering (``_consensus_draws``, which the click loop
    shares). A Generator as ``cfg.seed`` is continued.
    """
    rng = np.random.default_rng(cfg.seed)
    table = RankCountMatrix.from_dataset(data)
    start = time.perf_counter()
    draws = _consensus_draws(table.cost, table.rank_sums, cfg.alpha, cfg.sigma, cfg.n_samples, rng)
    wall = time.perf_counter() - start
    return SampleSet(draws, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall)


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
    return drawn.take(click_target_cells(b)(rho))


def pseudo_clicking(clicks, cfg: PseudoConfig, warmup: int = 10):
    """Alternating sampler for click data.

    Starts the consensus at the descending click-frequency ranking, then per
    iteration (i) samples every user's ranking given the current consensus
    and (ii) draws one consensus sample treating the augmented rankings as
    complete data: one draw of ``_consensus_draws``, the core ``sample_rho``
    shares, from one ``rank_counts`` table of them and its ``rank_cost``,
    continuing the loop's generator. The first ``warmup`` iterations are
    discarded. The clicks are read once per call, into the tables of
    ``click_target_cells``; block draws come a chunk of warm-up or kept
    iterations at a time (``_CHUNK_CELLS`` user ranks, at least one), and
    each iteration relabels its users' blocks by one flat take at their
    target cells.
    Returns the consensus SampleSet and the (n_samples, N, n) user-ranking
    draws. ``clicks`` is a ClickDataset or anything ClickDataset accepts.
    """
    check_count(warmup, "warmup", 0)
    b = clicks_of(clicks)
    n_users, n = b.shape
    rng = np.random.default_rng(cfg.seed)
    rho = click_frequency_ranking(b)
    target_cells = click_target_cells(b)
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
            R[:] = R.take(target_cells(rho))
            cost, rank_sums = rank_cost(rank_counts(R.view(CheckedRows)))
            rho = _consensus_draws(cost, rank_sums, cfg.alpha, cfg.sigma, 1, rng)[0]
            if t >= warmup:
                rho_keep[t - warmup] = rho
    wall = time.perf_counter() - start
    return SampleSet(rho_keep, alpha=cfg.alpha, sigma=cfg.sigma, seed=cfg.seed, wall_clock=wall), user_keep


def mean_pairwise_similarity(vectors) -> float:
    """Mean cosine similarity over all ordered pairs of distinct rows.

    All-zero rows carry no direction and are left out of both the sum and the
    pair count. With unit rows u_j, the sum over pairs is |sum_j u_j|^2 - N,
    so the cost is O(N * n) without an N x N Gram matrix.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("similarity input must be finite")
    norms = np.linalg.norm(arr, axis=1)
    keep = norms > 0
    n_users = int(keep.sum())
    if n_users < 2:
        raise ValueError("need at least two users with nonzero rows")
    total = (arr[keep] / norms[keep, None]).sum(axis=0)
    return float((total @ total - n_users) / (n_users * (n_users - 1)))


def check_alpha_grid(alpha_grid) -> tuple[float, ...]:
    """``alpha_grid`` as a tuple of alphas that is nonempty and strictly ascending."""
    grid = tuple(check_alpha(a, name="alpha grid entry") for a in alpha_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"alpha grid must be nonempty and strictly ascending, got {grid}")
    return grid


def match_alpha_grid(alpha_grid, observed: float, simulate) -> float:
    """The grid alpha whose simulated statistic is closest to ``observed``.

    ``simulate(alpha)`` returns the statistic of one simulated dataset; it is
    called once per grid value, in ascending order. The grid must be
    nonempty and strictly ascending.
    """
    grid = check_alpha_grid(alpha_grid)
    gaps = [abs(simulate(a) - observed) for a in grid]
    return grid[int(np.argmin(gaps))]


def estimate_alpha_full(
    data: RankingDataset | np.ndarray,
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
    check_count(sim_users, "sim_users", 2)
    rng = np.random.default_rng(rng)
    rankings = rankings_of(data)
    observed = mean_pairwise_similarity(rankings)
    rho0 = np.arange(1, rankings.shape[1] + 1)
    return match_alpha_grid(
        alpha_grid,
        observed,
        lambda a: mean_pairwise_similarity(sample_mallows(rho0, a, sim_users, rng)),
    )
