"""Metropolis-Hastings baselines for the Mallows posterior.

``mcmc_rho`` targets the consensus posterior given complete rankings;
``mcmc_clicking`` alternates per-user augmentation updates (within-group rank
swaps) with consensus updates for click data. Both are the comparison arm in
the timing and accuracy experiments. ``mcmc_clicking`` starts from
``clicking.click_frequency_ranking``, as the pseudo-Mallows loop does, and
finds each user's groups in one table made once: the stable argsort of the
unclick bits, which lists a user's clicked items, then the unclicked ones.

Every consensus update is one leap-and-shift move, written once here: a
destination drawn within the leap window (``_leap_target``), the log window
sizes that give its proposal ratio (``_log_windows``), and an in-place shift
of the item -> rank and rank -> item state (``_shift``). Both chains,
``leap_and_shift_propose`` and the deterministic ``ls_move`` share them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .clicking import click_frequency_ranking
from .data import RankCountMatrix, RankingDataset, check_alpha, clicks_of
from .perms import as_ranking, rank_of

_BLOCK = 1 << 15  # pre-drawn randomness block size for the hot loops


@dataclass(frozen=True)
class McmcConfig:
    iterations: int
    leap_size: int | None = None  # default max(1, n // 10), resolved at run time
    thin: int = 1
    burn_in: int = 0
    seed: int | np.random.Generator | None = None  # anything np.random.default_rng accepts

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.leap_size is not None and self.leap_size < 1:
            raise ValueError("leap_size must be positive")

    def resolved_leap(self, n: int) -> int:
        leap = self.leap_size if self.leap_size is not None else max(1, n // 10)
        if leap > max(1, (n - 1) // 2):
            raise ValueError(f"leap_size {leap} exceeds max(1, (n-1)//2) for n={n}")
        return leap


@dataclass(frozen=True)
class McmcTrace:
    rho_samples: np.ndarray  # (T, n)
    acceptance_rate: float
    wall_clock: float

    @property
    def n_samples(self) -> int:
        return self.rho_samples.shape[0]


def _leap_target(q: int, du: float, leap: int, n: int) -> int:
    """The destination of a leap from rank ``q``: ``du`` in [0, 1) picks it
    uniformly among the ranks within ``leap`` of ``q`` in [1, n], ``q`` excluded."""
    lo = q - leap if q > leap else 1
    hi = q + leap if q + leap < n else n
    r = lo + int(du * (hi - lo))
    return r + 1 if r >= q else r


def _log_windows(n: int, leap: int) -> list[float]:
    """``out[p]`` is the log of the number of destinations of a leap from rank
    ``p`` (``out[0]`` is unused); a move q -> r with |r - q| > 1 has log
    proposal ratio ``out[q] - out[r]``."""
    return [0.0] + [math.log(min(n, p + leap) - max(1, p - leap)) for p in range(1, n + 1)]


def _shift(rho, order, u: int, q: int, r: int) -> None:
    """Move item ``u`` (0-based) from rank ``q`` to rank ``r`` in place,
    shifting the items ranked in between by one toward ``q``. ``rho`` maps
    item -> rank and ``order`` rank -> item (``order[0]`` is unused)."""
    if q < r:
        for p in range(q, r):
            m = order[p + 1]
            order[p] = m
            rho[m] = p
    else:
        for p in range(q, r, -1):
            m = order[p - 1]
            order[p] = m
            rho[m] = p
    order[r] = u
    rho[u] = r


def ls_move(ranking, item: int, rank: int) -> np.ndarray:
    """Deterministically relocate ``item`` to ``rank``, shifting the items in
    between by one position."""
    rho = as_ranking(ranking).copy()
    n = rho.size
    if not 1 <= item <= n:
        raise IndexError(f"item {item} out of range 1..{n}")
    if not 1 <= rank <= n:
        raise IndexError(f"rank {rank} out of range 1..{n}")
    order = np.empty(n + 1, dtype=np.int64)
    order[rho] = np.arange(n)
    _shift(rho, order, item - 1, int(rho[item - 1]), rank)
    return rho


def leap_and_shift_propose(rho, leap_size: int, rng: np.random.Generator):
    """One leap-and-shift proposal from ``rho``.

    Picks an item uniformly, draws a new rank uniformly within ``leap_size``
    of its current rank (excluding the current rank, clamped to [1, n]) and
    shifts the intervening items by one. Returns the proposal and the log
    proposal-density ratio log g(rho|rho') - log g(rho'|rho).

    A move of distance one is a swap of adjacent ranks, reachable by leaping
    either of the two items involved, and its forward and backward densities
    coincide; longer moves identify the leaped item uniquely and the ratio
    reduces to the ratio of window sizes.
    """
    ranks = as_ranking(rho)
    n = ranks.size
    if n == 1:
        raise ValueError("no proposal exists for a single item")
    if not 1 <= leap_size <= max(1, (n - 1) // 2):
        raise ValueError(f"leap_size must be in [1, {max(1, (n - 1) // 2)}] for n={n}")
    u = int(rng.integers(0, n))
    q = int(ranks[u])
    r = _leap_target(q, rng.random(), leap_size, n)
    log_w = _log_windows(n, leap_size)
    log_ratio = log_w[q] - log_w[r] if abs(r - q) > 1 else 0.0
    return ls_move(ranks, u + 1, r), log_ratio


def _run_rho_chain(cost_rows, scale, n, cfg, rng, init_ranks):
    """Generic Metropolis chain on rankings with target exp(-scale * cost).

    ``cost_rows[i][l-1]`` must hold the target's additive cost of giving item
    ``i`` (0-based) rank ``l``; the chain state cost is the sum over items.
    """
    leap = cfg.resolved_leap(n)
    rho = np.asarray(init_ranks).tolist()  # item -> rank
    order = [0] * (n + 1)  # rank -> item
    for item0, rank in enumerate(rho):
        order[rank] = item0
    log_w = _log_windows(n, leap)
    keep = []
    accepted = 0
    exp_, burn, thin, total = math.exp, cfg.burn_in, cfg.thin, cfg.iterations
    for start in range(0, total, _BLOCK):
        # whole blocks of items, destination and acceptance uniforms, in this
        # order: a caller's generator (sample_mallows) is left as it always was;
        # only the steps that run are converted to Python numbers
        steps = min(_BLOCK, total - start)
        items = rng.integers(0, n, size=_BLOCK)[:steps].tolist()
        dests = rng.random(_BLOCK)[:steps].tolist()
        accs = rng.random(_BLOCK)[:steps].tolist()
        for it, u, du, au in zip(range(start + 1, start + steps + 1), items, dests, accs):
            q = rho[u]
            r = _leap_target(q, du, leap, n)
            crow = cost_rows[u]
            delta = crow[r - 1] - crow[q - 1]
            if q < r:
                for p in range(q + 1, r + 1):
                    m = order[p]
                    delta += cost_rows[m][p - 2] - cost_rows[m][p - 1]
            else:
                for p in range(r, q):
                    m = order[p]
                    delta += cost_rows[m][p] - cost_rows[m][p - 1]
            log_acc = -scale * delta
            if r - q > 1 or q - r > 1:
                log_acc += log_w[q] - log_w[r]
            if log_acc >= 0.0 or au < exp_(log_acc):
                accepted += 1
                _shift(rho, order, u, q, r)
            if it > burn and (it - burn) % thin == 0:
                keep.append(tuple(rho))
    return np.array(keep, dtype=np.int64), accepted / cfg.iterations


def mcmc_rho(data: RankingDataset, alpha: float, cfg: McmcConfig) -> McmcTrace:
    """Metropolis chain for the consensus posterior given complete rankings.

    The chain is deterministic given ``cfg.seed`` and starts from a random
    permutation drawn from the same stream.
    """
    check_alpha(alpha)
    n = data.n_items
    rng = np.random.default_rng(cfg.seed)
    if n == 1:
        t = (cfg.iterations - cfg.burn_in) // cfg.thin
        return McmcTrace(np.ones((t, 1), dtype=np.int64), 1.0, 0.0)
    init = rng.permutation(n) + 1
    cost_rows = RankCountMatrix.from_dataset(data).cost.tolist()
    start = time.perf_counter()
    samples, rate = _run_rho_chain(cost_rows, alpha / n, n, cfg, rng, init)
    return McmcTrace(samples, rate, time.perf_counter() - start)


def mcmc_clicking(clicks, alpha: float, cfg: McmcConfig):
    """Two-step augmentation MCMC for click data.

    Each iteration performs (i) one within-group rank-swap Metropolis update
    per user, restricted to the compatible set of that user's clicks, and
    (ii) one leap-and-shift update of the consensus given the current
    augmented rankings. Returns the consensus trace and the per-user ranking
    trace with shape (T, N, n). ``clicks`` is a ClickDataset or anything
    ClickDataset accepts.
    """
    check_alpha(alpha)
    B = clicks_of(clicks)
    n_users, n = B.shape
    rng = np.random.default_rng(cfg.seed)
    rho = click_frequency_ranking(B)
    n_keep = (cfg.iterations - cfg.burn_in) // cfg.thin
    if n == 1:
        return (
            McmcTrace(np.ones((n_keep, 1), dtype=np.int64), 1.0, 0.0),
            np.ones((n_keep, n_users, 1), dtype=np.int64),
        )
    R = rank_of(rho + (1 - B) * 2 * n)  # compatible, following rho within each group
    # each user's clicked items, then unclicked items, each in item-index order
    grouped = np.argsort(1 - B, axis=1, kind="stable")
    c = B.sum(axis=1)
    cc = n - c
    can_click = c >= 2
    can_unclick = cc >= 2
    active = can_click | can_unclick
    scale = alpha / n
    leap = cfg.resolved_leap(n)
    order = np.empty(n + 1, dtype=np.int64)
    order[rho] = np.arange(n)
    log_w = _log_windows(n, leap)
    rows = np.arange(n_users)

    rho_keep = np.empty((n_keep, n), dtype=np.int64)
    user_keep = np.empty((n_keep, n_users, n), dtype=np.int64)
    accepted = 0
    start = time.perf_counter()
    for it in range(1, cfg.iterations + 1):
        # (i) per-user within-group swaps; independent across users given rho
        u_g, u_1, u_2, u_acc = rng.random((4, n_users))
        pick_clicked = np.where(can_click & can_unclick, u_g < 0.5, can_click)
        sizes = np.where(pick_clicked, c, cc)
        first = np.where(pick_clicked, 0, c)  # where the picked group starts in ``grouped``
        safe = np.maximum(sizes, 2)
        i1 = np.minimum((u_1 * safe).astype(np.int64), safe - 1)
        i2 = np.minimum((u_2 * (safe - 1)).astype(np.int64), safe - 2)
        i2 = i2 + (i2 >= i1)
        # the clamp only bites for users with no group of two, whose picks are masked
        a = np.where(active, grouped[rows, np.minimum(first + i1, n - 1)], 0)
        b = np.where(active, grouped[rows, np.minimum(first + i2, n - 1)], 0)
        ra, rb = R[rows, a], R[rows, b]
        old = np.abs(ra - rho[a]) + np.abs(rb - rho[b])
        new = np.abs(rb - rho[a]) + np.abs(ra - rho[b])
        accept = active & (u_acc < np.exp(np.minimum(-scale * (new - old), 0.0)))
        idx = np.flatnonzero(accept)
        if idx.size:
            ai, bi = a[idx], b[idx]
            tmp = R[idx, ai].copy()
            R[idx, ai] = R[idx, bi]
            R[idx, bi] = tmp

        # (ii) one leap-and-shift update of rho given the augmented rankings
        u = int(rng.integers(0, n))
        q = int(rho[u])
        r = _leap_target(q, rng.random(), leap, n)
        col = R[:, u]
        delta = np.abs(col - r).sum() - np.abs(col - q).sum()
        step = 1 if q < r else -1
        for p in range(q + step, r + step, step):  # the items that shift to p - step
            col = R[:, order[p]]
            delta += np.abs(col - (p - step)).sum() - np.abs(col - p).sum()
        log_acc = -scale * delta
        if abs(q - r) > 1:
            log_acc += log_w[q] - log_w[r]
        if log_acc >= 0.0 or rng.random() < math.exp(log_acc):
            accepted += 1
            _shift(rho, order, u, q, r)
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            kept = (it - cfg.burn_in) // cfg.thin - 1
            rho_keep[kept] = rho
            user_keep[kept] = R
    wall = time.perf_counter() - start
    return McmcTrace(rho_keep, accepted / cfg.iterations, wall), user_keep
