"""Metropolis-Hastings baselines for the Mallows posterior.

``mcmc_rho`` targets the consensus posterior given complete rankings;
``mcmc_clicking`` alternates per-user augmentation updates (within-group rank
swaps) with consensus updates for click data. Both are the comparison arm in
the timing and accuracy experiments. ``mcmc_clicking`` starts from
``data.click_frequency_ranking`` and the users' targets
(``data.click_target_cells``), as the pseudo-Mallows loop does. The user
rankings are item-major, (n, N): flat cell ``i * N + j`` is user j's rank of
item i. Tables made once give each user's clicked, then unclicked items as
flat cells and item ids in rows padded to n + 1 (an inactive user's row
names one cell), and the acceptance probability of every footrule change.

Every consensus update is one leap-and-shift move, written once here: a
destination drawn within the leap window (``_leap_target``), the log window
sizes that give its proposal ratio (``_log_windows``), and an in-place shift
of the item -> rank and rank -> item state (``_shift``). Both chains and
the deterministic ``ls_move`` of the ordering search share them.

On a concentrated posterior ``mcmc_rho`` rejects nearly every proposal,
and a rejection leaves the state as it was. So after ``_SCAN_MIN``
rejections in a row, ``_rejected_steps`` evaluates the block's next
pre-drawn proposals, twice as many as the run so far and never past the
block's end, from that state in one numpy pass, and the loop resumes at the
first that may be accepted. The chain is the same step for step: each cost
change is the loop's integer sum, each ``log_acc`` the loop's float
operations in its order, and ``exp`` is screened with a margin wider than
``np.exp``'s last-ulp differences from ``math.exp``, so the loop itself
decides every acceptance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import RankCountMatrix, RankingDataset, click_frequency_ranking, click_target_cells, clicks_of
from .perms import as_ranking, check_alpha, check_count, mallows_scale

_BLOCK = 1 << 15  # pre-drawn randomness block size for the hot loops
_CHUNK = 256  # steps of a block mcmc_rho converts to Python numbers at a time; 64 and 1024 were slower
# rejections in a row after which mcmc_rho scans a window of twice the run's
# length: at 16 or 32 an n=200 chain accepting 15% took 2.9x or 1.3x as long,
# while 64 to 256, and windows of one to four runs, timed alike
_SCAN_MIN = 64
_SCREEN = 1.0 + 1e-9  # relative margin of the window screen over np.exp's last-ulp error


@dataclass(frozen=True)
class McmcConfig:
    iterations: int
    leap_size: int | None = None  # default max(1, n // 10), resolved at run time
    thin: int = 1
    burn_in: int = 0
    seed: int | np.random.Generator | None = None  # anything np.random.default_rng accepts

    def __post_init__(self):
        check_count(self.iterations, "iterations", 1)
        check_count(self.thin, "thin", 1)
        if not 0 <= check_count(self.burn_in, "burn_in", 0) < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.leap_size is not None:
            check_count(self.leap_size, "leap_size", 1)

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
    ``p`` (``out[0]`` is unused); a move q -> r with |r - q| > 1 names its
    leaped item and has log proposal ratio ``out[q] - out[r]``. An adjacent
    swap is reached by leaping either of its items, so its ratio is zero."""
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


def _rejected_steps(block, lo: int, hi: int, rho, order, cost: np.ndarray, scale: float, leap: int, log_w) -> int:
    """How many of the proposals ``lo:hi`` of ``block`` (items, destination
    and acceptance uniforms) ``mcmc_rho`` rejects in a row from the state
    ``rho``, ``order``. One table screens every move from that state, item u
    to the j-th rank of its leap window; the cost of the items a move passes
    is a difference of prefix sums of their one-rank shift costs."""
    n, width = len(rho), 2 * leap
    q = np.array(rho)[:, None]  # each item's rank
    start, stop = np.maximum(q - leap, 1), np.minimum(q + leap, n)
    r = np.minimum(start + np.arange(width), stop - 1)  # the j-th destination; j >= stop - start is never drawn
    r += r >= q
    ranked = np.array(order[1:])  # the item at each rank
    here = cost[ranked, np.arange(n)]
    down = np.zeros(n + 1, dtype=np.int64)  # down[p]: the items at ranks 2..p each up one
    np.cumsum(cost[ranked[1:], np.arange(n - 1)] - here[1:], out=down[2:])
    up = np.zeros(n, dtype=np.int64)  # up[p]: the items at ranks 1..p each down one
    np.cumsum(cost[ranked[:-1], np.arange(1, n)] - here[:-1], out=up[1:])
    delta = np.take_along_axis(cost, r - 1, 1) - np.take_along_axis(cost, q - 1, 1)
    delta += np.where(q < r, down.take(r) - down.take(q), up.take(q - 1) - up.take(r - 1))
    log_acc = -scale * delta
    log_w = np.array(log_w)
    log_acc += np.where(np.abs(r - q) > 1, log_w.take(q) - log_w.take(r), 0.0)
    screen = np.exp(np.minimum(log_acc, 0.0)) * _SCREEN
    u, du, au = (a[lo:hi] for a in block)
    hit = au <= screen.take(u * width + (du * (stop - start).take(u)).astype(np.int64))
    return int(hit.argmax()) if hit.any() else hi - lo


def mcmc_rho(data: RankingDataset | np.ndarray, alpha: float, cfg: McmcConfig) -> McmcTrace:
    """Metropolis chain for the consensus posterior given complete rankings.

    The chain is deterministic given ``cfg.seed`` and starts from a random
    permutation drawn from the same stream. Its target is exp(-(alpha/n) *
    cost), where ``cost_rows[i][l-1]`` is the additive cost of giving item
    ``i`` (0-based) rank ``l`` and a state's cost is the sum over items.

    After ``_SCAN_MIN`` rejections in a row the loop hands the next
    proposals, twice the run's length up to the block's end, to
    ``_rejected_steps`` and resumes after the rejections it counts, whose
    kept iterations repeat the current state. The generator calls and every
    decision are the plain loop's, so each seeded chain is unchanged.
    """
    check_alpha(alpha)
    table = RankCountMatrix.from_dataset(data)
    n = table.n_items
    rng = np.random.default_rng(cfg.seed)
    if n == 1:
        t = (cfg.iterations - cfg.burn_in) // cfg.thin
        return McmcTrace(np.ones((t, 1), dtype=np.int64), 1.0, 0.0)
    init = rng.permutation(n) + 1
    cost_rows = table.cost.tolist()
    start = time.perf_counter()
    scale = alpha / n
    leap = cfg.resolved_leap(n)
    rho = init.tolist()  # item -> rank
    order = [0] * (n + 1)  # rank -> item
    for item0, rank in enumerate(rho):
        order[rank] = item0
    log_w = _log_windows(n, leap)
    keep = []
    accepted, last = 0, -1  # ``last``: the block index of the latest acceptance
    exp_, burn, thin, total = math.exp, cfg.burn_in, cfg.thin, cfg.iterations
    for first in range(0, total, _BLOCK):
        # whole blocks of items, destination and acceptance uniforms, in this
        # order: a caller's generator (sample_mallows) is left as it always was;
        # only the chunks of steps the loop runs are converted to Python numbers
        steps = min(_BLOCK, total - first)
        block = rng.integers(0, n, size=_BLOCK)[:steps], rng.random(_BLOCK)[:steps], rng.random(_BLOCK)[:steps]
        after = burn - first - 1  # step k is kept when k > after and (k - after) % thin == 0
        k = 0
        while k < steps:
            end = min(k + _CHUNK, steps)
            chunk = [a[k:end].tolist() for a in block]
            for k, u, du, au in zip(range(k, end), *chunk):
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
                    last = k
                elif k - last >= _SCAN_MIN:
                    break
                if k > after and (k - after) % thin == 0:
                    keep.append(tuple(rho))
            else:
                k = end
                continue
            # a rejection run: step k and the window's rejections before its
            # first candidate leave the state as it is; the loop resumes at
            # the candidate, which it accepts or rejects as ever
            stop = min(k + 1 + 2 * (k - last), steps)
            skip = _rejected_steps(block, k + 1, stop, rho, order, table.cost, scale, leap, log_w)
            keep += [tuple(rho)] * (max(k + skip - after, 0) // thin - max(k - 1 - after, 0) // thin)
            k += skip + 1
        last -= steps
    return McmcTrace(np.array(keep, dtype=np.int64), accepted / cfg.iterations, time.perf_counter() - start)


def mcmc_clicking(clicks, alpha: float, cfg: McmcConfig):
    """Two-step augmentation MCMC for click data.

    Each iteration performs (i) one within-group rank-swap Metropolis update
    per user, restricted to the compatible set of that user's clicks, and
    (ii) one leap-and-shift update of the consensus given the current
    augmented rankings. Returns the consensus trace and the per-user ranking
    trace with shape (T, N, n). ``clicks`` is a ClickDataset or anything
    ClickDataset accepts.

    The chain equals that of the plain per-user update draw for draw: the
    generator calls and their order are the same, and so is each compared
    value. A pick cast needs no clamp: u <= 1 - 2**-53 and an integer s >= 1
    give u * s <= s - s * 2**-53, at least half a spacing below s.
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
    rows = np.arange(n_users)
    Rt = np.ascontiguousarray((click_target_cells(B)(rho) - rows[:, None] * n + 1).T)  # follows rho in each group
    flat = Rt.reshape(-1)
    c = B.sum(axis=1)
    active = (c >= 2) | (c <= n - 2)
    # each active user's clicked items, then unclicked items, each in item-index order
    items = np.zeros((n_users, n + 1), dtype=np.int64)
    items[active, :n] = np.argsort(1 - B[active], axis=1, kind="stable")
    cells = items * n_users + rows[:, None]  # both tables are read flat, through ``take``
    # per group: the two pick ranges and the group's first position in the table
    safe_c, safe_u = np.maximum(c, 2), np.maximum(n - c, 2)
    group_c = np.stack([safe_c, safe_c - 1, rows * (n + 1)])
    group_u = np.stack([safe_u, safe_u - 1, rows * (n + 1) + c])
    # u_g < pick_below picks the clicked group: half the time when both groups can swap
    pick_below = np.where(c >= 2, np.where(c <= n - 2, 0.5, 2.0), -1.0)
    scale = mallows_scale(alpha, n)  # past the cap every step decides as at the cap, with no overflow
    changes = np.r_[0 : 2 * n - 1, 2 - 2 * n : 0]  # negative changes index from the end
    thr = np.exp(np.minimum(-scale * changes, 0.0))
    leap = cfg.resolved_leap(n)
    order = np.empty(n + 1, dtype=np.int64)
    order[rho] = np.arange(n)
    log_w = _log_windows(n, leap)

    rho_keep = np.empty((n_keep, n), dtype=np.int64)
    user_keep = np.empty((n_keep, n_users, n), dtype=np.int64)
    accepted = 0
    start = time.perf_counter()
    for it in range(1, cfg.iterations + 1):
        # (i) per-user within-group swaps; independent across users given rho
        u_all = rng.random((4, n_users))  # group, first pick, second pick, acceptance
        group = np.where(u_all[0] < pick_below, group_c, group_u)
        pos = (u_all[1:3] * group[:2]).astype(np.int64)
        pos += group[2]
        pos[1] += pos[1] >= pos[0]  # the second pick skips the first
        cell = cells.take(pos)
        rr = flat[cell]
        gap = np.abs(rr[:, None] - rho[items.take(pos)])  # gap[x, y] = |rank of pick x - rho of pick y|
        side = gap[:, 1] - gap[:, 0]
        accept = u_all[3] < thr.take(side[0] - side[1])
        flat[cell] = np.where(accept, rr[::-1], rr)

        # (ii) one leap-and-shift update of rho given the augmented rankings
        u = int(rng.integers(0, n))
        q = int(rho[u])
        r = _leap_target(q, rng.random(), leap, n)
        lo, hi = min(q, r), max(q, r)
        span = range(lo, hi + 1)  # the items ranked lo..hi move: u to r, the others one rank toward q
        ranks = np.array([[r if p == q else p + (p < q) - (p > q) for p in span], span])
        moved = np.abs(Rt.take(order[lo : hi + 1], axis=0) - ranks[:, :, None]).sum(axis=(1, 2))
        log_acc = -scale * (moved[0] - moved[1])
        if abs(q - r) > 1:
            log_acc += log_w[q] - log_w[r]
        if log_acc >= 0.0 or rng.random() < math.exp(log_acc):
            accepted += 1
            _shift(rho, order, u, q, r)
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            kept = (it - cfg.burn_in) // cfg.thin - 1
            rho_keep[kept] = rho
            user_keep[kept] = Rt.T
    wall = time.perf_counter() - start
    return McmcTrace(rho_keep, accepted / cfg.iterations, wall), user_keep
