"""Dataset containers, the one rank-count routine and the rank-cost table.

Everything here is immutable after construction and safe to share across
threads; samplers receive their own RNG streams. A RankingDataset keeps the
RankCountMatrix of its rows from its first use, so its fits count its N*n
ranks once; two threads that use it first may each build it, identically.
The two click-data rules that both click samplers start from, the
click-frequency ranking and each user's targets, live here, below both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .perms import non_permutation_rows, rank_of


def _int_table(values, name: str, labels) -> np.ndarray:
    """``values`` as an (N, n) int64 table, n >= 1, with one label per column
    when labels are given; entries that are not whole numbers are rejected."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        as_float = arr.astype(np.float64)
        if not (np.isfinite(as_float) & (as_float == np.floor(as_float))).all():
            raise ValueError(f"{name} must hold integers")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a (N, n) array with n >= 1")
    if labels is not None and len(labels) != arr.shape[1]:
        raise ValueError("label count does not match item count")
    return arr


class RowError(ValueError):
    """A container rejected a row; ``row`` is its 0-based index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _reject_rows(bad: np.ndarray, arr: np.ndarray, label: str, problem: str) -> None:
    """Raise a RowError for the first row of ``arr`` flagged in ``bad``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        j = int(rows[0])
        raise RowError(j, f"{label} row {j} {problem}: {arr[j].tolist()}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RankingDataset:
    """N complete rankings of n items, one user per row, plus item labels."""

    rankings: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _int_table(self.rankings, "rankings", self.labels)
        problem = f"is not a permutation of 1..{arr.shape[1]}"
        _reject_rows(non_permutation_rows(arr), arr, "ranking", problem)
        object.__setattr__(self, "rankings", _frozen(arr))

    @property
    def n_users(self) -> int:
        return self.rankings.shape[0]

    @property
    def n_items(self) -> int:
        return self.rankings.shape[1]


@dataclass(frozen=True)
class ClickDataset:
    """N binary click vectors over n items; 1 means the user clicked the item."""

    clicks: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _int_table(self.clicks, "clicks", self.labels)
        bad = ((arr < 0) | (arr > 1)).any(axis=1)
        _reject_rows(bad, arr, "clicks", "contains values outside {0, 1}")
        object.__setattr__(self, "clicks", _frozen(arr))

    @property
    def n_users(self) -> int:
        return self.clicks.shape[0]

    @property
    def n_items(self) -> int:
        return self.clicks.shape[1]

    def click_counts(self) -> np.ndarray:
        """Number of clicked items per user."""
        return self.clicks.sum(axis=1)


def rankings_of(data) -> np.ndarray:
    """The rankings of a RankingDataset, or of anything RankingDataset accepts."""
    return (data if isinstance(data, RankingDataset) else RankingDataset(data)).rankings


def clicks_of(data) -> np.ndarray:
    """The clicks of a ClickDataset, or of anything ClickDataset accepts."""
    return (data if isinstance(data, ClickDataset) else ClickDataset(data)).clicks


def click_frequency_ranking(clicks) -> np.ndarray:
    """Items ranked by descending click frequency, ties by item index.

    The most-clicked item gets rank 1, consistent with clicked items being
    the preferred ones. ``clicks`` is a ClickDataset or anything ClickDataset
    accepts.
    """
    freq = clicks_of(clicks).sum(axis=0).astype(np.float64)
    return rank_of(-freq)


def click_target_cells(b: np.ndarray):
    """A function from a consensus ``rho`` to each user's targets as cells of a
    flat (N, n) table, u * n + target, with the (N, n) clicks ``b`` read once.

    User u's 0-based target for item i, ``rank_of(rho + (1 - b) * 2 * n) - 1``,
    is K - 1 for a clicked item, K counting u's clicked items ranked at or
    above it, and c + rho_i - K - 1 otherwise (c clicks). So a cell is
    ``base + s * (K - (1 - b) * rho)``, s = +1 on clicked items and -1 on the
    rest: one product of the fixed ``[b, 1 - b]`` with the rho-order table
    over diag(-rho), then two in-place ops, exact in float64. The function
    reuses its table, so it serves one caller at a time."""
    n = b.shape[1]
    clicked = b.astype(np.float64)
    left, sign = np.hstack([clicked, 1.0 - clicked]), 2.0 * clicked - 1.0
    firsts = np.arange(0, b.size, n)[:, None]  # user u's row starts at u * n
    base = np.where(b == 1, firsts - 1.0, firsts + clicked.sum(axis=1, keepdims=True) - 1)
    right = np.zeros((2 * n, n))
    above, minus_rho = right[:n], right[n:].reshape(-1)[:: n + 1]

    def cells(rho: np.ndarray) -> np.ndarray:
        np.less_equal(rho[:, None], rho, out=above)  # [j, i]: item j is ranked at or above item i
        np.negative(rho, out=minus_rho)
        out = left @ right
        out *= sign
        out += base
        return out.astype(np.intp)

    return cells


@dataclass(frozen=True)
class SampleSet:
    """A sequence of ranking draws plus the settings that generated them."""

    samples: np.ndarray
    alpha: float
    sigma: float | None = None
    seed: int | None = None
    wall_clock: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("samples must be a (T, n) array")
        object.__setattr__(self, "samples", _frozen(arr))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_items(self) -> int:
        return self.samples.shape[1]


class CheckedRows(np.ndarray):
    """A view of rows known to be permutations, which ``rank_counts`` and
    RankCountMatrix count as they are: rows a RankingDataset has checked, or
    a sampler's own draws."""


_COUNT_CELLS = 1 << 15  # cells of a rank_counts block while 8 n^2 bins fit in it


@lru_cache(maxsize=4)
def _cell_offsets(n: int, rows: int) -> np.ndarray:
    """The read-only (rows, n) int64 table of item * n - 1 in column ``item``:
    added to ranks it gives each rank's cell of the flat (n, n) table."""
    table = np.tile(np.arange(n) * n - 1, (rows, 1))
    table.setflags(write=False)
    return table


def rank_counts(rankings, weights=None) -> np.ndarray:
    """The (n, n) table whose cell (i, l-1) counts the rows of ``rankings``
    giving item i rank l: each adds 1, or its entry of ``weights`` (then the
    table is float), in row order. The ranks of ``CheckedRows`` are counted
    without a second range check.

    Integer counts sum exactly, so they are taken a block of rows at a time,
    with no (N, n) temporary. A block holds ``_COUNT_CELLS`` cells, or 8 n^2
    when that is more, so its n^2 bins stay a small part of its count. Such
    a block of short rows adds a cached offset block of its own shape, as
    adding one offset row runs an inner loop per row (8.6 against 11.9 us at
    (200, 20), 3.4 against 7.5 ms at (100,000, 20)); longer rows add the one
    row, as a larger offset block leaves the cache (5% slower at (500, 200)).
    A cached block takes at most 256 KB. A weighted count keeps one pass in
    row order, so its float sums are unchanged."""
    arr = np.asarray(rankings, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a (N, n) ranking array")
    n = arr.shape[1]
    if not isinstance(rankings, CheckedRows) and arr.size and (arr.min() < 1 or arr.max() > n):
        raise ValueError(f"ranks must lie in 1..{n}")
    if weights is not None:
        flat = arr + _cell_offsets(n, 1)
        return np.bincount(flat.ravel(), np.repeat(weights, n), minlength=n * n).reshape(n, n)
    step = max(_COUNT_CELLS, 8 * n * n) // max(n, 1)
    offsets = _cell_offsets(n, min(step, len(arr)) if 8 * n * n <= _COUNT_CELLS else 1)

    def count(block):
        return np.bincount((block + offsets[: len(block)]).ravel(), minlength=n * n)

    counts = count(arr[:step])
    for start in range(step, len(arr), step):
        counts += count(arr[start : start + step])
    return counts.reshape(n, n)


@lru_cache(maxsize=None)
def _gaps_and_ranks(n: int) -> np.ndarray:
    """The read-only float (n, n + 1) table of |r - l|, r = 1..n down, l = 1..n then 0 across."""
    ranks = np.arange(1.0, n + 2)
    table = np.abs(ranks[:n, None] - ranks % (n + 1))
    table.setflags(write=False)
    return table


def rank_cost(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L1 cost table of an (n, n) rank-count table, ``cost[i, l-1] = sum_r
    counts[i, r-1] |r - l|``, and each item's rank sum ``sum_r r counts[i, r-1]``,
    as one product with ``_gaps_and_ranks``, whose last column |r - 0| is r.
    Integer counts give int64 results, exact as every float64 partial sum is a
    whole number below 2^53. At n=200 the product takes 0.2 ms, against 0.8 ms
    for the cumulative sums it replaced."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("a rank-count table must be (n, n)")
    n = counts.shape[1]
    both = counts @ _gaps_and_ranks(n)
    if counts.dtype.kind in "biu":
        both = both.astype(np.int64)
    return both[:, :n], both[:, n]


class RankCountMatrix:
    """Per-item rank counts with precomputed L1 cost sums (``rank_cost``).

    ``cost[i, l-1]`` equals ``sum_j |R^j_i - l|``; after the O(N*n) setup any
    sampler query is O(1), which makes per-sample work independent of the
    number of users. ``rank_sums[i]`` is ``sum_j R^j_i``, exact in int64.
    The constructor checks its rows as RankingDataset does; ``from_dataset``
    builds a dataset's table once and returns that same table ever after.
    """

    def __init__(self, rankings: np.ndarray):
        if isinstance(rankings, (RankingDataset, RankCountMatrix)):
            raise TypeError("RankCountMatrix takes raw rankings; use RankCountMatrix.from_dataset for a dataset")
        if not isinstance(rankings, CheckedRows):
            rankings = RankingDataset(rankings).rankings.view(CheckedRows)
        counts = rank_counts(rankings)
        cost, rank_sums = rank_cost(counts)
        self.counts = _frozen(counts)
        self.cost = _frozen(cost)
        self.rank_sums = _frozen(rank_sums)
        self.n_users, self.n_items = rankings.shape

    @classmethod
    def from_dataset(cls, data) -> "RankCountMatrix":
        """The table a RankingDataset keeps, a new table of raw rankings, or a table as it is."""
        if not isinstance(data, RankingDataset):
            return data if isinstance(data, cls) else cls(data)
        memo = data.__dict__  # beside the frozen fields, so dataclasses.replace starts afresh
        if "_table" not in memo:
            memo["_table"] = cls(data.rankings.view(CheckedRows))
        return memo["_table"]
