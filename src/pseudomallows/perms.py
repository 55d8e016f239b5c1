"""Permutation primitives and the scalar argument checks shared by every other module.

Conventions used throughout the package:

* A *ranking* is a permutation of ``{1, ..., n}`` stored as an integer
  vector; position ``i`` holds the rank of item ``i`` and rank 1 is the
  most preferred.
* An *ordering* is the inverse permutation; position ``m`` names the item
  holding rank ``m``.

All functions accept any integer sequence and return ``numpy`` arrays.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from functools import cached_property
from typing import Iterator

import numpy as np

ENUMERATION_CAP = 10  # 10! = 3.6M permutations; beyond this refuse to enumerate


class CapacityError(ValueError):
    """Raised when an exact/enumeration routine is asked for an infeasible n."""


def check_alpha(alpha: float, allow_zero: bool = False, name: str = "alpha") -> float:
    """Return ``alpha`` as a float, rejecting anything that is not a real number
    (a bool or a string is never converted) or is not finite and positive
    (nonnegative with ``allow_zero``, as the exact oracles accept); errors call it ``name``."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {alpha!r}")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and (alpha > 0 or (allow_zero and alpha == 0))):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {kind} and finite, got {alpha}")
    return alpha


def check_count(value, name: str, low: int) -> int:
    """Return ``value`` as an int, rejecting anything that is not a Python or
    numpy integer (2.5 and 2.0 alike are never rounded, a bool is never
    counted) or is below ``low``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count}")
    return count


_BLOCK_CELLS = 1 << 16  # cells per block of the duplicate check


def non_permutation_rows(arr) -> np.ndarray:
    """Flag each row along the last axis that is not a permutation of 1..n.

    The output has the input's shape without its last axis (0-d for a 1-D
    input). A row passes when its entries are whole numbers in [1, n] with
    no duplicate.

    * **Range.** One whole-array min and max clear an integer table at
      memory speed. Per-row min/max flags, and the whole-number check of
      float input, are computed only when an array is not cleared that way,
      which is when some row is rejected or the dtype is not integer.
    * **Duplicates.** Blocks of about 2^16 cells are cast to the narrowest
      unsigned dtype that holds n, so a large int64 table is never copied
      at full width. For n <= 64 each row ORs one bit per rank into the
      narrowest unsigned word of n bits; n ranks in [1, n] set all n bits
      exactly when they are distinct. Wider rows do not fit a machine word,
      so they are sorted in place (a radix sort for 8- and 16-bit dtypes,
      n < 65,536) and compared with 1..n. Rows already out of range may
      wrap in the cast; they are flagged either way.

    The path follows n, which the input shows. On 100,000 x 20 int64 rows
    the bitmask takes about 8 ms against 55-70 ms for a quicksort of every
    row; on 500 x 200 the radix sort takes 0.55 ms against about 4-5 ms
    (2-vCPU Xeon, numpy 2.4).
    """
    a = np.asarray(arr)
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    integer = a.dtype.kind in "biu"
    if integer and (rows.size == 0 or (rows.min() >= 1 and rows.max() <= n)):
        bad = np.zeros(len(rows), dtype=bool)
    else:
        bad = (rows.min(axis=1) < 1) | (rows.max(axis=1) > n)
        if not integer:
            bad |= (rows != np.floor(rows)).any(axis=1)
    narrow = np.min_scalar_type(n)
    word = np.min_scalar_type((1 << n) - 1) if n <= 64 else None
    step = max(1, _BLOCK_CELLS // n)
    with np.errstate(invalid="ignore"):  # NaN/inf rows are flagged already
        for start in range(0, len(rows), step):
            ranks = rows[start : start + step].astype(narrow)
            if word is not None:
                ranks -= 1
                seen = np.bitwise_or.reduce(np.left_shift(1, ranks, dtype=word), axis=1)
                dup = seen != (1 << n) - 1
            else:
                ranks.sort(axis=1, kind="stable")
                dup = (ranks != np.arange(1, n + 1, dtype=narrow)).any(axis=1)
            bad[start : start + step] |= dup
    return bad.reshape(a.shape[:-1])[()]


def as_ranking(r, name: str = "ranking") -> np.ndarray:
    """Validate and return ``r`` as a 1-based permutation array."""
    arr = np.asarray(r)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d integer sequence")
    if non_permutation_rows(arr):
        raise ValueError(f"{name} is not a permutation of 1..{arr.size}: {arr.tolist()}")
    return arr.astype(np.int64, copy=False)


def is_permutation(r) -> bool:
    arr = np.asarray(r)
    return arr.ndim == 1 and arr.size >= 1 and not non_permutation_rows(arr)


def footrule_distance(a, b) -> int:
    """L1 distance between two rank vectors of equal length."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"rank vectors differ in length: {a.shape} vs {b.shape}")
    return int(np.abs(a - b).sum())


def rank_of(x) -> np.ndarray:
    """Rank the entries of a real array along its last axis, smallest value
    getting rank 1; a 2-d input is ranked row by row.

    Exact ties are broken by ascending position index, so the output is
    always a valid ranking even for tied inputs:

        rank_of((0.3, 1.2, 0.7)) -> [1, 3, 2]
        rank_of((1.0, 1.0))      -> [1, 2]
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise ValueError("rank_of expects nonempty vectors along the last axis")
    if np.isnan(arr).any():
        raise ValueError("rank_of input contains NaN")
    order = np.argsort(arr, axis=-1, kind="stable")
    ranks = np.empty(arr.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, arr.shape[-1] + 1), axis=-1)
    return ranks


def ordering_of(ranking) -> np.ndarray:
    """Invert a ranking: position m of the result names the item with rank m."""
    r = as_ranking(ranking)
    out = np.empty(r.size, dtype=np.int64)
    out[r - 1] = np.arange(1, r.size + 1)
    return out


_PERM_MATRIX_CACHE: dict[int, np.ndarray] = {}


def permutation_matrix(n: int) -> np.ndarray:
    """All of P_n as an ``(n!, n)`` read-only array, lexicographic row order."""
    mat = _PERM_MATRIX_CACHE.get(n)
    if mat is None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > ENUMERATION_CAP:
            raise CapacityError(f"refusing to enumerate {n}! permutations (cap n <= {ENUMERATION_CAP})")
        mat = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
        mat.setflags(write=False)
        _PERM_MATRIX_CACHE[n] = mat
    return mat


class VSet:
    """The set of rankings that put the middle item of a base ranking first
    and work outward to the extremes, one orientation coin per symmetric pair.

    Membership is encoded implicitly by the pair structure; the full set
    (size ``2^(m-1)`` for odd ``n = 2m-1``, ``2^m`` for even ``n = 2m``) is
    only materialized on demand via :meth:`members`.
    """

    def __init__(self, base):
        self.base = as_ranking(base, "base ranking")
        self._pair_up(np.argsort(self.base))

    @classmethod
    def of_scores(cls, scores) -> "VSet":
        """The V-set of ``rank_of(scores)``, from the one stable argsort of the
        scores that orders the items as that ranking does. The ranking is a
        permutation by construction, so it is not checked again, as a given
        base is, and it is built only when ``base`` is read."""
        x = np.asarray(scores, dtype=np.float64)
        if x.ndim != 1 or x.size < 1:
            raise ValueError("V-set scores must be a nonempty 1-d sequence")
        order = np.argsort(x, kind="stable")
        if np.isnan(x[order[-1]]):  # a NaN sorts last
            raise ValueError("V-set scores contain NaN")
        vset = cls.__new__(cls)
        vset._pair_up(order)
        return vset

    @cached_property
    def base(self) -> np.ndarray:
        base = np.empty(self._order.size, dtype=np.int64)
        base[self._order] = np.arange(1, base.size + 1)
        return base

    def _pair_up(self, order: np.ndarray) -> None:
        """Pair the 0-based items of ``order``, listed by rank."""
        self._order = order
        p, odd = divmod(order.size, 2)
        # pair j: items _low[j] and _high[j] take ranks _rank[j] and _rank[j] + 1
        self._low, self._high, self._rank = order[:p][::-1], order[p + odd :], np.arange(1 + odd, order.size, 2)
        self._middle_item = int(order[p]) if odd else None

    @property
    def n(self) -> int:
        return self._order.size

    @property
    def size(self) -> int:
        return 2 ** self._rank.size

    def __len__(self) -> int:
        return self.size

    def _rows(self, bits: np.ndarray) -> np.ndarray:
        """Members as rows, one row of pair orientation bits per member."""
        out = np.empty((bits.shape[0], self.n), dtype=np.int64)
        if self._middle_item is not None:
            out[:, self._middle_item] = 1
        out[:, self._low] = self._rank + bits
        out[:, self._high] = self._rank + 1 - bits
        return out

    def members(self) -> Iterator[np.ndarray]:
        """Yield every member ranking (2^#pairs of them)."""
        for bits in itertools.product((0, 1), repeat=self._rank.size):
            yield self._rows(np.array([bits]))[0]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw members uniformly: each pair orientation is a fair coin.

        Returns one ranking with ``size=None``, otherwise ``size`` rankings as
        the rows of a (size, n) array.
        """
        t = 1 if size is None else check_count(size, "size", 0)
        rows = self._rows(rng.integers(0, 2, size=(t, self._rank.size)))
        return rows[0] if size is None else rows

    def orderings0(self, sigma: float, rng: np.random.Generator, size: int) -> np.ndarray:
        """0-based item sequences of ``size`` members drawn as ``sample`` draws
        them, each jittered entrywise with Gaussian noise of scale ``sigma``
        and sorted, stably: the coins, then the jitter when ``sigma > 0``. At
        ``sigma = 0`` they come from the coins without a sort, each pair's
        items at positions ``rank_j - 1 + bit`` and ``rank_j - bit``; with
        jitter, one argsort and no ranking between."""
        sigma = check_alpha(sigma, True, "sigma")
        bits = rng.integers(0, 2, size=(check_count(size, "size", 0), self._rank.size))
        if sigma > 0:
            jitter = rng.normal(0.0, sigma, size=(bits.shape[0], self.n))
            return np.argsort(self._rows(bits) + jitter, axis=1, kind="stable")
        out = np.empty((bits.shape[0], self.n), dtype=np.int64)
        if self._middle_item is not None:
            out[:, 0] = self._middle_item
        swap = bits * (self._high - self._low)  # a pair's items trade places where its bit is 1
        first = self.n % 2  # the position of the first pair's lower rank
        np.add(self._low, swap, out=out[:, first::2])
        np.subtract(self._high, swap, out=out[:, first + 1 :: 2])
        return out

    def __contains__(self, candidate) -> bool:
        v = np.asarray(candidate, dtype=np.int64)
        return v.shape == self.base.shape and self.nearest_distance(v) == 0

    def nearest_distance(self, candidate) -> int:
        """Footrule distance from ``candidate`` to the closest member.

        Pair orientations are independent, so the minimum decomposes into a
        per-pair choice; this is O(n) even though the set is exponential.
        """
        v = np.asarray(candidate, dtype=np.int64)
        if v.shape != self.base.shape:
            raise ValueError("candidate has the wrong length")
        va, vb, low = v[self._low], v[self._high], self._rank
        keep = np.abs(va - low) + np.abs(vb - (low + 1))
        flip = np.abs(va - (low + 1)) + np.abs(vb - low)
        total = int(np.minimum(keep, flip).sum())
        if self._middle_item is not None:
            total += abs(int(v[self._middle_item]) - 1)
        return total


def v_set(rho) -> VSet:
    """Construct the V-set of a ranking."""
    return VSet(rho)


def adjacent_swaps(ranking, count: int, rng: np.random.Generator) -> np.ndarray:
    """Apply ``count`` random swaps of neighboring ranks to a ranking."""
    r = as_ranking(ranking).copy()
    n = r.size
    count = check_count(count, "count", 0)
    if n < 2:
        return r
    order = ordering_of(r)
    for _ in range(count):
        pos = int(rng.integers(0, n - 1))
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
    return ordering_of(order)

