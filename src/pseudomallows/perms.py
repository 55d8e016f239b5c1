"""Permutation primitives shared by every other module.

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
from typing import Iterator

import numpy as np

ENUMERATION_CAP = 10  # 10! = 3.6M permutations; beyond this refuse to enumerate


class CapacityError(ValueError):
    """Raised when an exact/enumeration routine is asked for an infeasible n."""


def non_permutation_rows(arr) -> np.ndarray:
    """Flag each row along the last axis that is not a permutation of 1..n.

    Ranges come from the row min/max, then a copy in the narrowest dtype that
    holds n is sorted, so a large int64 array is never copied at full width.
    """
    a = np.asarray(arr)
    n = a.shape[-1]
    bad = (a.min(axis=-1) < 1) | (a.max(axis=-1) > n)
    if a.dtype.kind not in "biu":
        bad |= (a != np.floor(a)).any(axis=-1)
    narrow = np.min_scalar_type(n)
    with np.errstate(invalid="ignore"):  # NaN/inf rows are flagged already
        ranks = np.sort(a.astype(narrow), axis=-1)
    return bad | (ranks != np.arange(1, n + 1, dtype=narrow)).any(axis=-1)


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


def enumerate_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every permutation of ``{1, ..., n}`` once, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"refusing to enumerate {n}! permutations (cap n <= {ENUMERATION_CAP})")
    return itertools.permutations(range(1, n + 1))


_PERM_MATRIX_CACHE: dict[int, np.ndarray] = {}


def permutation_matrix(n: int) -> np.ndarray:
    """All of P_n as an ``(n!, n)`` read-only array, lexicographic row order."""
    mat = _PERM_MATRIX_CACHE.get(n)
    if mat is None:
        mat = np.array(list(enumerate_permutations(n)), dtype=np.int64)
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
        n = self.base.size
        o = ordering_of(self.base) - 1  # 0-based items by rank
        p, odd = divmod(n, 2)
        j = np.arange(p)
        # pair j: items _low[j] and _high[j] take ranks _rank[j] and _rank[j] + 1
        self._low, self._high, self._rank = o[p - 1 - j], o[p + odd + j], 2 * j + 1 + odd
        self._middle_item = int(o[p]) if odd else None

    @property
    def n(self) -> int:
        return self.base.size

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
        t = 1 if size is None else int(size)
        rows = self._rows(rng.integers(0, 2, size=(t, self._rank.size)))
        return rows[0] if size is None else rows

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


def perturbed_v_ranking(rho_hat, sigma: float, rng, size: int | None = None) -> np.ndarray:
    """Draw V-set members of ``rho_hat``, jitter each entry with Gaussian noise
    of standard deviation ``sigma``, and rank the result.

    ``sigma = 0`` returns V-set members exactly. Returns one ranking with
    ``size=None``, otherwise ``size`` rankings as the rows of a (size, n) array.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    v = v_set(rho_hat).sample(rng, size)
    if sigma == 0:
        return v
    return rank_of(v + rng.normal(0.0, sigma, size=v.shape))


def adjacent_swaps(ranking, count: int, rng: np.random.Generator) -> np.ndarray:
    """Apply ``count`` random swaps of neighboring ranks to a ranking."""
    r = as_ranking(ranking).copy()
    n = r.size
    if n < 2:
        return r
    order = ordering_of(r)
    for _ in range(count):
        pos = int(rng.integers(0, n - 1))
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
    return ordering_of(order)


def factorial(n: int) -> int:
    return math.factorial(n)
