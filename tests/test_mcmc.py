"""Chain correctness: proposal mechanics, seeded equality with the chain
loop the shared leap-and-shift move replaced, stationary distributions against
the enumeration oracle, and the click-data augmentation scheme."""

import math
from collections import Counter

import numpy as np
import pytest

import pseudomallows
import pseudomallows.evaluation
from pseudomallows.clicking import binarize, in_compatible_set, TruncatedPoisson
from pseudomallows.data import ClickDataset, RankCountMatrix, RankingDataset
from pseudomallows.exact import exact_posterior
from pseudomallows.mcmc import (
    McmcConfig,
    _leap_target,
    _log_windows,
    ls_move,
    mcmc_clicking,
    mcmc_rho,
)
from pseudomallows.perms import is_permutation, permutation_matrix
from pseudomallows.simulate import make_dataset, sample_mallows

BLOCK = 1 << 15


def _window(pos, n, leap):
    return min(n, pos + leap) - max(1, pos - leap)


class _RandomBlocks:
    """Batched uniforms/integers so the chain loop avoids per-step RNG calls."""

    def __init__(self, rng, n):
        self.rng = rng
        self.n = n
        self._refill()

    def _refill(self):
        self.items = self.rng.integers(0, self.n, size=BLOCK)
        self.dest = self.rng.random(BLOCK)
        self.acc = self.rng.random(BLOCK)
        self.pos = 0

    def next(self):
        if self.pos == BLOCK:
            self._refill()
        p = self.pos
        self.pos = p + 1
        return int(self.items[p]), float(self.dest[p]), float(self.acc[p])


def reference_chain(cost_rows, scale, n, cfg, rng, init_ranks):
    """The chain loop with its own inline destination draw and shift, reading
    randomness one step at a time from lazily refilled blocks."""
    leap = cfg.resolved_leap(n)
    rho = list(init_ranks)
    order = [0] * (n + 1)
    for item0, rank in enumerate(rho):
        order[rank] = item0
    log_w = [0.0] * (n + 1)
    for pos in range(1, n + 1):
        log_w[pos] = math.log(_window(pos, n, leap))
    blocks = _RandomBlocks(rng, n)
    keep = []
    accepted = 0
    for it in range(1, cfg.iterations + 1):
        u, du, au = blocks.next()
        q = rho[u]
        lo = max(1, q - leap)
        hi = min(n, q + leap)
        r = lo + int(du * (hi - lo))
        if r >= q:
            r += 1
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
        if abs(r - q) > 1:
            log_acc += log_w[q] - log_w[r]
        if log_acc >= 0.0 or au < math.exp(log_acc):
            accepted += 1
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
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            keep.append(tuple(rho))
    return np.array(keep, dtype=np.int64), accepted / cfg.iterations


def reference_mcmc_rho(data, alpha, cfg):
    rng = np.random.default_rng(cfg.seed)
    n = data.n_items
    init = rng.permutation(n) + 1
    cost_rows = RankCountMatrix.from_dataset(data).cost.tolist()
    return reference_chain(cost_rows, alpha / n, n, cfg, rng, init)


def reference_sample_mallows(rho0, alpha, size, rng):
    """The MCMC route of ``sample_mallows`` with its own cost table: burn-in
    60n, thinning 3n, leap size max(1, n // 5)."""
    n = len(rho0)
    burn_in, thin = 60 * n, 3 * n
    cfg = McmcConfig(iterations=burn_in + size * thin, leap_size=max(1, n // 5),
                     thin=thin, burn_in=burn_in)
    cost_rows = [[abs(int(r) - l) for l in range(1, n + 1)] for r in rho0]
    init = rng.permutation(n) + 1
    return reference_chain(cost_rows, alpha / n, n, cfg, rng, init)[0]


THIN, BURN, SIZE = 7, 100, 4700  # 32,998 iterations: one block boundary crossed
assert BLOCK < BURN + SIZE * THIN < 2 * BLOCK


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4])
@pytest.mark.parametrize("leap", ["one", "default", "widest"])
@pytest.mark.parametrize("n", [2, 3, 9, 20, 200])
def test_seeded_chains_equal_the_reference(n, leap, alpha):
    leap_size = {"one": 1, "default": None, "widest": max(1, (n - 1) // 2)}[leap]
    rho0 = np.random.default_rng(n).permutation(n) + 1
    data = RankingDataset(np.random.default_rng(n + 1).permuted(np.tile(rho0, (8, 1)), axis=1))
    cfg = McmcConfig(iterations=BURN + SIZE * THIN, leap_size=leap_size,
                     thin=THIN, burn_in=BURN, seed=n)
    trace = mcmc_rho(data, alpha, cfg)
    want, rate = reference_mcmc_rho(data, alpha, cfg)
    assert np.array_equal(trace.rho_samples, want)
    assert trace.acceptance_rate == rate


# sizes whose chains (60n burn-in + size * 3n iterations) cross one block boundary
MALLOWS_SIZES = {9: 1300, 20: 600, 200: 40}
assert all(BLOCK < 60 * n + size * 3 * n < 2 * BLOCK for n, size in MALLOWS_SIZES.items())


@pytest.mark.parametrize("alpha", [1e-6, 2.0, 1e4])
@pytest.mark.parametrize("n", sorted(MALLOWS_SIZES))
def test_seeded_sample_mallows_equals_the_reference(n, alpha):
    rho0 = np.random.default_rng(n).permutation(n) + 1
    size = MALLOWS_SIZES[n]
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = sample_mallows(rho0, alpha, size, got_rng)
    want = reference_sample_mallows(rho0, alpha, size, want_rng)
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # the same randomness was used


# concentrated posteriors, rows and alpha: after the first moves most
# proposals are rejected, so mcmc_rho scans windows of them; 33,000 iterations
# cross the end of the first block
SCAN_CASES = {2: ([[1, 2]], 5.3), 5: ([[1, 2, 3, 4, 5]] * 2, 8.0), 9: ([list(range(1, 10))] * 2, 10.0)}


@pytest.mark.parametrize("n", sorted(SCAN_CASES))
def test_rejection_run_scan_equals_the_reference(n, monkeypatch):
    rows, alpha = SCAN_CASES[n]
    data = RankingDataset(rows)
    cfg = McmcConfig(iterations=33_000, thin=3, burn_in=1000, seed=1)
    scan, blocks, runs = pseudomallows.mcmc._rejected_steps, [], []

    def spy(block, lo, hi, *state):
        if not blocks or blocks[-1] is not block:
            blocks.append(block)
        skip = scan(block, lo, hi, *state)
        first = (len(blocks) - 1) * BLOCK
        # the run's rejected iterations (the step before the window and the
        # window's first ``skip``), whether the window found an acceptance,
        # and the window's last iteration
        runs.append((first + lo, first + lo + skip, skip < hi - lo, first + hi))
        return skip

    monkeypatch.setattr(pseudomallows.mcmc, "_rejected_steps", spy)
    trace = mcmc_rho(data, alpha, cfg)
    want, rate = reference_mcmc_rho(data, alpha, cfg)
    assert np.array_equal(trace.rho_samples, want)
    assert trace.acceptance_rate == rate
    assert any(found for _, _, found, _ in runs)
    assert any(end == BLOCK for *_, end in runs)
    assert any(a <= cfg.burn_in < b for a, b, *_ in runs)
    assert any((it - cfg.burn_in) % cfg.thin == 0 for a, b, *_ in runs for it in range(max(a, cfg.burn_in + 1), b + 1))


class TestLeapAndShift:
    def test_n2_always_transposition_ratio_zero(self):
        """At n=2 a leap from either rank lands on the other one: an adjacent
        swap, whose two windows are equal, so its log ratio is zero."""
        for q in (1, 2):
            for du in np.random.default_rng(0).random(20):
                r = _leap_target(q, du, 1, 2)
                assert r == 3 - q
                assert ls_move((1, 2), q, r).tolist() == [2, 1]
        assert _log_windows(2, 1) == [0.0, 0.0, 0.0]

    def test_case_table_downshift(self):
        # relocating item 1 from rank 1 to rank 3 pulls items at ranks 2..3 down
        assert ls_move((1, 2, 3, 4), 1, 3).tolist() == [3, 1, 2, 4]
        assert ls_move((1, 2, 3, 4), 4, 2).tolist() == [1, 3, 4, 2]
        # leap_size 1 from the identity can only swap adjacent ranks
        seen = set()
        for u in range(4):
            for du in np.linspace(0.0, 1.0, 50, endpoint=False):
                seen.add(tuple(ls_move((1, 2, 3, 4), u + 1, _leap_target(u + 1, du, 1, 4)).tolist()))
        assert seen == {(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)}

    def test_validity_many_trials(self):
        rng = np.random.default_rng(2)
        state = np.arange(1, 11)
        for u, du in zip(rng.integers(0, 10, 100_000).tolist(), rng.random(100_000).tolist()):
            r = _leap_target(int(state[u]), du, 4, 10)
            assert 1 <= r <= 10 and 0 < abs(r - state[u]) <= 4
            state = ls_move(state, u + 1, r)
        assert is_permutation(state)

    def test_leap_size_validation(self):
        with pytest.raises(ValueError, match="leap_size"):
            McmcConfig(10, leap_size=3).resolved_leap(5)
        with pytest.raises(ValueError, match="leap_size"):
            mcmc_rho(RankingDataset(np.tile(np.arange(1, 6), (3, 1))), 1.0, McmcConfig(10, leap_size=3))
        assert McmcConfig(10, leap_size=2).resolved_leap(5) == 2
        assert McmcConfig(10).resolved_leap(25) == 2 and McmcConfig(10).resolved_leap(2) == 1

    def test_proposal_law_and_ratio(self):
        """The law of 1e5 proposals (a uniform item, ``_leap_target`` and
        ``ls_move``) against the one enumerated from the window rule; the log
        windows are those of the rule. A longer move names its leaped item,
        so its ratio is that of the window sizes; an adjacent swap is reached
        by leaping either of its items, so its ratio is zero."""
        n, leap = 6, 2
        rho = np.array([3, 1, 6, 2, 5, 4])
        window = lambda p: min(n, p + leap) - max(1, p - leap)

        def relocated(u, r):
            order = [i for i in np.argsort(rho).tolist() if i != u]
            order.insert(r - 1, u)
            out = np.empty(n, dtype=np.int64)
            out[order] = np.arange(1, n + 1)
            return tuple(out.tolist())

        law = Counter()
        for u in range(n):
            q = int(rho[u])
            for r in range(max(1, q - leap), min(n, q + leap) + 1):
                if r != q:
                    law[relocated(u, r)] += 1 / (n * window(q))
        rng = np.random.default_rng(17)
        t = 100_000
        counts = Counter()
        for u, du in zip(rng.integers(0, n, t).tolist(), rng.random(t).tolist()):
            counts[tuple(ls_move(rho, u + 1, _leap_target(int(rho[u]), du, leap, n)).tolist())] += 1
        assert set(counts) <= set(law)
        tv = 0.5 * sum(abs(counts.get(r, 0) / t - p) for r, p in law.items())
        assert tv <= 0.015

        for size, width in ((n, leap), (7, 1), (10, 4), (3, 1)):
            assert _log_windows(size, width)[1:] == [
                math.log(min(size, p + width) - max(1, p - width)) for p in range(1, size + 1)
            ]
        for key in counts:
            prop = np.array(key)
            moved = np.flatnonzero(prop != rho)
            jump = np.abs(prop - rho)
            if jump.max() > 1:
                u = int(np.argmax(jump))
                assert int(prop[u]) - int(rho[u]) in (-moved.size + 1, moved.size - 1)
                assert ls_move(rho, u + 1, int(prop[u])).tolist() == list(key)
            else:
                assert moved.size == 2
                for u in moved:
                    assert ls_move(rho, int(u) + 1, int(prop[u])).tolist() == list(key)

    def test_ls_move_is_one_function(self):
        assert pseudomallows.ls_move is ls_move is pseudomallows.evaluation.ls_move


class TestSampleMallows:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("n", [5, 10])
    def test_bad_alpha_rejected(self, n, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sample_mallows(np.arange(1, n + 1), alpha, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [5, 10])
    def test_zero_alpha_draws_permutations(self, n):
        draws = sample_mallows(np.arange(1, n + 1), 0.0, 50, np.random.default_rng(0))
        assert draws.shape == (50, n) and all(is_permutation(r) for r in draws)
        assert len({tuple(r) for r in draws.tolist()}) > 1


class TestConfig:
    def test_burn_in_bounds(self):
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=10, burn_in=10)

    def test_iterations_must_be_an_integer(self):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            McmcConfig(iterations=100.0)
        with pytest.raises(ValueError, match="iterations must be at least 1"):
            McmcConfig(iterations=0)
        assert McmcConfig(iterations=np.int64(100)).iterations == 100

    def test_thin_must_be_an_integer(self):
        """2.5 once thinned 100 iterations to 20 samples."""
        with pytest.raises(ValueError, match="thin must be an integer"):
            McmcConfig(iterations=100, thin=2.5)
        assert McmcConfig(iterations=100, thin=np.int64(2)).thin == 2

    def test_burn_in_must_be_an_integer(self):
        """10.5 once gave a 1-d, empty ``rho_samples``."""
        with pytest.raises(ValueError, match="burn_in must be an integer"):
            McmcConfig(iterations=100, burn_in=10.5)
        assert McmcConfig(iterations=100, burn_in=np.int64(10)).burn_in == 10

    def test_leap_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="leap_size must be an integer"):
            McmcConfig(iterations=100, leap_size=1.5)
        with pytest.raises(ValueError, match="leap_size must be at least 1"):
            McmcConfig(iterations=100, leap_size=0)
        assert McmcConfig(iterations=100, leap_size=np.int64(2)).resolved_leap(20) == 2

    def test_default_leap(self):
        assert McmcConfig(iterations=10).resolved_leap(20) == 2
        assert McmcConfig(iterations=10).resolved_leap(5) == 1
        assert McmcConfig(iterations=10).resolved_leap(2) == 1

    def test_sample_count_contract(self):
        data = make_dataset((1, 2, 3), 1.0, 5, np.random.default_rng(0))
        cfg = McmcConfig(iterations=1000, burn_in=100, thin=7, seed=1)
        trace = mcmc_rho(data, 1.0, cfg)
        assert trace.n_samples == (1000 - 100) // 7


class TestRhoChain:
    def test_alpha_must_be_positive(self):
        data = make_dataset((1, 2, 3), 1.0, 5, np.random.default_rng(0))
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                mcmc_rho(data, alpha, McmcConfig(iterations=10))
        with pytest.raises(ValueError, match="alpha must be a real number"):
            mcmc_rho(data, "2", McmcConfig(iterations=10))

    def test_flat_target_accepts_everything(self):
        data = make_dataset(np.arange(1, 6), 1.0, 5, np.random.default_rng(1))
        trace = mcmc_rho(data, 1e-9, McmcConfig(iterations=20000, seed=3))
        assert trace.acceptance_rate > 0.999

    def test_deterministic_given_seed(self):
        data = make_dataset(np.arange(1, 6), 2.0, 10, np.random.default_rng(2))
        cfg = McmcConfig(iterations=5000, burn_in=100, seed=42)
        a = mcmc_rho(data, 2.0, cfg)
        b = mcmc_rho(data, 2.0, cfg)
        assert np.array_equal(a.rho_samples, b.rho_samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_uniform_stationary_with_wide_leap(self):
        """With a flat target the chain must stay uniform; any error in the
        two-path proposal ratio for leaps >= 2 would show up here."""
        data = make_dataset(np.arange(1, 6), 1.0, 5, np.random.default_rng(1))
        trace = mcmc_rho(
            data, 1e-9, McmcConfig(iterations=300000, leap_size=2, burn_in=5000, seed=4)
        )
        counts = Counter(tuple(r) for r in trace.rho_samples)
        freqs = np.array([counts.get(tuple(p), 0) for p in permutation_matrix(5)])
        tv = 0.5 * np.abs(freqs / trace.n_samples - 1 / 120).sum()
        assert tv < 0.03

    def test_matches_exact_posterior(self):
        data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(5))
        trace = mcmc_rho(data, 2.0, McmcConfig(iterations=60000, burn_in=2000, seed=6))
        post = exact_posterior(data, 2.0)
        counts = Counter(tuple(r) for r in trace.rho_samples)
        tv = 0.5 * sum(
            abs(counts.get(tuple(r), 0) / trace.n_samples - p)
            for r, p in zip(post.support, post.probs)
        )
        assert tv < 0.03

    def test_detailed_balance_empirically(self):
        """pi(a) P(a->b) must match pi(b) P(b->a) on the n = 3 chain."""
        data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(42))
        trace = mcmc_rho(data, 2.0, McmcConfig(iterations=300000, seed=9))
        idx = {tuple(r): i for i, r in enumerate(permutation_matrix(3))}
        flux = np.zeros((6, 6))
        samples = trace.rho_samples
        for a, b in zip(samples[:-1], samples[1:]):
            flux[idx[tuple(a)], idx[tuple(b)]] += 1
        flux /= len(samples) - 1
        gap = np.abs(flux - flux.T)
        scale = (flux + flux.T) / 2
        mask = scale > 1e-4
        assert (gap[mask] / scale[mask]).max() < 0.2


def _padded_groups(clicks):
    """Per-user 0-based item indices of each group, padded with -1."""
    n_users, n = clicks.shape
    c = clicks.sum(axis=1)
    clicked = np.full((n_users, max(int(c.max(initial=0)), 1)), -1, dtype=np.int64)
    unclicked = np.full((n_users, max(int((n - c).max(initial=0)), 1)), -1, dtype=np.int64)
    for j in range(n_users):
        idx = np.flatnonzero(clicks[j])
        clicked[j, : idx.size] = idx
        idx = np.flatnonzero(1 - clicks[j])
        unclicked[j, : idx.size] = idx
    return clicked, unclicked, c


def reference_mcmc_clicking(clicks, alpha, cfg):
    """The click-data chain with per-user padded group tables, four padded
    gathers per user step, and its own start, destination draw and shift."""
    B = clicks.clicks
    n_users, n = B.shape
    rng = np.random.default_rng(cfg.seed)
    rho = np.argsort(np.argsort(-B.sum(axis=0), kind="stable"), kind="stable") + 1
    R = np.argsort(np.argsort(rho + (1 - B) * 2 * n, axis=1, kind="stable"), axis=1) + 1
    clicked_pad, unclicked_pad, c = _padded_groups(B)
    cc = n - c
    can_click, can_unclick = c >= 2, cc >= 2
    scale = alpha / n
    leap = cfg.resolved_leap(n)
    order = np.empty(n + 1, dtype=np.int64)
    order[rho] = np.arange(n)
    log_w = [0.0] + [math.log(_window(p, n, leap)) for p in range(1, n + 1)]
    rows = np.arange(n_users)
    rho_keep, user_keep, accepted = [], [], 0
    for it in range(1, cfg.iterations + 1):
        u_g, u_1, u_2, u_acc = rng.random((4, n_users))
        pick_clicked = np.where(can_click & can_unclick, u_g < 0.5, can_click)
        active = can_click | can_unclick
        safe = np.maximum(np.where(pick_clicked, c, cc), 2)
        i1 = np.minimum((u_1 * safe).astype(np.int64), safe - 1)
        i2 = np.minimum((u_2 * (safe - 1)).astype(np.int64), safe - 2)
        i2 = i2 + (i2 >= i1)
        picks = []
        for i in (i1, i2):
            pad_c = clicked_pad[rows, np.minimum(i, clicked_pad.shape[1] - 1)]
            pad_u = unclicked_pad[rows, np.minimum(i, unclicked_pad.shape[1] - 1)]
            picks.append(np.where(active, np.where(pick_clicked, pad_c, pad_u), 0))
        a, b = picks
        ra, rb = R[rows, a], R[rows, b]
        old = np.abs(ra - rho[a]) + np.abs(rb - rho[b])
        new = np.abs(rb - rho[a]) + np.abs(ra - rho[b])
        idx = np.flatnonzero(active & (u_acc < np.exp(np.minimum(-scale * (new - old), 0.0))))
        R[idx, a[idx]], R[idx, b[idx]] = R[idx, b[idx]], R[idx, a[idx]].copy()

        u = int(rng.integers(0, n))
        q = int(rho[u])
        lo, hi = max(1, q - leap), min(n, q + leap)
        r = lo + int(rng.random() * (hi - lo))
        r += r >= q
        delta = np.abs(R[:, u] - r).sum() - np.abs(R[:, u] - q).sum()
        step = 1 if q < r else -1
        for p in range(q + step, r + step, step):
            col = R[:, order[p]]
            delta += np.abs(col - (p - step)).sum() - np.abs(col - p).sum()
        log_acc = -scale * delta + (log_w[q] - log_w[r] if abs(q - r) > 1 else 0.0)
        if log_acc >= 0.0 or rng.random() < math.exp(log_acc):
            accepted += 1
            for p in range(q, r, step):
                order[p] = order[p + step]
                rho[order[p]] = p
            order[r] = u
            rho[u] = r
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            rho_keep.append(rho.copy())
            user_keep.append(R.copy())
    return np.array(rho_keep), np.array(user_keep), accepted / cfg.iterations


def _edge_clicks(n):
    rng = np.random.default_rng(n)
    B = (rng.random((9, n)) < 0.3).astype(np.int64)
    for j, count in enumerate((0, 1, n - 1, n)):  # every group size at its edge
        B[j] = 0
        B[j, rng.permutation(n)[:count]] = 1
    return ClickDataset(B)


def _benchmark_like_clicks(n):
    """200 users of Mallows(alpha = 5) rankings with 1..17 clicks each."""
    rng = np.random.default_rng(n)
    return binarize(make_dataset(np.arange(1, n + 1), 5.0, 200, rng), TruncatedPoisson(4.0, 1, 17), rng)


def _one_click_each(n):
    """Every user has one click, so at n = 2 no user has a pair to swap."""
    return ClickDataset(np.eye(n, dtype=np.int64)[np.random.default_rng(n).integers(0, n, 9)])


@pytest.mark.parametrize("n, alpha, make_clicks", [
    *(pytest.param(n, alpha, _edge_clicks, id=f"{n}-{alpha}") for n in (2, 3, 20) for alpha in (0.5, 4.0)),
    pytest.param(20, 5.0, _benchmark_like_clicks, id="20-5.0-benchmark-like"),
    # exp(-(1000 / 20) * d) is 0.0 for footrule changes d >= 15
    pytest.param(20, 1000.0, _edge_clicks, id="20-1000.0-underflow"),
    pytest.param(2, 4.0, _one_click_each, id="2-4.0-one-click-each"),
])
def test_seeded_clicking_chain_equals_the_padded_reference(n, alpha, make_clicks):
    clicks = make_clicks(n)
    cfg = McmcConfig(iterations=1200, burn_in=200, thin=3, seed=n + 1)
    trace, users = mcmc_clicking(clicks, alpha, cfg)
    want_rho, want_users, want_rate = reference_mcmc_clicking(clicks, alpha, cfg)
    assert np.array_equal(trace.rho_samples, want_rho)
    assert np.array_equal(users, want_users)
    assert trace.acceptance_rate == want_rate


def test_clicking_chain_past_the_alpha_cap():
    """Past alpha/n = 800 (``perms.mallows_scale``) every footrule change
    d >= 1 has exp(-(alpha/n) d) == 0, so the chain takes the capped scale: at
    alpha = 1e307 and 1e308, where (alpha/n) d overflows, it warns of nothing
    (warnings fail the suite) and equals the chain at alpha = 1e6 n."""
    n = 20
    rng = np.random.default_rng(4)
    clicks = (np.argsort(rng.random((50, n)), axis=1) < rng.integers(0, n + 1, 50)[:, None]).astype(np.int64)
    cfg = McmcConfig(iterations=300, burn_in=50, thin=2, seed=5)
    want, want_users = mcmc_clicking(clicks, 1e6 * n, cfg)
    for alpha in (1e307, 1e308):
        trace, users = mcmc_clicking(clicks, alpha, cfg)
        assert np.array_equal(trace.rho_samples, want.rho_samples) and np.array_equal(users, want_users)
        assert trace.acceptance_rate == want.acceptance_rate


class TestClickingChain:
    def _clicks(self, n, n_users, alpha, seed, lam=2.0):
        rng = np.random.default_rng(seed)
        data = make_dataset(np.arange(1, n + 1), alpha, n_users, rng)
        return binarize(data, TruncatedPoisson(lam, 1, n - 1), rng)

    def test_samples_stay_compatible(self):
        clicks = self._clicks(6, 15, 2.0, 0)
        _, users = mcmc_clicking(
            clicks, 2.0, McmcConfig(iterations=3000, burn_in=100, thin=10, seed=1)
        )
        for t in range(users.shape[0]):
            for j in range(clicks.n_users):
                assert in_compatible_set(users[t, j], clicks.clicks[j])

    def test_single_click_forces_top_rank(self):
        clicks = ClickDataset(np.array([[1, 0, 0]] * 5))
        _, users = mcmc_clicking(
            clicks, 2.0, McmcConfig(iterations=2000, burn_in=100, seed=2)
        )
        assert (users[:, :, 0] == 1).all()

    def test_all_clicked_is_unconstrained(self):
        clicks = ClickDataset(np.ones((8, 4), dtype=int))
        trace, users = mcmc_clicking(
            clicks, 1.0, McmcConfig(iterations=4000, burn_in=500, thin=5, seed=3)
        )
        # every user ranking value occurs: nothing is pinned to the top ranks
        assert users.min() == 1 and users.max() == 4
        spread = np.array([len(set(users[:, 0, i].tolist())) for i in range(4)])
        assert (spread == 4).all()

    def test_raw_click_array_equals_the_dataset(self):
        clicks = self._clicks(5, 10, 2.0, 6)
        cfg = McmcConfig(iterations=600, burn_in=100, thin=5, seed=12)
        trace, users = mcmc_clicking(clicks.clicks.tolist(), 2.0, cfg)
        want, want_users = mcmc_clicking(clicks, 2.0, cfg)
        assert np.array_equal(trace.rho_samples, want.rho_samples) and np.array_equal(users, want_users)
        with pytest.raises(ValueError, match="outside"):
            mcmc_clicking([[0, 2, 1]], 2.0, cfg)

    def test_deterministic_given_seed(self):
        clicks = self._clicks(5, 10, 2.0, 4)
        cfg = McmcConfig(iterations=2000, burn_in=100, thin=5, seed=11)
        t1, u1 = mcmc_clicking(clicks, 2.0, cfg)
        t2, u2 = mcmc_clicking(clicks, 2.0, cfg)
        assert np.array_equal(t1.rho_samples, t2.rho_samples)
        assert np.array_equal(u1, u2)

    def test_matches_augmented_posterior_enumeration(self):
        """Long-run consensus marginals against a brute-force sum over all
        compatible completions (feasible at n = 4)."""
        clicks = self._clicks(4, 20, 3.0, 99)
        alpha = 3.0
        perms = permutation_matrix(4)
        logw = np.zeros(len(perms))
        for b in clicks.clicks:
            c = b.sum()
            compat = perms[((perms <= c) == (b[None, :] == 1)).all(axis=1)]
            d = np.abs(compat[:, None, :] - perms[None, :, :]).sum(axis=2)
            logw += np.log(np.exp(-(alpha / 4) * d).sum(axis=0))
        w = np.exp(logw - logw.max())
        pexact = w / w.sum()
        marg_exact = np.zeros((4, 4))
        for i in range(4):
            np.add.at(marg_exact[i], perms[:, i] - 1, pexact)

        trace, _ = mcmc_clicking(
            clicks, alpha, McmcConfig(iterations=150000, burn_in=10000, thin=5, seed=5)
        )
        t = trace.n_samples
        for i in range(4):
            emp = np.bincount(trace.rho_samples[:, i] - 1, minlength=4) / t
            assert 0.5 * np.abs(emp - marg_exact[i]).sum() < 0.05
