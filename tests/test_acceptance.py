"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines as
they complete. Every tolerance is pinned here; replicate seeds are fixed so
the suite is deterministic.
"""

import time
from collections import Counter

import numpy as np
import pytest

from pseudomallows.clicking import TruncatedPoisson, binarize, estimate_alpha_clicks
from pseudomallows.data import RankCountMatrix, RankingDataset
from pseudomallows.evaluation import enumerate_ordering_study, iterative_search
from pseudomallows.exact import (
    elbo_exact,
    exact_distribution,
    exact_posterior,
    joint_kl_exact,
    log_evidence,
    mallows_distribution,
    marginal_median,
    marginal_profile_matrix,
    marginal_rank_distribution,
)
from pseudomallows.experiments import (
    ExperimentConfig,
    _calibration_bins,
    _score_recommendations,
    run_full_timing,
    run_g_bias,
)
from pseudomallows.mcmc import McmcConfig, mcmc_clicking, mcmc_rho
from pseudomallows.perms import (
    adjacent_swaps,
    ordering_of,
    permutation_matrix,
    v_set,
)
from pseudomallows.pseudo import (
    DEFAULT_ALPHA_GRID,
    PseudoConfig,
    estimate_alpha_full,
    estimate_rho_hat,
    pseudo_clicking,
    sample_rho,
    sample_rho_with_orderings,
)
from pseudomallows.simulate import make_dataset


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def _tv(counter: Counter, n_draws: int, support, probs) -> float:
    return 0.5 * sum(
        abs(counter.get(tuple(r), 0) / n_draws - p) for r, p in zip(support, probs)
    )


def test_criterion_01_oracle_equivalence_mcmc_vs_exact():
    """MCMC empirical distribution within TV 0.02 of the enumeration oracle."""
    start = time.perf_counter()
    data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(101))
    trace = mcmc_rho(data, 2.0, McmcConfig(iterations=200000, burn_in=2000, seed=11))
    post = exact_posterior(data, 2.0)
    counts = Counter(tuple(r) for r in trace.rho_samples)
    tv = _tv(counts, trace.n_samples, post.support, post.probs)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (oracle equivalence)",
        tv < 0.02 and elapsed < 60.0,
        f"TV={tv:.5f} < 0.02, runtime={elapsed:.1f}s < 60s",
    )


def test_criterion_02_pseudo_mallows_self_consistency():
    """Sampler frequencies match the exact factorized distribution, and the
    factor numerators multiply to the unnormalized posterior weight."""
    data = make_dataset((1, 2, 3), 2.0, 10, np.random.default_rng(202))
    ordering = ordering_of((2, 1, 3))
    dist = exact_distribution(data, 2.0, ordering)
    orderings = np.broadcast_to(ordering, (100000, 3))
    draws = sample_rho_with_orderings(data, 2.0, orderings, np.random.default_rng(21))
    tv = _tv(Counter(tuple(r) for r in draws), 100000, dist.support, dist.probs)

    identity_exact = True
    for n in (2, 3, 4, 5):
        ds = make_dataset(np.arange(1, n + 1), 2.0, 12, np.random.default_rng(300 + n))
        cost = RankCountMatrix.from_dataset(ds).cost
        perms = permutation_matrix(n)
        seq = cost[np.arange(n)[None, :], perms - 1].sum(axis=1)
        direct = np.abs(ds.rankings[:, None, :] - perms[None, :, :]).sum(axis=(0, 2))
        identity_exact &= bool(np.array_equal(seq, direct))
    _report(
        "criterion 2 (pseudo-Mallows self-consistency)",
        tv < 0.02 and identity_exact,
        f"TV={tv:.5f} < 0.02 at 1e5 draws; factor-product identity exact for n<=5: {identity_exact}",
    )


def test_criterion_03_marginal_structure_suite():
    """(a) middle-item symmetry to 1e-12; (b) strictly increasing expected
    ranks; (c) restricted medians minimize the expected L1 cost, and the
    data-level minimizer matches an independent brute force."""
    start = time.perf_counter()

    # (a) symmetry of the middle item's rank distribution
    worst_gap = 0.0
    for n in (3, 5, 7):
        rng = np.random.default_rng(n)
        rho0 = rng.permutation(n) + 1
        m = (n + 1) // 2
        middle_item = int(np.flatnonzero(rho0 == m)[0]) + 1
        for alpha in (0.1, 1.0, 5.0):
            marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), middle_item)
            for k in range(1, m):
                worst_gap = max(worst_gap, abs(marg[m - k - 1] - marg[m + k - 1]))
    sym_ok = worst_gap < 1e-12

    # (b) strict monotonicity of expected ranks along the base ordering
    mono_ok = True
    for n in range(2, 8):
        rng = np.random.default_rng(50 + n)
        rho0 = rng.permutation(n) + 1
        for alpha in (0.1, 1.0, 5.0):
            profile = marginal_profile_matrix(mallows_distribution(rho0, alpha))
            expectations = profile @ np.arange(1, n + 1)
            along = expectations[np.argsort(rho0)]
            mono_ok &= bool(np.all(np.diff(along) > 0))

    # (c) median/minimizer equality on 100 random instances of each kind
    rng = np.random.default_rng(33)
    median_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 8))
        rho0 = rng.permutation(n) + 1
        alpha = float(rng.uniform(0.2, 5.0))
        item = int(rng.integers(1, n + 1))
        excluded = set(
            int(v) for v in rng.choice(n, size=rng.integers(0, n - 1), replace=False) + 1
        )
        marg = marginal_rank_distribution(mallows_distribution(rho0, alpha), item)
        admissible = [r for r in range(1, n + 1) if r not in excluded]
        costs = {l: sum(abs(a - l) * marg[a - 1] for a in admissible) for l in admissible}
        best = min(costs.values())
        med = marginal_median(rho0, alpha, item, excluded)
        median_ok &= costs[med] <= best + 1e-12

    from pseudomallows.exact import constrained_l1_minimizer

    brute_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        rows = np.array([rng.permutation(n) + 1 for _ in range(rng.integers(1, 15))])
        ds = RankingDataset(rows)
        item = int(rng.integers(1, n + 1))
        excluded = set(
            int(v) for v in rng.choice(n, size=rng.integers(0, n - 1), replace=False) + 1
        )
        admissible = [l for l in range(1, n + 1) if l not in excluded]
        costs = [(int(np.abs(rows[:, item - 1] - l).sum()), l) for l in admissible]
        low = min(c for c, _ in costs)
        brute_ok &= constrained_l1_minimizer(ds, item, excluded) == min(
            l for c, l in costs if c == low
        )

    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (marginal structure suite)",
        sym_ok and mono_ok and median_ok and brute_ok and elapsed < 120.0,
        f"symmetry gap={worst_gap:.2e} < 1e-12, monotone={mono_ok}, "
        f"median oracle={median_ok}, brute force={brute_ok}, runtime={elapsed:.1f}s < 120s",
    )


def test_criterion_04_kl_elbo_identity():
    """joint KL + ELBO = log evidence at 1e-10, exhaustively for n <= 4 and
    on 50 random orderings at n = 5."""
    worst = 0.0
    for n in (2, 3, 4):
        data = make_dataset(np.arange(1, n + 1), 1.5, 10, np.random.default_rng(400 + n))
        logz = log_evidence(data, 1.5)
        for perm in permutation_matrix(n):
            o = ordering_of(perm)
            gap = abs(joint_kl_exact(data, 1.5, o) + elbo_exact(data, 1.5, o) - logz)
            worst = max(worst, gap)
    data5 = make_dataset(np.arange(1, 6), 2.0, 15, np.random.default_rng(405))
    logz5 = log_evidence(data5, 2.0)
    rng = np.random.default_rng(44)
    for _ in range(50):
        o = rng.permutation(5) + 1
        gap = abs(joint_kl_exact(data5, 2.0, o) + elbo_exact(data5, 2.0, o) - logz5)
        worst = max(worst, gap)
    _report(
        "criterion 4 (KL/ELBO identity)",
        worst < 1e-10,
        f"worst residual {worst:.2e} < 1e-10",
    )


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_05_v_ranking_optimality(n):
    """Exhaustive ordering search puts the KL argmin inside the V-set of the
    generating ranking in at least 16 of 20 synthetic datasets."""
    rho0 = np.arange(1, n + 1)
    vs = v_set(rho0)
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(1000 + rep)
        data = make_dataset(rho0, 2.0, 50, rng)
        best = enumerate_ordering_study(data, 2.0)[0][0]
        hits += np.array(best) in vs
    _report(
        f"criterion 5 (V-ranking optimality, n={n})",
        hits >= 16,
        f"argmin in V-set in {hits}/20 datasets (need >= 16)",
    )


def test_criterion_06_iterative_search():
    """From a perturbed V start, the best-so-far ordering-ranking lands
    within footrule 2 of a V-set member in at least 15 of 20 runs."""
    start = time.perf_counter()
    n, alpha0, n_users = 5, 2.5, 200
    rho0 = np.arange(1, n + 1)
    vs = v_set(rho0)
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(2000 + rep)
        data = make_dataset(rho0, alpha0, n_users, rng)
        init = adjacent_swaps(vs.sample(rng), n, rng)
        trace = iterative_search(data, alpha0, init, max_iters=25, eval_mode="exact", rng=rng)
        hits += vs.nearest_distance(trace.best_ranking) <= 2
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 (iterative search)",
        hits >= 15 and elapsed < 600.0,
        f"{hits}/20 runs within footrule 2 (need >= 15), runtime={elapsed:.1f}s < 600s",
    )


def test_criterion_07_mean_rank_recovery():
    """Ranking the mean ranks of 5000 draws recovers the generating ranking
    in at least 19 of 20 replicates."""
    rho0 = np.arange(1, 11)
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(900 + rep)
        data = make_dataset(rho0, 2.0, 5000, rng)
        hits += bool(np.array_equal(estimate_rho_hat(data), rho0))
    _report(
        "criterion 7 (mean-rank recovery)",
        hits >= 19,
        f"recovered exactly in {hits}/20 replicates (need >= 19)",
    )


def _lag1(series: np.ndarray) -> float:
    x = series - series.mean()
    return float((x[:-1] * x[1:]).sum() / (x * x).sum())


def test_criterion_08a_autocorrelation():
    """Independent draws versus a sticky chain at matched budgets."""
    rho0 = np.arange(1, 21)
    data = make_dataset(rho0, 2.0, 200, np.random.default_rng(808))
    ss = sample_rho(data, PseudoConfig(2.0, 0.0, 2000, seed=17))
    pm_acf = _lag1(np.abs(ss.samples - rho0).sum(axis=1).astype(float))
    trace = mcmc_rho(data, 2.0, McmcConfig(iterations=4000, burn_in=2000, seed=18))
    mc_acf = _lag1(np.abs(trace.rho_samples - rho0).sum(axis=1).astype(float))
    _report(
        "criterion 8a (lag-1 autocorrelation)",
        abs(pm_acf) < 0.05 and mc_acf > 0.2,
        f"pseudo |r|={abs(pm_acf):.4f} < 0.05, mcmc r={mc_acf:.4f} > 0.2",
    )


def test_criterion_08b_smallest_budget_comparison():
    """At wall-clock-matched smallest budgets the independent sampler's
    consensus error is no worse in at least 15 of 20 replicates."""
    cfg = ExperimentConfig(
        kind="full-timing", n=20, n_users=200, alpha0=2.0, replicates=20, seed=12345,
        mcmc_iterations=(300,), pm_samples=(50,),
    )
    table = run_full_timing(cfg)
    wins = 0
    for rep in range(20):
        mc = table.where(replicate=rep, method="mcmc", x_value=300).rows[0]
        pm = table.where(replicate=rep, method="pseudo", x_value=50).rows[0]
        wins += pm["y_value"] <= mc["y_value"]
    pm_wall = float(np.median([r["wall_clock"] for r in table.where(method="pseudo").rows]))
    mc_wall = float(np.median([r["wall_clock"] for r in table.where(method="mcmc").rows]))
    _report(
        "criterion 8b (smallest-budget error)",
        wins >= 15 and pm_wall <= 2.0 * mc_wall,
        f"pseudo error <= mcmc error in {wins}/20 (need >= 15); "
        f"median wall: pseudo {pm_wall*1e3:.2f}ms vs mcmc {mc_wall*1e3:.2f}ms",
    )


def test_criterion_08c_per_sample_scaling():
    """Doubling n at fixed N grows per-sample cost at most fivefold."""
    rng = np.random.default_rng(0)
    per_sample = {}
    for n in (20, 40):
        data = make_dataset(np.arange(1, n + 1), 2.0, 100, rng)
        timings = []
        for trial in range(7):
            ss = sample_rho(data, PseudoConfig(2.0, 0.0, 500, seed=trial))
            timings.append(ss.wall_clock / 500)
        # minimum over repeats is the least noisy per-sample cost estimate
        per_sample[n] = float(np.min(timings))
    ratio = per_sample[40] / per_sample[20]
    _report(
        "criterion 8c (per-sample scaling)",
        ratio <= 5.0,
        f"n 20->40 per-sample ratio {ratio:.2f} <= 5.0 "
        f"({per_sample[20]*1e6:.1f}us -> {per_sample[40]*1e6:.1f}us)",
    )


def test_criterion_09_clicking_pipeline():
    """Accuracy at least twice the random baseline and within 10 points of a
    long MCMC run (majority of 20 replicates); pooled long-budget calibration
    bins with at least 50 predictions stay within 0.1."""
    n, n_users, alpha0, lam, k = 20, 200, 5.0, 4.0, 3
    rho0 = np.arange(1, n + 1)
    model = TruncatedPoisson(mean=lam, low=1, high=n - 3)
    passes = 0
    pooled_preds = []
    for rep in range(20):
        rng = np.random.default_rng(8800 + rep)
        data = make_dataset(rho0, alpha0, n_users, rng)
        clicks = binarize(data, model, rng)
        baseline = float(np.mean(k / (n - clicks.click_counts().mean())))
        ss, users = pseudo_clicking(
            clicks, PseudoConfig(alpha0, 0.0, 400, seed=rep), warmup=10
        )
        pm_acc, preds = _score_recommendations(users, clicks, data.rankings, k)
        pooled_preds.extend(preds)
        trace, musers = mcmc_clicking(
            clicks, alpha0,
            McmcConfig(iterations=4000, burn_in=800, thin=16, seed=100 + rep),
        )
        mc_acc, _ = _score_recommendations(musers, clicks, data.rankings, k)
        passes += (pm_acc >= 2 * baseline) and (pm_acc >= mc_acc - 0.10)
    calib = _calibration_bins(pooled_preds)
    big_bins = [(p, a, c) for p, a, c in calib if c >= 50]
    worst = max((abs(p - a) for p, a, c in big_bins), default=0.0)
    _report(
        "criterion 9 (clicking pipeline)",
        passes >= 11 and len(big_bins) >= 2 and worst <= 0.1,
        f"{passes}/20 replicates pass accuracy bars (need >= 11); "
        f"calibration worst |pred-acc|={worst:.3f} <= 0.1 over {len(big_bins)} bins "
        f"holding >= 50 predictions",
    )


def test_criterion_10_ordering_distribution_bias():
    """Uniform ordering draws keep every item's marginal mode on its true
    rank; V-set ordering draws push at least one extreme item's mode off."""
    cfg = ExperimentConfig(kind="g-bias", n=20, alpha0=15.0, n_samples=2000, seed=42)
    table = run_g_bias(cfg)
    modes = {}
    for method in ("uniform-g", "v-g"):
        rows = table.where(method=method, y_name="mode_rank").rows
        modes[method] = {r["x_value"]: r["y_value"] for r in rows}
    diag = sum(1 for item, mode in modes["uniform-g"].items() if mode == item)
    extremes = (1, 2, 3, 18, 19, 20)
    deviated = [item for item in extremes if modes["v-g"][item] != item]
    _report(
        "criterion 10 (ordering-distribution bias)",
        diag >= 18 and len(deviated) >= 1,
        f"uniform-g diagonal modes {diag}/20 (need >= 18); "
        f"v-g off-diagonal extreme items: {deviated} (need >= 1)",
    )


def test_criterion_11_alpha_roundtrips():
    """Grid re-estimation lands within one grid step of the generating scale
    in at least 17 of 20 replicates, for complete rankings and for clicks."""
    grid = DEFAULT_ALPHA_GRID
    target = grid.index(3.0)
    full_hits = 0
    for rep in range(20):
        rng = np.random.default_rng(5000 + rep)
        data = make_dataset(np.arange(1, 11), 3.0, 300, rng)
        est = estimate_alpha_full(data, grid, sim_users=300, rng=rng)
        full_hits += abs(grid.index(est) - target) <= 1

    cgrid = (1.0, 3.0, 8.0)
    model = TruncatedPoisson(mean=4.0, low=1, high=20)
    click_hits = 0
    for rep in range(20):
        rng = np.random.default_rng(6000 + rep)
        data = make_dataset(np.arange(1, 21), 3.0, 300, rng)
        clicks = binarize(data, model, rng)
        est = estimate_alpha_clicks(clicks, cgrid, count_model=model, sim_users=300, rng=rng)
        click_hits += abs(cgrid.index(est) - cgrid.index(3.0)) <= 1
    _report(
        "criterion 11 (alpha round-trips)",
        full_hits >= 17 and click_hits >= 17,
        f"full {full_hits}/20, clicks {click_hits}/20 within one grid step (need >= 17 each)",
    )
