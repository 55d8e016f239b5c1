"""Seeded experiment runners at desk scale.

Every runner consumes an :class:`ExperimentConfig` and emits a long-format
:class:`ResultTable`; rows carry the replicate seed and a config hash so a
run can be replayed exactly (wall-clock readings are physical measurements
and are excluded from the replay guarantee). Wall clock charges sampler
time only, never data generation or I/O.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .clicking import TruncatedPoisson, binarize, estimate_alpha_clicks, recommend_all
from .data import ClickDataset, RankingDataset, SampleSet, rank_counts
from .evaluation import (
    MarginalProfile,
    choose_sigma,
    enumerate_ordering_study,
    posterior_profile,
)
from .mcmc import McmcConfig, mcmc_clicking, mcmc_rho
from .perms import check_alpha, check_count, footrule_distance, v_set
from .pseudo import (
    DEFAULT_ALPHA_GRID,
    PseudoConfig,
    check_alpha_grid,
    estimate_alpha_full,
    pseudo_clicking,
    sample_rho,
    sample_rho_with_orderings,
)
from .simulate import make_dataset

COLUMNS = (
    "experiment",
    "replicate",
    "method",
    "x_name",
    "x_value",
    "y_name",
    "y_value",
    "detail",
    "wall_clock",
    "seed",
    "config_hash",
)

@dataclass
class ResultTable:
    """Long-format experiment results with a stable column order."""

    columns: tuple[str, ...] = COLUMNS
    rows: list[dict] = field(default_factory=list)

    def append(self, **kw) -> None:
        unknown = set(kw) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        row = {c: kw.get(c, "") for c in self.columns}
        self.rows.append(row)

    def where(self, **conditions) -> "ResultTable":
        keep = [
            r for r in self.rows if all(r[k] == v for k, v in conditions.items())
        ]
        return ResultTable(self.columns, keep)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ExperimentConfig:
    """One document configuring any experiment kind; unknown keys rejected."""

    kind: str
    n: int = 10
    n_users: int = 200
    alpha0: float = 2.0
    sigma: float = 0.0
    replicates: int = 20
    seed: int = 0
    # smallest budget points are wall-clock matched (PM-50 and MCMC-300 cost
    # about the same on desk-scale data)
    mcmc_iterations: tuple[int, ...] = (300, 5000, 50000)
    pm_samples: tuple[int, ...] = (50, 500, 2000)
    pm_iterations: tuple[int, ...] = (30, 200)
    click_mean: float = 5.0
    click_min: int = 1
    click_max: int | None = None
    k: int = 3
    warmup: int = 10
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    sigma_grid: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    n_samples: int = 2000
    sim_users: int = 300
    output_dir: str | None = None

    def __post_init__(self):
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        lows = dict(n=1, n_users=1, replicates=1, k=1, n_samples=1, sim_users=2, warmup=0, seed=0, click_min=0)
        for name, low in lows.items():
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        if self.click_max is not None:
            object.__setattr__(self, "click_max", check_count(self.click_max, "click_max", self.click_min))
        for name in ("alpha0", "click_mean", "sigma"):
            check_alpha(getattr(self, name), name == "sigma", name)
        for name in ("mcmc_iterations", "pm_samples", "pm_iterations"):
            budgets = tuple(check_count(v, f"{name} entry", 1) for v in getattr(self, name))
            if not budgets:
                raise ValueError(f"{name} must hold at least one budget")
            object.__setattr__(self, name, budgets)
        object.__setattr__(self, "alpha_grid", check_alpha_grid(self.alpha_grid))
        object.__setattr__(self, "sigma_grid", tuple(check_alpha(v, True, "sigma_grid") for v in self.sigma_grid))
        if not self.sigma_grid:
            raise ValueError("sigma_grid must hold at least one value")

    @classmethod
    def from_json(cls, document: str | dict) -> "ExperimentConfig":
        doc = json.loads(document) if isinstance(document, str) else dict(document)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


def _replicate_seed(base: int, replicate: int) -> int:
    return int(np.random.SeedSequence((base, replicate)).generate_state(1)[0])


def _replicate_rows(cfg: ExperimentConfig, count: int, body) -> ResultTable:
    """The rows of ``body(rep, rng, add)`` for replicates 0..count-1, in order.

    ``rng`` is seeded with the replicate's seed, and ``add`` appends a row
    stamped with the experiment kind, the replicate, that seed and the config
    hash (keywords passed to ``add`` override the stamp).
    """
    chash = cfg.hash()
    table = ResultTable()
    for rep in range(count):
        seed = _replicate_seed(cfg.seed, rep)
        add = partial(table.append, experiment=cfg.kind, replicate=rep, seed=seed, config_hash=chash)
        body(rep, np.random.default_rng(seed), add)
    return table


def cp_consensus(samples) -> np.ndarray:
    """Cumulative-probability consensus of a sample set.

    Ranks are filled from 1 upward; each rank goes to the unassigned item
    with the largest empirical P(R_item <= rank), ties by item index.
    """
    arr = np.asarray(samples.samples if isinstance(samples, SampleSet) else samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("need a nonempty (T, n) sample array")
    t, n = arr.shape
    cum = np.cumsum(rank_counts(arr), axis=1) / t
    out = np.zeros(n, dtype=np.int64)  # 0 while the item is unassigned
    for rank in range(1, n + 1):
        out[int(np.argmax(np.where(out == 0, cum[:, rank - 1], -1.0)))] = rank
    return out


def run_full_timing(cfg: ExperimentConfig) -> ResultTable:
    """Consensus error versus sampler wall clock for both methods."""
    rho0 = np.arange(1, cfg.n + 1)

    def one(rep: int, rng, add) -> None:
        data = make_dataset(rho0, cfg.alpha0, cfg.n_users, rng)
        for iters in cfg.mcmc_iterations:
            trace = mcmc_rho(
                data,
                cfg.alpha0,
                McmcConfig(iterations=iters, seed=int(rng.integers(2**63))),
            )
            err = footrule_distance(cp_consensus(trace.rho_samples), rho0)
            add(
                method="mcmc", x_name="iterations", x_value=iters,
                y_name="consensus_footrule", y_value=err, wall_clock=trace.wall_clock,
            )
        for count in cfg.pm_samples:
            ss = sample_rho(
                data,
                PseudoConfig(cfg.alpha0, cfg.sigma, count, seed=int(rng.integers(2**63))),
            )
            err = footrule_distance(cp_consensus(ss), rho0)
            add(
                method="pseudo", x_name="samples", x_value=count,
                y_name="consensus_footrule", y_value=err, wall_clock=ss.wall_clock,
            )

    return _replicate_rows(cfg, cfg.replicates, one)


def _score_recommendations(user_traces, clicks: ClickDataset, truth, k: int):
    """Fraction of recommended items whose held-out true rank falls in the
    next-k window, plus (predicted probability, hit) pairs for calibration."""
    counts = clicks.click_counts()
    correct = total = 0
    preds: list[tuple[float, bool]] = []
    for j, recs in enumerate(recommend_all(user_traces, clicks, k)):
        c = int(counts[j])
        for item, prob in recs:
            hit = c + 1 <= truth[j, item - 1] <= c + k
            correct += hit
            total += 1
            preds.append((prob, bool(hit)))
    return (correct / total if total else float("nan")), preds


def _calibration_bins(preds):
    """(bin mean predicted, realized accuracy, count) triples over ten
    equal-width probability bins, empty bins skipped."""
    if not preds:
        return []
    probs, hits = np.array(preds, dtype=np.float64).T
    which = np.clip(np.digitize(probs, np.linspace(0.0, 1.0, 11)) - 1, 0, 9)
    return [(float(probs[sel].mean()), float(hits[sel].mean()), int(sel.sum()))
            for sel in (which == b for b in range(10)) if sel.any()]


def run_clicking_accuracy(cfg: ExperimentConfig) -> ResultTable:
    """Recommendation accuracy versus time for both methods on click data,
    with a random-guess baseline and calibration rows."""
    rho0 = np.arange(1, cfg.n + 1)
    click_max = cfg.click_max if cfg.click_max is not None else cfg.n - 3
    model = TruncatedPoisson(mean=cfg.click_mean, low=cfg.click_min, high=click_max)

    def fit_mcmc(clicks, iters: int, seed: int):
        burn = iters // 5
        thin = max(1, (iters - burn) // 200)
        mcfg = McmcConfig(iterations=iters, burn_in=burn, thin=thin, seed=seed)
        trace, users = mcmc_clicking(clicks, cfg.alpha0, mcfg)
        return users, trace.wall_clock

    def fit_pseudo(clicks, iters: int, seed: int):
        pcfg = PseudoConfig(cfg.alpha0, cfg.sigma, iters, seed=seed)
        ss, users = pseudo_clicking(clicks, pcfg, warmup=cfg.warmup)
        return users, ss.wall_clock

    arms = (
        ("mcmc", "iterations", cfg.mcmc_iterations, fit_mcmc),
        ("pseudo", "samples", cfg.pm_iterations, fit_pseudo),
    )

    def one(rep: int, rng, add) -> None:
        data = make_dataset(rho0, cfg.alpha0, cfg.n_users, rng)
        clicks = binarize(data, model, rng)
        truth = data.rankings
        counts = clicks.click_counts()
        baseline = float(np.mean(cfg.k / (cfg.n - counts)))
        add(
            method="random", x_name="budget", x_value=0,
            y_name="accuracy", y_value=baseline, wall_clock=0.0,
        )
        for method, x_name, budgets, fit in arms:
            for budget in budgets:
                users, wall = fit(clicks, budget, int(rng.integers(2**63)))
                acc, preds = _score_recommendations(users, clicks, truth, cfg.k)
                add(
                    method=method, x_name=x_name, x_value=budget,
                    y_name="accuracy", y_value=acc, wall_clock=wall,
                )
                for mean_p, realized, count in _calibration_bins(preds):
                    add(
                        method=method, x_name="predicted_probability", x_value=mean_p,
                        y_name="realized_accuracy", y_value=realized,
                        detail=f"budget={budget};count={count}", wall_clock=wall,
                    )

    return _replicate_rows(cfg, cfg.replicates, one)


def _rank_bands(n: int) -> list[tuple[int, ...]]:
    """Rank bands matching the V-set pair structure: [1],[2,3],... for odd n,
    [1,2],[3,4],... for even n."""
    odd = n % 2
    return [(1,)] * odd + [(r, r + 1) for r in range(1 + odd, n, 2)]


def run_ordering_enum(cfg: ExperimentConfig) -> ResultTable:
    """Exhaustive ordering study: per-replicate KL-minimizing ordering-ranking
    plus the aggregated band-membership heat matrix (rows sum to 1)."""
    rho0 = np.arange(1, cfg.n + 1)
    best_rankings = {}

    def one(rep: int, rng, add) -> None:
        data = make_dataset(rho0, cfg.alpha0, cfg.n_users, rng)
        ranking, kl = enumerate_ordering_study(data, cfg.alpha0)[0]
        best_rankings[rep] = ranking
        add(
            method="enumeration", x_name="argmin_ranking", x_value=",".join(map(str, ranking)),
            y_name="marginal_kl", y_value=kl,
            detail=f"in_v_set={ranking in v_set(rho0)}", wall_clock=0.0,
        )

    table = _replicate_rows(cfg, cfg.replicates, one)
    best = np.array([best_rankings[rep] for rep in range(cfg.replicates)])
    add = partial(table.append, experiment=cfg.kind, replicate=-1, seed=cfg.seed, config_hash=cfg.hash())
    for band in _rank_bands(cfg.n):
        for item in range(1, cfg.n + 1):
            hits = np.isin(best[:, item - 1], band).sum()
            prob = hits / (len(best) * len(band))
            add(
                method="enumeration", x_name="item", x_value=item,
                y_name="band_probability", y_value=float(prob),
                detail=f"band={'|'.join(map(str, band))}", wall_clock=0.0,
            )
    return table


def run_sigma_study(cfg: ExperimentConfig) -> ResultTable:
    """Grid-selected jitter scale per generating alpha (optimal-sigma curves)."""
    rho0 = np.arange(1, cfg.n + 1)

    def one(task: int, rng, add) -> None:
        a_idx, rep = divmod(task, cfg.replicates)
        alpha0 = cfg.alpha_grid[a_idx]
        data = make_dataset(rho0, alpha0, cfg.n_users, rng)
        reference = posterior_profile(data, alpha0)
        best = choose_sigma(
            data, alpha0, cfg.sigma_grid, reference,
            n_samples=cfg.n_samples, rng=rng,
        )
        add(
            replicate=rep, method="pseudo", x_name="alpha0", x_value=alpha0,
            y_name="best_sigma", y_value=best, wall_clock=0.0,
        )

    return _replicate_rows(cfg, len(cfg.alpha_grid) * cfg.replicates, one)


def run_g_bias(cfg: ExperimentConfig) -> ResultTable:
    """Marginal heat matrices of the sequential sampler under uniform versus
    V-set ordering draws, with no click constraint (single group)."""
    rho0 = np.arange(1, cfg.n + 1)
    base = RankingDataset(rho0[None, :])
    t = cfg.n_samples

    def one(rep: int, rng, add) -> None:
        keys = rng.random((t, cfg.n))
        uniform_orderings = np.argsort(keys, axis=1) + 1
        v_orderings = np.argsort(v_set(rho0).sample(rng, t), axis=1) + 1
        for name, orderings in (("uniform-g", uniform_orderings), ("v-g", v_orderings)):
            draws = sample_rho_with_orderings(base, cfg.alpha0, orderings, rng)
            profile = MarginalProfile.from_samples(draws, smoothing=1e-12).matrix
            for item in range(1, cfg.n + 1):
                mode = int(np.argmax(profile[item - 1])) + 1
                add(
                    method=name, x_name="item", x_value=item,
                    y_name="mode_rank", y_value=mode,
                    detail=f"true_rank={int(rho0[item - 1])}", wall_clock=0.0,
                )
                for rank in range(1, cfg.n + 1):
                    add(
                        method=name, x_name="item", x_value=item,
                        y_name="rank_probability", y_value=float(profile[item - 1, rank - 1]),
                        detail=f"rank={rank}", wall_clock=0.0,
                    )

    return _replicate_rows(cfg, 1, one)


def run_alpha_roundtrip(cfg: ExperimentConfig) -> ResultTable:
    """Generate at a known alpha, re-estimate it from full rankings and from
    binarized clicks, and tabulate recovered versus true."""
    rho0 = np.arange(1, cfg.n + 1)
    click_max = cfg.click_max if cfg.click_max is not None else cfg.n
    model = TruncatedPoisson(mean=cfg.click_mean, low=cfg.click_min, high=click_max)

    def one(rep: int, rng, add) -> None:
        data = make_dataset(rho0, cfg.alpha0, cfg.n_users, rng)
        a_full = estimate_alpha_full(data, cfg.alpha_grid, sim_users=cfg.sim_users, rng=rng)
        add(
            method="full", x_name="alpha0", x_value=cfg.alpha0,
            y_name="alpha_hat", y_value=a_full, wall_clock=0.0,
        )
        clicks = binarize(data, model, rng)
        a_clicks = estimate_alpha_clicks(
            clicks, cfg.alpha_grid, count_model=model, sim_users=cfg.sim_users, rng=rng
        )
        add(
            method="clicks", x_name="alpha0", x_value=cfg.alpha0,
            y_name="alpha_hat", y_value=a_clicks, wall_clock=0.0,
        )

    return _replicate_rows(cfg, cfg.replicates, one)


RUNNERS = {
    "full-timing": run_full_timing,
    "clicking-accuracy": run_clicking_accuracy,
    "ordering-enum": run_ordering_enum,
    "sigma-study": run_sigma_study,
    "g-bias": run_g_bias,
    "alpha-roundtrip": run_alpha_roundtrip,
}


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    return RUNNERS[cfg.kind](cfg)
