"""The benchmark's workloads: seeded inputs, the timed loop and its checks.

Each workload writes its input CSV, loads it back through ``pseudomallows.io``
several times (set-up), then repeats rounds of "pseudo fit, recommendation
(click data only), MCMC baseline" until the time budget is spent. The
package is only called through its public functions; every output is checked
outside the timed calls.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pseudomallows as pm
from pseudomallows.io import save_rankings

from pace import Pace
from spans import Tracer


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str  # "rankings" or "clicks"
    n: int
    n_users: int
    alpha: float
    samples: int  # draws per pseudo fit (T)
    mcmc_iterations: int
    mcmc_burn_in: int
    mcmc_thin: int
    pool: int = 0  # > 0: users are resampled from this many Mallows draws
    warmup: int = 0
    k: int = 0
    click_mean: float = 0.0
    click_high: int = 0
    mcmc_per_round: int = 1  # baseline runs per fit, so both get enough samples
    probe_repeats: int = 1  # probe calls per traced round, so each is timed long enough


SHAPES = {
    s.name: s
    for s in (
        Shape("rankings-wide", "rankings", n=200, n_users=500, alpha=5.0, samples=1000,
              mcmc_iterations=50_000, mcmc_burn_in=10_000, mcmc_thin=40),
        Shape("rankings-tall", "rankings", n=20, n_users=100_000, alpha=2.0, samples=500,
              mcmc_iterations=50_000, mcmc_burn_in=10_000, mcmc_thin=40, pool=3000,
              probe_repeats=5),
        Shape("clicks", "clicks", n=20, n_users=200, alpha=5.0, samples=400,
              mcmc_iterations=4000, mcmc_burn_in=800, mcmc_thin=16,
              warmup=10, k=3, click_mean=4.0, click_high=17, mcmc_per_round=2,
              probe_repeats=10),
    )
}

MIN_ROUNDS = 3
MIN_LOADS = 5
MAX_LOADS = 200
LOAD_SHARE = 0.2  # keep loading until this share of the budget is spent

# The n=6 oracle: marginal KL of each sampler's profile to the exact posterior.
ORACLE = dict(n=6, n_users=5, alpha=1.0, samples=20_000, mcmc_iterations=60_000)
ORACLE_KL_BOUND = {"pseudo": 0.6, "mcmc": 0.02}


class Ledger:
    """Operations attempted and those that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass
class Inputs:
    path: Path
    table: np.ndarray  # what the CSV holds
    rho0: np.ndarray  # true consensus
    truth: np.ndarray  # true user rankings


def _seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def make_inputs(shape: Shape, seed: int, directory: Path) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    rho0 = rng.permutation(shape.n) + 1
    if shape.pool:
        pool = pm.sample_mallows(rho0, shape.alpha, shape.pool, rng)
        truth = pool[rng.integers(0, shape.pool, shape.n_users)]
    else:
        truth = pm.sample_mallows(rho0, shape.alpha, shape.n_users, rng)
    table = truth
    if shape.kind == "clicks":
        model = pm.TruncatedPoisson(mean=shape.click_mean, low=1, high=shape.click_high)
        table = pm.binarize(pm.RankingDataset(truth), model, rng).clicks
    path = directory / f"{shape.name}.csv"
    save_rankings(table, path)
    return Inputs(path, np.asarray(table), rho0, truth)


def is_permutation(arr) -> bool:
    arr = np.asarray(arr)
    return bool(np.array_equal(np.sort(arr, axis=-1), np.broadcast_to(np.arange(1, arr.shape[-1] + 1), arr.shape)))


def all_compatible(users: np.ndarray, clicks: np.ndarray) -> bool:
    """Every user draw is a permutation that puts the user's clicked items on
    ranks 1..c.

    The (T, N, n) trace is checked with the ``in_compatible_set`` rule one draw
    at a time, so the check holds no copy of the trace that would show in the
    peak memory, and the last draw of every user through the function itself.
    """
    c = clicks.sum(axis=1)[:, None]
    clicked = clicks == 1
    ok = all(is_permutation(u) and np.where(clicked, u <= c, u >= c + 1).all() for u in users)
    return bool(ok) and all(pm.in_compatible_set(users[-1, j], clicks[j]) for j in range(clicks.shape[0]))


def digest(*arrays) -> str:
    """A hash of the arrays' shapes and contents; None entries count too."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(None if a is None else (a.dtype.str, a.shape)).encode())
        if a is not None:
            h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def v_orderings(rho_hat, count: int, rng) -> np.ndarray:
    """``count`` V-set orderings of ``rho_hat`` as 1-based item sequences."""
    vset = pm.v_set(rho_hat)
    members = np.array([vset.sample(rng) for _ in range(count)])
    return np.argsort(members, axis=1, kind="stable") + 1


def recommend_all(users: np.ndarray, clicks: np.ndarray, k: int):
    """``recommend_topk`` for every user, as ``pseudomallows recommend`` does."""
    n = clicks.shape[1]
    out = []
    for j, row in enumerate(clicks):
        take = min(k, n - int(row.sum()))
        out.append(pm.recommend_topk(users[:, j, :], row, take) if take >= 1 else [])
    return out


def score_recs(recs, clicks: np.ndarray, truth: np.ndarray, k: int):
    """(hits, recommended, all lists valid) for one set of recommendations."""
    n = clicks.shape[1]
    hits = total = 0
    valid = True
    for j, rec in enumerate(recs):
        c = int(clicks[j].sum())
        items = [r.item for r in rec]
        valid &= len(items) == min(k, n - c) and len(set(items)) == len(items)
        valid &= all(1 <= i <= n and clicks[j, i - 1] == 0 for i in items)
        hits += sum(c + 1 <= truth[j, i - 1] <= c + k for i in items)
        total += len(items)
    return hits, total, valid


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One workload run: set-up, timed rounds, checks and metrics."""

    def __init__(self, shape: Shape, seed: int, seconds: float, trace: bool, workdir: Path):
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        run_id = f"{shape.name}-{seed}"
        self.tracer = Tracer(run_id, enabled=trace)
        self.plain = Tracer(run_id, enabled=False)
        self.ledger = Ledger()
        # Wall times of the timed calls, and the same scaled to reference speed.
        self.wall: dict[str, list[float]] = {k: [] for k in ("setup", "fit", "fit_traced", "mcmc", "recommend")}
        self.times: dict[str, list[float]] = {k: [] for k in self.wall}
        self.quality: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        # Per traced round: the traced fit's wall time, and the part of it the
        # probes do not account for.
        self.decomposition: list[dict[str, float]] = []

    def record(self, key: str, seconds: float) -> None:
        self.wall[key].append(seconds)
        self.times[key].append(self.pace.scale(seconds))

    # -- set-up ---------------------------------------------------------
    def setup(self):
        s = self.shape
        self.inputs = make_inputs(s, self.seed, self.workdir)
        load = pm.load_rankings if s.kind == "rankings" else pm.load_clicks
        container = pm.RankingDataset if s.kind == "rankings" else pm.ClickDataset
        self.pace = Pace()
        spent = 0.0
        while len(self.times["setup"]) < MIN_LOADS or (
            spent < LOAD_SHARE * self.seconds and len(self.times["setup"]) < MAX_LOADS
        ):
            with self.tracer.span(f"io.{load.__name__}") as sp:
                data = load(self.inputs.path)
            spent += sp.seconds
            self.record("setup", sp.seconds)
            loaded = data.rankings if s.kind == "rankings" else data.clicks
            self.ledger.op("load", np.array_equal(loaded, self.inputs.table))
            if self.trace:
                raw = np.array(loaded)
                with self.tracer.span(f"data.{container.__name__}"):
                    container(raw)
        self.data = data
        self.counts["io.rows"] = data.n_users
        self.counts["io.file_bytes"] = self.inputs.path.stat().st_size

    # -- one round ------------------------------------------------------
    def fit(self, seed: int):
        """One posterior fit: (consensus draws, user draws or None)."""
        s = self.shape
        cfg = pm.PseudoConfig(s.alpha, 0.0, s.samples, seed=seed)
        if s.kind == "rankings":
            return pm.sample_rho(self.data, cfg).samples, None
        fit, users = pm.pseudo_clicking(self.data, cfg, warmup=s.warmup)
        return fit.samples, users

    def baseline(self, seed: int):
        """One MCMC run: (trace, user trace or None)."""
        s = self.shape
        cfg = pm.McmcConfig(s.mcmc_iterations, burn_in=s.mcmc_burn_in, thin=s.mcmc_thin, seed=seed)
        if s.kind == "rankings":
            return pm.mcmc_rho(self.data, s.alpha, cfg), None
        return pm.mcmc_clicking(self.data, s.alpha, cfg)

    def round(self, i: int):
        s, t = self.shape, self.tracer
        clicks = self.data.clicks if s.kind == "clicks" else None
        fit_seed = _seed(self.seed, 2, i)
        fit_name = "pseudo.sample_rho" if s.kind == "rankings" else "clicking.pseudo_clicking"
        # The traced run fits twice on one seed, traced and untraced, the
        # traced one first in every other round, so the tracing overhead is a
        # difference of paired fits. The
        # probes run just before and just after the pair, so that on average
        # they see the machine speed the traced fit saw.
        parts: dict[str, list[float]] = {}
        if self.trace:
            self.probe(i, 0, parts)
        self.pace.restart()
        fits = []
        for traced in ((i % 2 == 1, i % 2 == 0) if self.trace else (False,)):
            with (t if traced else self.plain).span(fit_name) as sp:
                fits.append(self.fit(fit_seed))
            self.record("fit_traced" if traced else "fit", sp.seconds)
            if traced:
                fit_traced = sp.seconds
        if self.trace:
            self.probe(i, 1, parts)
            self.split(fit_traced, parts)
        draws, users = fits[-1]
        if clicks is not None:
            with t.span("clicking.recommend") as sp:
                recs = recommend_all(users, clicks, s.k)
            self.record("recommend", sp.seconds)
        baselines = []
        for r in range(s.mcmc_per_round):
            mcmc_seed = _seed(self.seed, 3, i, r)
            with t.span("mcmc.mcmc_rho" if s.kind == "rankings" else "mcmc.mcmc_clicking") as sp:
                baselines.append((mcmc_seed, *self.baseline(mcmc_seed)))
            self.record("mcmc", sp.seconds)

        ok = draws.shape == (s.samples, s.n) and is_permutation(draws)
        if len(fits) == 2:
            ok = ok and np.array_equal(fits[0][0], draws) and (
                users is None or np.array_equal(fits[0][1], users))
        if users is not None:
            ok = ok and users.shape == (s.samples, s.n_users, s.n) and all_compatible(users, clicks)
            hits, total, valid = score_recs(recs, clicks, self.inputs.truth, s.k)
            for _ in recs:
                self.ledger.op(f"recommend round {i}", valid)
            self._add("rec_hits", (hits, total))
            self.counts["clicking.trace_bytes"] = users.nbytes
        self.ledger.op(f"fit round {i}", ok)
        self._add("consensus_footrule", pm.footrule_distance(pm.cp_consensus(draws), self.inputs.rho0))
        for _, mc, mc_users in baselines:
            ok = mc.n_samples >= 1 and is_permutation(mc.rho_samples)
            if mc_users is not None:
                ok = ok and all_compatible(mc_users, clicks)
                hits, total, _ = score_recs(recommend_all(mc_users, clicks, s.k), clicks, self.inputs.truth, s.k)
                self._add("mcmc_rec_hits", (hits, total))
            self.ledger.op(f"mcmc round {i}", ok)
            self._add("mcmc_consensus_footrule", pm.footrule_distance(pm.cp_consensus(mc.rho_samples), self.inputs.rho0))
            self._add("mcmc.acceptance_rate", mc.acceptance_rate)
        if i == 0:
            self.first = (fit_seed, digest(draws, users), baselines[0][0], digest(baselines[0][1].rho_samples))

    def _add(self, key, value):
        self.quality.setdefault(key, []).append(value)

    # -- probes (traced run only) ----------------------------------------
    def probe(self, i: int, side: int, parts: dict[str, list[float]]):
        """Time the fit's parts as separate calls, adding to ``parts``."""
        s, t = self.shape, self.tracer
        rng = np.random.default_rng([self.seed, 4, i, side])

        def timed(name, part, call):
            with t.span(name) as sp:
                result = call()
            parts.setdefault(part, []).append(sp.seconds)
            return result

        with t.span("probe"):
            for _ in range(s.probe_repeats):
                if s.kind == "rankings":
                    rcm = timed("data.RankCountMatrix", "cost_table", lambda: pm.RankCountMatrix.from_dataset(self.data))
                    rho_hat = timed("pseudo.estimate_rho_hat", "rho_hat", lambda: pm.estimate_rho_hat(self.data))
                    orderings = v_orderings(rho_hat, s.samples, rng)
                    draws = timed("pseudo.sample_rho_with_orderings", "kernel",
                                  lambda: pm.sample_rho_with_orderings(rcm, s.alpha, orderings, rng))
                    self.ledger.op("kernel probe", is_permutation(draws))
                    continue
                clicks = self.data.clicks
                rho = pm.click_frequency_ranking(self.data)
                R = timed("clicking.sample_user_rankings", "augment",
                          lambda: pm.sample_user_rankings(clicks, s.alpha, rho, rng))
                augmented = pm.RankingDataset(R)
                with t.span("clicking.consensus_step") as sp:
                    with t.span("pseudo.estimate_rho_hat"):
                        rho_hat = pm.estimate_rho_hat(augmented)
                    ordering = v_orderings(rho_hat, 1, rng)
                    with t.span("data.RankCountMatrix"):
                        rcm = pm.RankCountMatrix(R)
                    with t.span("pseudo.sample_rho_with_orderings"):
                        draws = pm.sample_rho_with_orderings(rcm, s.alpha, ordering, rng)
                parts.setdefault("step", []).append(sp.seconds)
                self.ledger.op("augment probe", all_compatible(R[None], clicks) and is_permutation(draws))

    def split(self, fit_seconds: float, parts: dict[str, list[float]]):
        """The traced fit's time: what the probes account for, and the rest."""
        s = self.shape
        part = {k: median(v) for k, v in parts.items()}
        if s.kind == "rankings":
            explained = part["cost_table"] + part["rho_hat"] + part["kernel"]
        else:
            explained = (s.warmup + s.samples) * (part["augment"] + part["step"])
        self.decomposition.append({"fit": fit_seconds, "rest": fit_seconds - explained})

    # -- the whole run ---------------------------------------------------
    def execute(self):
        self.setup()
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round(i)
            i += 1
        self.rounds = i
        self.check_determinism()
        self.oracle = oracle_check(self.seed, self.ledger)

    def check_determinism(self):
        fit_seed, fit_digest, mcmc_seed, mcmc_digest = self.first
        self.ledger.op("same-seed fit", digest(*self.fit(fit_seed)) == fit_digest)
        self.ledger.op("same-seed mcmc", digest(self.baseline(mcmc_seed)[0].rho_samples) == mcmc_digest)

    # -- metrics --------------------------------------------------------
    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        q = self.quality
        out = {
            "setup_s": (median(self.times["setup"]), "s"),
            "fit_s": (median(self.times["fit"]), "s"),
            "mcmc_s": (median(self.times["mcmc"]), "s"),
            "consensus_footrule": (float(np.mean(q["consensus_footrule"])), "footrule"),
            "mcmc_consensus_footrule": (float(np.mean(q["mcmc_consensus_footrule"])), "footrule"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_share": (self.ledger.failed / max(self.ledger.attempted, 1), "fraction"),
            "setup_wall_s": (median(self.wall["setup"]), "s"),
            "fit_wall_s": (median(self.wall["fit"]), "s"),
            "mcmc_wall_s": (median(self.wall["mcmc"]), "s"),
            "reference_s": (self.pace.median(), "s"),
        }
        if self.shape.kind == "clicks":
            out["recommend_s"] = (median(self.times["recommend"]), "s")
            out["recommend_wall_s"] = (median(self.wall["recommend"]), "s")
            for key, name in (("rec_hits", "rec_accuracy"), ("mcmc_rec_hits", "mcmc_rec_accuracy")):
                hits = sum(h for h, _ in q[key])
                total = sum(t for _, t in q[key])
                out[name] = (hits / total, "fraction")
            c = self.data.click_counts()
            out["random_rec_accuracy"] = (float(np.mean(self.shape.k / (self.shape.n - c))), "fraction")
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        s, t = self.shape, self.tracer
        kernel_rows = s.samples if s.kind == "rankings" else 1
        rest = median(d["rest"] for d in self.decomposition)
        out = {
            "io.load_s": (median(t.durations(f"io.load_{s.kind}")), "s"),
            "io.rows": (self.counts["io.rows"], "count"),
            "io.file_bytes": (self.counts["io.file_bytes"], "B"),
            "data.validate_s": (median(t.durations("data.RankingDataset" if s.kind == "rankings" else "data.ClickDataset")), "s"),
            "data.rows_validated": (self.counts["io.rows"], "count"),
            "data.cost_table_s": (median(t.durations("data.RankCountMatrix")), "s"),
            "pseudo.rho_hat_s": (median(t.durations("pseudo.estimate_rho_hat")), "s"),
            "pseudo.kernel_s": (median(t.durations("pseudo.sample_rho_with_orderings")), "s"),
            "pseudo.draws": (s.samples, "count"),
            "mcmc.iterations": (s.mcmc_iterations, "count"),
            "mcmc.us_per_iter": (1e6 * median(self.wall["mcmc"]) / s.mcmc_iterations, "us"),
            "mcmc.acceptance_rate": (float(np.mean(self.quality["mcmc.acceptance_rate"])), "fraction"),
            "trace.fit_s": (median(self.wall["fit_traced"]), "s"),
            # Paired fits on one seed, scaled like fit_s.
            "trace.overhead_s": (median(a - b for a, b in zip(self.times["fit_traced"], self.times["fit"])), "s"),
            "trace.rest_share": (median(d["rest"] / d["fit"] for d in self.decomposition), "fraction"),
        }
        out["pseudo.kernel_ns_per_cell"] = (1e9 * out["pseudo.kernel_s"][0] / (kernel_rows * s.n * s.n), "ns")
        if s.kind == "rankings":
            out["pseudo.orderings_s"] = (rest, "s")
        else:
            augment = median(t.durations("clicking.sample_user_rankings"))
            out["clicking.augment_s"] = (augment, "s")
            out["clicking.augment_us_per_user"] = (1e6 * augment / s.n_users, "us")
            out["clicking.consensus_step_s"] = (median(t.durations("clicking.consensus_step")), "s")
            out["clicking.loop_other_s"] = (rest, "s")
            out["clicking.trace_bytes"] = (self.counts["clicking.trace_bytes"], "B")
            recommend = median(t.durations("clicking.recommend"))
            out["clicking.recommend_us_per_user"] = (1e6 * recommend / s.n_users, "us")
        return out


def oracle_check(seed: int, ledger: Ledger) -> dict[str, float]:
    """n=6: marginal KL of sample_rho and mcmc_rho profiles to the exact posterior."""
    o = ORACLE
    rng = np.random.default_rng([seed, 5])
    data = pm.make_dataset(np.arange(1, o["n"] + 1), o["alpha"], o["n_users"], rng)
    exact = pm.posterior_profile(data, o["alpha"])
    pseudo = pm.sample_rho(data, pm.PseudoConfig(o["alpha"], 0.0, o["samples"], seed=_seed(seed, 6)))
    chain = pm.mcmc_rho(data, o["alpha"], pm.McmcConfig(o["mcmc_iterations"], burn_in=2000, thin=3, seed=_seed(seed, 7)))
    kl = {
        "pseudo": pm.marginal_kl(pm.MarginalProfile.from_samples(pseudo.samples), exact),
        "mcmc": pm.marginal_kl(pm.MarginalProfile.from_samples(chain.rho_samples), exact),
    }
    for arm, value in kl.items():
        ledger.op(f"oracle {arm} KL {value:.4f} > {ORACLE_KL_BOUND[arm]}", value <= ORACLE_KL_BOUND[arm])
    return kl
