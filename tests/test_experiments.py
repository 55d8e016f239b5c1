"""Experiment harness: consensus summarization, config handling, runner
contracts, and replayability."""

import numpy as np
import pytest

from pseudomallows.experiments import (
    ExperimentConfig,
    ResultTable,
    cp_consensus,
    run_alpha_roundtrip,
    run_clicking_accuracy,
    run_full_timing,
    run_g_bias,
    run_ordering_enum,
    run_sigma_study,
)
from pseudomallows.clicking import recommend_topk
from pseudomallows.data import RankCountMatrix, SampleSet
from pseudomallows.exact import exact_posterior
from pseudomallows.simulate import make_dataset


def _strip_wall(table: ResultTable) -> list:
    return [{k: v for k, v in row.items() if k != "wall_clock"} for row in table.rows]


class TestCpConsensus:
    def test_identical_samples(self):
        samples = np.tile([2, 1, 3], (40, 1))
        assert cp_consensus(samples).tolist() == [2, 1, 3]

    def test_tie_prefers_lower_item(self):
        samples = np.array([[1, 2, 3], [2, 1, 3]])
        assert cp_consensus(samples).tolist() == [1, 2, 3]

    def test_point_mass_distribution_support(self):
        ds = make_dataset((1, 2, 3), 8.0, 60, np.random.default_rng(0))
        post = exact_posterior(ds, 8.0)
        rng = np.random.default_rng(1)
        draws = post.support[rng.choice(len(post.probs), size=1500, p=post.probs)]
        mode = post.support[int(np.argmax(post.probs))]
        assert np.array_equal(cp_consensus(draws), mode)

    def test_accepts_sample_set(self):
        ss = SampleSet(np.tile([1, 2], (5, 1)), alpha=1.0)
        assert cp_consensus(ss).tolist() == [1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cp_consensus(np.empty((0, 3), dtype=int))


class TestResultTable:
    def test_unknown_column_rejected(self):
        table = ResultTable()
        with pytest.raises(ValueError, match="unknown columns"):
            table.append(experiment="x", bogus=1)

    def test_where_filters(self):
        table = ResultTable()
        table.append(experiment="e", replicate=0, method="a", y_value=1)
        table.append(experiment="e", replicate=1, method="b", y_value=2)
        assert len(table.where(method="a")) == 1


class TestExperimentConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json('{"kind": "full-timing", "what": 1}')

    @pytest.mark.parametrize("document,message", [
        ('{"kind": "full-timing", "n": true}', "n must be an integer"),
        ('{"kind": "full-timing", "alpha0": "2"}', "alpha0 must be a real number"),
        ('{"kind": "full-timing", "sigma": false}', "sigma must be a real number"),
    ])
    def test_json_bools_and_strings_rejected(self, document, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(document)

    def test_round_trip(self):
        cfg = ExperimentConfig(kind="full-timing", n=5, replicates=2)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.hash() == cfg.hash()

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="nope")

    @pytest.mark.parametrize("field,value,message", [
        ("n", 2.5, "n must be an integer"),
        ("n", 0, "n must be at least 1"),
        ("n_users", 3.0, "n_users must be an integer"),
        ("replicates", 0, "replicates must be at least 1"),
        ("k", 1.5, "k must be an integer"),
        ("n_samples", 2.5, "n_samples must be an integer"),
        ("sim_users", -1, "sim_users must be at least 2"),
        ("warmup", -1, "warmup must be at least 0"),
        ("warmup", 3.5, "warmup must be an integer"),
        ("pm_samples", (2.5, 50.9), "pm_samples entry must be an integer"),
        ("pm_samples", (0,), "pm_samples entry must be at least 1"),
        ("pm_samples", (), "pm_samples must hold at least one budget"),
        ("mcmc_iterations", (300.7,), "mcmc_iterations entry must be an integer"),
        ("pm_iterations", [], "pm_iterations must hold at least one budget"),
        ("sim_users", 1, "sim_users must be at least 2"),
    ])
    def test_counts_and_budgets_are_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="full-timing", **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be at least 0"),
        ("click_min", 1.5, "click_min must be an integer"),
        ("click_max", 4.5, "click_max must be an integer"),
        ("click_max", 0, "click_max must be at least 1"),
        ("alpha0", -1.0, "alpha0 must be positive"),
        ("click_mean", float("nan"), "click_mean must be positive and finite"),
        ("sigma", -1.0, "sigma must be nonnegative"),
        ("sigma", float("inf"), "sigma must be nonnegative and finite"),
        ("alpha_grid", (), "alpha grid must be nonempty"),
        ("alpha_grid", (2.0, 1.0), "strictly ascending"),
        ("alpha_grid", (1.0, float("nan")), "alpha grid entry must be positive and finite"),
        ("sigma_grid", (-1.0,), "sigma_grid must be nonnegative"),
        ("sigma_grid", (), "sigma_grid must hold at least one value"),
    ])
    def test_values_are_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="full-timing", **{field: value})

    def test_checked_values_are_kept(self):
        cfg = ExperimentConfig(kind="clicking-accuracy", seed=np.int64(3), click_max=np.int64(4),
                               sigma=0.0, alpha_grid=[1, 2.5], sigma_grid=[0, 1])
        assert type(cfg.seed) is int and type(cfg.click_max) is int
        assert cfg.alpha_grid == (1.0, 2.5) and cfg.sigma_grid == (0.0, 1.0)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_budgets_stay_tuples_of_ints(self):
        cfg = ExperimentConfig.from_json(
            '{"kind": "full-timing", "warmup": 0, "pm_samples": [50, 60], "mcmc_iterations": [300]}'
        )
        assert cfg.warmup == 0
        assert cfg.pm_samples == (50, 60) and cfg.mcmc_iterations == (300,)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        cfg = ExperimentConfig(kind="full-timing", n=np.int64(5), pm_samples=(np.int32(7),))
        assert type(cfg.n) is int and type(cfg.pm_samples[0]) is int
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestFullTiming:
    CFG = dict(kind="full-timing", n=6, n_users=30, alpha0=2.0, replicates=2,
               seed=7, mcmc_iterations=(200,), pm_samples=(50,))

    def test_row_count_contract(self):
        table = run_full_timing(ExperimentConfig(**self.CFG))
        # schedule of length 1 for each method -> 2 rows per replicate
        assert len(table) == 4
        assert len(table.where(method="mcmc")) == 2

    def test_replay_identical_modulo_wall_clock(self):
        cfg = ExperimentConfig(**self.CFG)
        a = run_full_timing(cfg)
        b = run_full_timing(cfg)
        assert _strip_wall(a) == _strip_wall(b)

    def test_one_table_per_replicate(self, monkeypatch):
        """Both methods' runs on a replicate's dataset share the table it keeps;
        the only other build is the simulator's, of its one-row model."""
        built = []
        inner = RankCountMatrix.__init__
        monkeypatch.setattr(RankCountMatrix, "__init__", lambda self, r: built.append(len(r)) or inner(self, r))
        cfg = ExperimentConfig(**{**self.CFG, "mcmc_iterations": (100, 200), "pm_samples": (20, 50)})
        assert len(run_full_timing(cfg)) == 8
        assert built == [1, 30, 1, 30]


class TestClickingAccuracy:
    def test_rows_and_baseline(self):
        cfg = ExperimentConfig(
            kind="clicking-accuracy", n=8, n_users=25, alpha0=4.0, replicates=2,
            seed=3, mcmc_iterations=(400,), pm_iterations=(20,), click_mean=2.0,
            click_max=5, k=2, warmup=3,
        )
        table = run_clicking_accuracy(cfg)
        for rep in range(2):
            base = table.where(replicate=rep, method="random").rows
            assert len(base) == 1
            assert 0 < base[0]["y_value"] < 1
            assert len(table.where(replicate=rep, method="pseudo", y_name="accuracy")) == 1
            assert len(table.where(replicate=rep, method="mcmc", y_name="accuracy")) == 1

    def test_full_window_gives_perfect_accuracy(self):
        """With every user holding the same click count and k covering all of
        the remaining ranks, both methods score accuracy 1."""
        cfg = ExperimentConfig(
            kind="clicking-accuracy", n=6, n_users=15, alpha0=3.0, replicates=1,
            seed=8, mcmc_iterations=(300,), pm_iterations=(15,),
            click_mean=2.0, click_min=2, click_max=2, k=4, warmup=2,
        )
        table = run_clicking_accuracy(cfg)
        for method in ("pseudo", "mcmc"):
            acc = table.where(method=method, y_name="accuracy").rows[0]["y_value"]
            assert acc == 1.0

    def test_accuracy_metric_matches_independent_scorer(self):
        """The window-hit rule cross-checked against a from-scratch scorer on
        random (samples, truth) pairs."""
        rng = np.random.default_rng(9)
        agree = 0
        trials = 1000
        for _ in range(trials):
            n = int(rng.integers(4, 9))
            c = int(rng.integers(1, n - 1))
            k = int(rng.integers(1, n - c + 1))
            clicks = np.zeros(n, dtype=int)
            clicks[rng.choice(n, size=c, replace=False)] = 1
            samples = np.array([rng.permutation(n) + 1 for _ in range(12)])
            truth = rng.permutation(n) + 1
            recs = recommend_topk(samples, clicks, k)
            mine = sum(c + 1 <= truth[item - 1] <= c + k for item, _ in recs)
            # independent scorer: brute-force window membership
            other = 0
            for item, _ in recs:
                rank = truth[item - 1]
                hits = [r for r in range(c + 1, c + k + 1) if r == rank]
                other += len(hits)
            agree += mine == other
        assert agree == trials


class TestOrderingEnumRunner:
    def test_heat_rows_sum_to_one(self):
        cfg = ExperimentConfig(kind="ordering-enum", n=4, n_users=40, alpha0=2.0,
                               replicates=5, seed=11)
        table = run_ordering_enum(cfg)
        heat = table.where(replicate=-1)
        bands = sorted({r["detail"] for r in heat.rows})
        assert bands == ["band=1|2", "band=3|4"]
        for band in bands:
            total = sum(r["y_value"] for r in heat.rows if r["detail"] == band)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestGBiasRunner:
    def test_mode_rows_cover_items(self):
        cfg = ExperimentConfig(kind="g-bias", n=6, alpha0=8.0, n_samples=400, seed=5)
        table = run_g_bias(cfg)
        for method in ("uniform-g", "v-g"):
            modes = table.where(method=method, y_name="mode_rank")
            assert len(modes) == 6
        probs = table.where(method="uniform-g", y_name="rank_probability")
        assert len(probs) == 36


class TestSigmaStudyRunner:
    def test_emits_one_row_per_alpha_replicate(self):
        cfg = ExperimentConfig(kind="sigma-study", n=4, n_users=50, replicates=2,
                               alpha_grid=(1.0, 3.0), sigma_grid=(0.0, 1.0),
                               n_samples=150, seed=2)
        table = run_sigma_study(cfg)
        assert len(table) == 4
        assert {r["x_value"] for r in table.rows} == {1.0, 3.0}


class TestAlphaRoundtripRunner:
    def test_emits_full_and_clicks_rows(self):
        cfg = ExperimentConfig(kind="alpha-roundtrip", n=8, n_users=60, alpha0=3.0,
                               replicates=2, alpha_grid=(1.0, 3.0, 8.0),
                               sim_users=60, click_mean=3.0, seed=6)
        table = run_alpha_roundtrip(cfg)
        assert len(table.where(method="full")) == 2
        assert len(table.where(method="clicks")) == 2
        for row in table.rows:
            assert row["y_value"] in (1.0, 3.0, 8.0)
