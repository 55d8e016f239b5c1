import json

import numpy as np
import pytest

from pseudomallows.cli import main
from pseudomallows.io import load_rankings, save_rankings
from pseudomallows.simulate import make_dataset


@pytest.fixture()
def ranking_csv(tmp_path):
    data = make_dataset((1, 2, 3, 4), 3.0, 30, np.random.default_rng(0))
    path = tmp_path / "rankings.csv"
    save_rankings(data, path)
    return path


@pytest.fixture()
def clicks_csv(tmp_path):
    rows = ["1,0,0,0", "1,1,0,0", "0,1,0,0", "1,0,1,0", "1,1,0,0", "0,1,1,0"]
    path = tmp_path / "clicks.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_fit_rho(ranking_csv, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    rc = main([
        "fit-rho", "--input", str(ranking_csv), "--alpha", "3.0", "--sigma", "0",
        "--samples", "40", "--seed", "1", "--output", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "consensus:" in printed
    assert load_rankings(out).n_users == 40


def test_fit_rho_estimates_alpha_when_omitted(ranking_csv, capsys):
    rc = main(["fit-rho", "--input", str(ranking_csv), "--samples", "20", "--seed", "2"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "estimated alpha" in printed


def test_fit_clicks(clicks_csv, capsys):
    rc = main([
        "fit-clicks", "--input", str(clicks_csv), "--alpha", "3.0",
        "--samples", "25", "--seed", "3", "--warmup", "3",
    ])
    assert rc == 0
    assert "consensus:" in capsys.readouterr().out


def test_recommend(clicks_csv, tmp_path):
    out = tmp_path / "recs.csv"
    rc = main([
        "recommend", "--input", str(clicks_csv), "--alpha", "3.0", "--k", "2",
        "--samples", "25", "--seed", "4", "--warmup", "3", "--output", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "user,item,probability"
    assert len(lines) > 1


@pytest.mark.parametrize("k", ["0", "-2"])
def test_recommend_rejects_k_below_one(clicks_csv, tmp_path, capsys, monkeypatch, k):
    def no_fit(*args, **kwargs):
        pytest.fail("recommend fitted before checking k")

    monkeypatch.setattr("pseudomallows.cli.pseudo_clicking", no_fit)
    out = tmp_path / "recs.csv"
    rc = main([
        "recommend", "--input", str(clicks_csv), "--alpha", "3.0", "--k", k,
        "--samples", "5", "--seed", "4", "--warmup", "0", "--output", str(out),
    ])
    assert rc == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_cell_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "clicks.csv"
    path.write_text("1,0,0\n1,0,99999999999999999999\n")
    rc = main(["fit-clicks", "--input", str(path), "--alpha", "3.0", "--samples", "5"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_eval_kl(ranking_csv, capsys):
    rc = main([
        "eval-kl", "--input", str(ranking_csv), "--alpha", "3.0",
        "--ordering", "3,1,2,4",
    ])
    assert rc == 0
    assert "marginal_kl:" in capsys.readouterr().out


def test_search_ordering(ranking_csv, capsys):
    rc = main([
        "search-ordering", "--input", str(ranking_csv), "--alpha", "3.0",
        "--iters", "3", "--seed", "5",
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "best_ordering_ranking:" in printed
    assert "footrule_to_v_set:" in printed


def test_experiment_subcommand(tmp_path, capsys):
    cfg = {
        "kind": "full-timing", "n": 5, "n_users": 20, "alpha0": 2.0,
        "replicates": 1, "seed": 9, "mcmc_iterations": [100],
        "pm_samples": [20], "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    written = list((tmp_path / "out").iterdir())
    assert {p.suffix for p in written} == {".csv", ".json"}


def test_experiment_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "full-timing", "mystery": True}))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_experiment_kind_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "full-timing"}))
    with pytest.raises(SystemExit):
        main(["experiment", "g-bias", "--config", str(cfg_path)])
