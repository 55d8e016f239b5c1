"""The benchmark's own tests: tiny-shape runs of every workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SHAPES, Run, Shape, all_compatible, digest, is_permutation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics the report carries beyond BENCHMARK.json, by workload kind.
REPORT_ONLY = {
    "rankings": {"consensus_footrule", "mcmc_consensus_footrule", "failed_share", "pseudo.orderings_s",
                 "trace.overhead_s", "trace.rest_share"},
    "clicks": {
        "consensus_footrule", "mcmc_consensus_footrule", "failed_share", "recommend_s",
        "rec_accuracy", "mcmc_rec_accuracy", "clicking.augment_s", "clicking.augment_us_per_user",
        "clicking.consensus_step_s", "clicking.loop_other_s", "clicking.trace_bytes",
        "clicking.recommend_us_per_user", "trace.overhead_s", "trace.rest_share",
    },
}


def tiny(shape: Shape) -> Shape:
    """A small copy of a shape."""
    n = min(shape.n, 8)
    return replace(
        shape, n=n, n_users=min(shape.n_users, 60), samples=30,
        mcmc_iterations=600, mcmc_burn_in=100, mcmc_thin=5,
        pool=min(shape.pool, 30), click_mean=min(shape.click_mean, 2.0),
        click_high=min(shape.click_high, n - shape.k) if shape.k else 0,
    )


@pytest.fixture(scope="module", params=sorted(SHAPES))
def traced(request, tmp_path_factory):
    run = Run(tiny(SHAPES[request.param]), seed=3, seconds=0.0, trace=True,
              workdir=tmp_path_factory.mktemp(request.param))
    run.execute()
    return run


def test_smoke_prints_every_metric(traced, tmp_path):
    report, result = bench.summarize(traced, SPEC, bench.peak_rss_mb())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert names | REPORT_ONLY[traced.shape.kind] <= set(report["metrics"])
    for metric in report["metrics"].values():
        assert np.isfinite(metric["value"]) and metric["unit"]

    untraced = Run(traced.shape, seed=3, seconds=0.0, trace=False, workdir=tmp_path)
    untraced.execute()
    _, result = bench.summarize(untraced, SPEC, bench.peak_rss_mb())
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not untraced.tracer.spans


def test_self_times_are_non_negative(traced):
    self_times = traced.tracer.self_times()
    assert self_times and min(self_times.values()) >= 0.0
    assert all(s.run_id == traced.tracer.run_id for s in traced.tracer.spans)


def test_probes_account_for_the_traced_fit(traced):
    """The probed parts explain most of each traced fit and do not overshoot it.

    The parts are separate calls, so they agree with the fit only to within
    the machine's noise. What they leave over is the V-set orderings on
    rankings (a large share at this tiny T) and the loop's own work on clicks.
    """
    layer = {k: v for k, (v, _) in traced.per_layer().items()}
    s = traced.shape
    assert len(traced.decomposition) == traced.rounds
    assert -0.25 <= layer["trace.rest_share"] <= 0.75
    rest = layer["pseudo.orderings_s" if s.kind == "rankings" else "clicking.loop_other_s"]
    assert rest == pytest.approx(np.median([d["rest"] for d in traced.decomposition]))
    assert layer["trace.fit_s"] == pytest.approx(np.median(traced.tracer.durations(
        "pseudo.sample_rho" if s.kind == "rankings" else "clicking.pseudo_clicking")))
    assert len(traced.wall["fit"]) == len(traced.wall["fit_traced"]) == traced.rounds


def test_self_time_subtracts_children():
    t = Tracer("t", enabled=True)
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10000))
    outer, inner = t.spans
    assert inner.parent == outer.id
    assert t.self_times()[outer.id] == pytest.approx(outer.seconds - inner.seconds)


def test_checks_reject_bad_outputs():
    assert is_permutation(np.array([[2, 1, 3], [1, 2, 3]]))
    assert not is_permutation(np.array([[1, 1, 3]]))
    clicks = np.array([[1, 0, 0], [0, 1, 1]])
    good = np.array([[[1, 2, 3], [3, 1, 2]]])
    assert all_compatible(good, clicks)
    assert not all_compatible(np.array([[[2, 1, 3], [3, 1, 2]]]), clicks)
    # Clicked item on top and unclicked items below it, but a repeated rank.
    assert not all_compatible(np.array([[[1, 3, 3], [3, 1, 2]]]), clicks)
    # The same-seed check compares digests of the outputs.
    assert digest(good, None) == digest(good.copy(), None)
    assert digest(good, None) != digest(good[:, ::-1], None) != digest(good, good)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clicks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
