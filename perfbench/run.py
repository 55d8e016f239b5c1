"""Benchmark of the pseudomallows package, run from the root of a checkout.

    python3 perfbench/run.py --workload rankings-wide --seed 1 --seconds 25 --trace 0

Workloads: rankings-wide, rankings-tall, clicks (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is a report with every metric of the
workload, the checks and the run's metadata. Exits 1 when a check fails and
2 when the package source is missing.
"""

from __future__ import annotations

import os

# One thread everywhere; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "PSEUDOMALLOWS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _json_number(value):
    value = float(value)
    return int(value) if value.is_integer() else value


def summarize(run, spec: dict, rss_mb: float) -> tuple[dict, dict]:
    """The report line and the result line of a finished run."""
    metrics = run.end_to_end(rss_mb)
    if run.trace:
        metrics.update(run.per_layer())
    report = {
        "workload": run.shape.name,
        "shape": vars(run.shape),
        "rounds": run.rounds,
        "fits": len(run.times["fit"]) + len(run.times["fit_traced"]),
        "loads": len(run.times["setup"]),
        "oracle_marginal_kl": run.oracle,
        "errors": run.ledger.errors,
        "self_time_s": run.tracer.self_time_by_name() if run.trace else None,
        "metadata": metadata(run.seed),
        "metrics": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    wanted = spec["per_layer" if run.trace else "end_to_end"]
    result = {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {m["name"]: {"value": _json_number(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pseudomallows" / "__init__.py").is_file():
        print(f"package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import SHAPES, Run

    if args.workload not in SHAPES:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(SHAPES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="inputs-") as tmp:
        run = Run(SHAPES[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp))
        try:
            run.execute()
        except Exception:
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": run.ledger.attempted + 1,
                              "failed": run.ledger.failed + 1, "metrics": {}}))
            return 1
    report, result = summarize(run, spec, peak_rss_mb())
    if args.trace:
        run.tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
