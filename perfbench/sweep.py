"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out sweep.json

Runs are made one after another, each workload in turn for every seed. For
each workload and metric of the report line the summary gives the values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rankings-wide", "rankings-tall", "clicks")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    walls: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    failures = []
    for seed in seeds:
        for w in WORKLOADS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls[w].append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                failures.append({"workload": w, "seed": seed, "code": proc.returncode,
                                 "stderr": proc.stderr[-2000:]})
                continue
            report = json.loads(lines[-2])["report"]
            report["result"] = json.loads(lines[-1])
            runs[w].append(report)
            print(f"{w} seed {seed}: {walls[w][-1]:.1f}s", file=sys.stderr)

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "failures": failures,
               "metadata": next((r["metadata"] for rs in runs.values() for r in rs), None),
               "workloads": {}}
    for w, reports in runs.items():
        if not reports:
            continue
        names = reports[0]["metrics"]
        summary["workloads"][w] = {
            "wall_s": stats(walls[w]),
            "fits": [r["fits"] for r in reports],
            "oracle_marginal_kl": {arm: stats([r["oracle_marginal_kl"][arm] for r in reports])
                                   for arm in reports[0]["oracle_marginal_kl"]},
            "metrics": {name: dict(unit=names[name]["unit"],
                                   **stats([r["metrics"][name]["value"] for r in reports]))
                        for name in names},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
