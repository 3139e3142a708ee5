#!/usr/bin/env python3
"""Benchmark two checkouts against each other in alternating pairs.

    python3 scripts/bench_pairs.py --base PARENT --change CHANGE --seed 1 \\
        --pairs 10 --out BENCH_<n>.json

PARENT and CHANGE are the roots of two checkouts.  BENCHMARK.json sets the
rest: for each of its workloads W, each pair runs its ``command`` with
``--workload W --seed S --seconds T``, T its ``run_seconds``, once in either
checkout, the base first in pairs 1, 3, ... and the change first in pairs
2, 4, ..., so a drift of the machine's speed falls on both sides alike.  The
file written holds the seed, the seconds and the pair count, and per
workload: each run's ``failed``/``attempted``, and per end-to-end metric
(its ``end_to_end`` list) every run of each side, each side's median and
quartiles, and the number of pairs the change won.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON object that the benchmark's command prints last, for one run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    """The median and the quartiles (inclusive method) of values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better`` (name -> "higher" or "lower"): both sides'
    values in run order, their spread, and how many pairs (base[i],
    change[i]) the change won, that is, was strictly better in."""
    out = {}
    for name, way in better.items():
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        wins = sum(y > x if way == "higher" else y < x for x, y in zip(b, c))
        out[name] = {"better": way, "base": b, "change": c,
                     "base_spread": spread(b), "change_spread": spread(c),
                     "change_wins": wins}
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeatable; every workload of BENCHMARK.json by default")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    result = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "workloads": {}}
    for workload in args.workload or workloads:
        runs: dict[str, list] = {"base": [], "change": []}
        for i in range(args.pairs):
            for side in ("change", "base") if i % 2 else ("base", "change"):
                run = run_once(getattr(args, side), bench["command"], workload,
                               args.seed, seconds)
                runs[side].append(run)
                values = (f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
                print(f"{workload} pair {i + 1} {side}: {' '.join(values)}", flush=True)
        result["workloads"][workload] = {
            "failed": {side: [f"{r['failed']}/{r['attempted']}" for r in rs]
                       for side, rs in runs.items()},
            "metrics": summarize(runs["base"], runs["change"], better)}
        args.out.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
