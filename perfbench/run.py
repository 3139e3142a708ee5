"""Benchmark of the hadalg CLI on seeded documents.

    python3 perfbench/run.py --workload scalar-window --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout.  One run of a workload:

1. ``gen.py``, in its own process, writes the seeded documents and exits;
2. ``worker.py``, a fresh interpreter, imports hadalg from ``src/``, warms up
   and drives ``hadalg.cli.run`` as a closed loop with one client for
   --seconds (--trace 1: under the layer tracer of ``spans.py``);
3. several fresh interpreters each import hadalg and run ``weight list``,
   which gives the set-up time;
4. ``verify.py`` checks every output document without hadalg code.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  The lines before it print every metric by
name with its unit, and the failure ratio with its base.  Run files go to
``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("scalar-window", "matrix-positions", "series-horizon")
SETUP_PROBES = 7
# Times are scaled to a reference machine on which worker.speed_probe takes
# PROBE_REF_S: each latency is divided by the mean time of the PROBE_WINDOW
# speed probes taken on either side of it, then multiplied by PROBE_REF_S.
PROBE_REF_S = 1e-3
PROBE_WINDOW = 2
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); from hadalg import cli; "
         "sys.exit(cli.run(['weight', 'list', '--out', sys.argv[2]]))")

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s/req"
    if name.startswith("serialize.bytes"):
        return "B/req"
    if name == "trace.spans":
        return "count"
    return "count/req"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _subprocess(cmd: list[str], timeout: float, cwd: Path) -> None:
    proc = subprocess.run(cmd, cwd=cwd, timeout=timeout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")


def speed_scale(probe_s: list[float], at: list[int]) -> list[float]:
    """For each request k, PROBE_REF_S over the mean time of the PROBE_WINDOW
    speed probes on either side of it; ``at[k]`` probes ran before it."""
    cum = [0.0, *accumulate(probe_s)]
    scale = []
    for j in at:
        a, b = max(0, j - PROBE_WINDOW), min(len(probe_s), j + PROBE_WINDOW)
        scale.append(PROBE_REF_S * (b - a) / (cum[b] - cum[a]))
    return scale


def setup_time(rundir: Path) -> tuple[float, float, bool]:
    """Median wall time of fresh interpreters that import hadalg and finish
    ``weight list``, raw and scaled to the reference speed; also whether
    every one answered correctly.

    Each interpreter runs pinned to the CPU on which ten speed probes run
    just before and ten just after it; their mean time gives the scale.
    """
    from worker import speed_probe

    raw, scaled, ok = [], [], True
    out = rundir / "weights.json"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_PROBES):
            probes = [speed_probe() for _ in range(10)]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(out)],
                                  cwd=rundir, timeout=60, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            raw.append(time.perf_counter() - t0)
            probes += [speed_probe() for _ in range(10)]
            scaled.append(raw[-1] * PROBE_REF_S * len(probes) / sum(probes))
            try:
                names = json.loads(out.read_text())["weights"]
                ok = ok and proc.returncode == 0 and "factorial" in names
            except (OSError, ValueError, KeyError):
                ok = False
            out.unlink(missing_ok=True)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(raw), statistics.median(scaled), ok


def _has_float(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        obj = list(obj.values())
    return isinstance(obj, list) and any(_has_float(v) for v in obj)


def corrupt(path: Path) -> None:
    """Change the first float of an output document well past any tolerance."""
    doc = json.loads(path.read_text())

    def bump(obj):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, val in items:
            if isinstance(val, float):
                obj[key] = val + 1.0 + abs(val)
                return True
            if isinstance(val, (dict, list)) and bump(val):
                return True
        return False

    bump(doc)
    path.write_text(json.dumps(doc))


def classify(rundir: Path, reqs: list, records: list, corrupt_one: bool):
    """Check the last output of every document; classify every document.

    A document fails if its output fails the check or if its outcome (exit
    code, output size) changed between its requests.  Counting documents,
    not requests, makes the failure count a function of the seed alone.
    Returns (failed, known, unknown, corrupted): the failed document count,
    counts per known defect label, up to five other failures, and, with
    corrupt_one, what became of the deliberately corrupted document.
    """
    import verify      # numpy loads only now, after the worker has ended

    last = {rid: (code, size) for rid, code, _, size in records}
    verdicts, victim = {}, None
    for rid, (code, _) in last.items():
        out_path = rundir / "out" / f"{rid}.json"
        verdicts[rid] = verify.check(reqs[rid], code, rundir, out_path)
        if (corrupt_one and victim is None and verdicts[rid][0] == "ok" and code == 0
                and reqs[rid]["op"] != "elem eval"
                and _has_float(json.loads(out_path.read_text()))):
            victim = rid
    corrupted = None
    if victim is not None:
        out_path = rundir / "out" / f"{victim}.json"
        corrupt(out_path)
        verdicts[victim] = verify.check(reqs[victim], last[victim][0], rundir, out_path)
        corrupted = {"id": victim, "op": reqs[victim]["op"],
                     "verdict": verdicts[victim][0], "message": verdicts[victim][2]}
    for rid, code, _, size in records:
        if (code, size) != last[rid]:
            verdicts[rid] = ("fail", None, "outcome changed between rounds")

    failed, known, unknown = 0, Counter(), []
    for rid in sorted(verdicts):
        status, label, message = verdicts[rid]
        if status == "ok":
            continue
        failed += 1
        if status == "known":
            known[label] += 1
        elif len(unknown) < 5:
            unknown.append(f"document {rid} ({reqs[rid]['op']}): {message}")
    return failed, known, unknown, corrupted


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt_one: bool = False) -> dict:
    rundir = WORKDIR / ("self-check" if tiny else "runs") / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    gen = [sys.executable, str(HERE / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rundir)] + (["--tiny"] if tiny else [])
    _subprocess(gen, 120, rundir)
    _subprocess([sys.executable, str(HERE / "worker.py"),
                 "--manifest", str(rundir / "manifest.json"), "--src", str(SRC),
                 "--seconds", str(seconds), "--trace", str(int(trace)),
                 "--results", str(rundir / "results.json")],
                seconds * 3 + 90, rundir)
    setup_raw_s, setup_s, setup_ok = setup_time(rundir)

    reqs = json.loads((rundir / "manifest.json").read_text())["requests"]
    res = json.loads((rundir / "results.json").read_text())
    records = res["records"]
    failed, known, unknown, corrupted = classify(rundir, reqs, records, corrupt_one)
    if not setup_ok:
        unknown.append("a set-up probe did not list the weights")

    whole = res["round_size"] * len(res["round_ends"])
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": setup_ok and failed == sum(known.values()),
        "attempted": len(reqs), "failed": failed, "requests": len(records),
        "samples": whole,
        "whole_rounds": len(res["round_ends"]), "round_size": res["round_size"],
        "wall_s": res["round_ends"][-1], "known": dict(known), "unknown": unknown,
        "corrupted": corrupted,
    }
    if trace:
        result["metrics"] = dict(res["layers"])
        result["metrics"]["serialize.bytes_in"] = sum(
            reqs[r[0]]["bytes_in"] for r in records[:whole]) / whole
        result["metrics"]["serialize.bytes_out"] = sum(
            max(r[3], 0) for r in records[:whole]) / whole
    else:
        # a document's latency is the median of its repetitions in the whole
        # rounds, each scaled to the reference speed; the percentiles are
        # taken over the documents
        scale = speed_scale(res["probe_s"], res["probe_at"])
        per_doc: dict[int, list[float]] = {}
        raw_doc: dict[int, list[float]] = {}
        for (rid, _, lat, _), f in zip(records[:whole], scale):
            per_doc.setdefault(rid, []).append(1000.0 * lat * f)
            raw_doc.setdefault(rid, []).append(1000.0 * lat)
        lat_ms = [statistics.median(v) for v in per_doc.values()]
        raw_ms = [statistics.median(v) for v in raw_doc.values()]
        result["metrics"] = {
            "ops_per_s": 1000.0 * whole / sum(sum(v) for v in per_doc.values()),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": _p90(lat_ms),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup_s,
        }
        result["raw"] = {
            "ops_per_s": whole / res["round_ends"][-1],
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": _p90(raw_ms),
            "setup_s": setup_raw_s,
        }
        result["probe_ms"] = 1000.0 * statistics.median(res["probe_s"])
    shutil.rmtree(rundir / "docs", ignore_errors=True)
    shutil.rmtree(rundir / "out", ignore_errors=True)
    return result


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _units(result: dict) -> dict:
    return {k: {"value": v,
                "unit": per_layer_unit(k) if result["trace"] else END_TO_END[k]}
            for k, v in result["metrics"].items()}


def report(result: dict) -> None:
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['requests']} requests, {result['whole_rounds']} whole rounds "
          f"of {result['round_size']} in {result['wall_s']:.2f} s")
    for name, m in _units(result).items():
        note = ""
        if name == "ops_per_s":
            note = f"  (n = {result['samples']} requests of whole rounds)"
        elif name.startswith("latency"):
            note = (f"  (n = {result['samples']} requests: medians of "
                    f"{result['whole_rounds']} repeats of {result['round_size']} documents)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh interpreters)"
        if name in result.get("raw", {}):
            note = f"  [unscaled {result['raw'][name]:.6g}]" + note
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    if "probe_ms" in result:
        print(f"  times above are scaled to a speed probe of {1000 * PROBE_REF_S:g} ms; "
              f"here it took {result['probe_ms']:.4g} ms (median)")
    known = ", ".join(f"{k} {v}" for k, v in sorted(result["known"].items())) or "none"
    print(f"  {'fail_ratio':28s} {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f} "
          f"(base: documents, each sent at least once; "
          f"known defects: {known})")
    for line in result["unknown"]:
        print(f"  FAILED {line}")


def self_check() -> int:
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            r = run_workload(w, 0, 0.0, trace, tiny=True, corrupt_one=not trace)
            report(r)
            if trace:
                good = r["correct"] and all(n in r["metrics"] for n in
                                            ("cli.self_s", "trace_overhead_ratio"))
            else:
                c = r["corrupted"]
                good = (c is not None and c["verdict"] == "fail"
                        and not r["correct"] and r["failed"] > sum(r["known"].values()))
                print(f"  corrupted output of request {c and c['id']} "
                      f"({c and c['op']}): {c and c['verdict']}; "
                      f"run correct = {r['correct']}")
            print(f"  self-check {'PASS' if good else 'FAIL'}")
            ok = ok and good
    print(f"self-check {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (SRC / "hadalg" / "cli.py").is_file():
        print(f"error: no hadalg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for w in names:
            results.append(run_workload(w, args.seed, args.seconds, bool(args.trace)))
            report(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = [{"correct": r["correct"], "attempted": r["attempted"],
                "failed": r["failed"], "metrics": _units(r)} for r in results]
    print(json.dumps(summary[0] if len(summary) == 1 else
                     {"workloads": dict(zip(names, summary))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
