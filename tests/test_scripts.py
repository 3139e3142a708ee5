"""The replay tool runs end to end on small manifests."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def start_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, str(ROOT / "scripts" / name), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def run_script(name, *args):
    return finish(start_script(name, *args))


# sha256 of the whole replay of each workload's --tiny seed-1 manifest: any
# change to an output byte, an exit code or a message changes it
REPLAY_SHA256 = {
    "scalar-window": "a0a98d13234781ff1d1b0d6eac361cb114142ff67d40a76293037b9189cca39b",
    "matrix-positions": "97e15d70cb13a26cd8f7f2b90fd14d7a46897345e320dcf6502c9eb1ce837e67",
    "series-horizon": "1f4f2084af288430e5c2af6c788a7e2c1259398456a60168532ce5ecad9ca627",
}


@pytest.mark.parametrize("workload", ["scalar-window", "matrix-positions",
                                      "series-horizon"])
def test_replay_outputs_prints_one_line_per_request(workload, tmp_path):
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                    workload, "--seed", "1", "--dir", str(tmp_path), "--tiny"],
                   check=True, timeout=120)
    requests = json.loads((tmp_path / "manifest.json").read_text())["requests"]
    out = run_script("replay_outputs.py", str(tmp_path))
    assert hashlib.sha256(out.encode()).hexdigest() == REPLAY_SHA256[workload]
    lines = out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == [str(r["id"]) for r in requests]
    for line in lines:
        _, code, digest, err = line.split(" ", 3)
        assert code in ("0", "2", "3", "4"), line
        assert digest == "-" or re.fullmatch("[0-9a-f]{64}", digest), line
        assert json.loads(err).endswith("\n"), line


def test_replays_of_one_manifest_run_at_once(tmp_path):
    """Two replays of one DIR, run side by side, print what one alone does.
    The full scalar-window round writes documents large enough that replays
    sharing one output file overwrite each other's within a run."""
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                    "scalar-window", "--seed", "1", "--dir", str(tmp_path)],
                   check=True, timeout=120)
    alone = run_script("replay_outputs.py", str(tmp_path))
    procs = [start_script("replay_outputs.py", str(tmp_path)) for _ in range(2)]
    assert [finish(p) for p in procs] == [alone, alone]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    """Per metric: both sides' runs in order, their median and quartiles
    (inclusive method), and the pairs the change won, in the direction
    that BENCHMARK.json calls better; a tie is no win.  claim_met needs 9
    wins in 10 and a median better by more than the base's interquartile
    range; within_bound, a median no worse by more than bound times the
    base's."""
    bench_pairs = load_script("bench_pairs")

    def runs(**values):
        return [{"metrics": {name: {"value": v} for name, v in zip(values, row)}}
                for row in zip(*values.values())]

    end_to_end = [{"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
                  {"name": "ops_per_s", "better": "higher", "bound": 0.25}]
    base = runs(latency_p90_ms=[28.0, 26.0, 27.0, 30.0, 25.0],
                ops_per_s=[100.0, 104.0, 101.0, 99.0, 103.0])
    change = runs(latency_p90_ms=[23.0, 26.0, 22.0, 24.0, 21.0],
                  ops_per_s=[110.0, 104.0, 100.0, 112.0, 108.0])
    assert bench_pairs.summarize(base, change, end_to_end) == {
        "latency_p90_ms": {
            "better": "lower", "base": [28.0, 26.0, 27.0, 30.0, 25.0],
            "change": [23.0, 26.0, 22.0, 24.0, 21.0],
            "base_spread": {"median": 27.0, "q1": 26.0, "q3": 28.0},
            "change_spread": {"median": 23.0, "q1": 22.0, "q3": 24.0},
            "change_wins": 4, "claim_met": False, "within_bound": True},
        "ops_per_s": {
            "better": "higher", "base": [100.0, 104.0, 101.0, 99.0, 103.0],
            "change": [110.0, 104.0, 100.0, 112.0, 108.0],
            "base_spread": {"median": 101.0, "q1": 100.0, "q3": 103.0},
            "change_spread": {"median": 108.0, "q1": 104.0, "q3": 110.0},
            "change_wins": 3, "claim_met": False, "within_bound": True},
    }

    # ten pairs: p90 wins 9 and its median gains 2 over an IQR of 1.5; ops
    # wins 9 but gains 1 within an IQR of 15; peak RSS is 11% worse, over
    # its bound of 10%; setup is 20% worse, within its bound of 25%
    end_to_end += [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}]
    p90 = [20.0, 21.0, 22.0, 20.0, 21.0, 22.0, 20.0, 21.0, 22.0, 21.0]
    ops = [100.0, 110.0, 90.0] * 3 + [100.0]
    base = runs(latency_p90_ms=p90, ops_per_s=ops, peak_rss_mb=[50.0] * 10,
                setup_s=[0.2] * 10)
    change = runs(latency_p90_ms=[v - 2 for v in p90[:9]] + [22.0],
                  ops_per_s=[v + 1 for v in ops[:9]] + [99.0],
                  peak_rss_mb=[55.5] * 10, setup_s=[0.24] * 10)
    got = bench_pairs.summarize(base, change, end_to_end)
    assert {name: (m["change_wins"], m["claim_met"], m["within_bound"])
            for name, m in got.items()} == {
        "latency_p90_ms": (9, True, True), "ops_per_s": (9, False, True),
        "peak_rss_mb": (0, False, False), "setup_s": (0, False, True)}
    assert got["latency_p90_ms"]["base_spread"] == {"median": 21.0, "q1": 20.25, "q3": 21.75}
    assert got["ops_per_s"]["base_spread"] == {"median": 100.0, "q1": 92.5, "q3": 107.5}
