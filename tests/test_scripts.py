"""The demo scripts and the replay tool run end to end on small arguments."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, args", [
    ("corona_bezout_demo.py", ["--trials", "3"]),
    ("corona_bezout_demo.py", ["--trials", "3", "--plant-zero"]),
    ("index_order_trajectories.py", ["--max-n", "1", "--horizon", "256"]),
])
def test_demo_runs(name, args):
    assert run_script(name, *args)


def test_index_order_trajectories_text():
    out = run_script("index_order_trajectories.py", "--max-n", "3", "--horizon", "16384")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78fe74836b3f9d419922ce4dd5ddd81be54ba313d2202e7ee9fc94e92583a69d")


def test_sl_factorization_demo_reconstructs():
    out = run_script("sl_factorization_demo.py", "--trials", "2", "--size", "2")
    errors = [float(e) for e in re.findall(r"reconstruction error (\S+)", out)]
    assert len(errors) == 4
    assert max(errors) <= 1e-9


@pytest.mark.parametrize("workload", ["scalar-window", "matrix-positions",
                                      "series-horizon"])
def test_replay_outputs_prints_one_line_per_request(workload, tmp_path):
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload",
                    workload, "--seed", "1", "--dir", str(tmp_path), "--tiny"],
                   check=True, timeout=120)
    requests = json.loads((tmp_path / "manifest.json").read_text())["requests"]
    lines = run_script("replay_outputs.py", str(tmp_path)).splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == [str(r["id"]) for r in requests]
    for line in lines:
        _, code, digest, err = line.split(" ", 3)
        assert code in ("0", "2", "3", "4"), line
        assert digest == "-" or re.fullmatch("[0-9a-f]{64}", digest), line
        assert json.loads(err).endswith("\n"), line
