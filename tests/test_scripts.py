"""The replay tool runs end to end on small manifests."""

import hashlib
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
