#!/usr/bin/env python3
"""Replay every request of a benchmark manifest and print what it produced.

    python3 perfbench/gen.py --workload series-horizon --seed 1 --dir DIR
    PYTHONPATH=src python3 scripts/replay_outputs.py DIR

DIR holds the manifest.json and docs/ that perfbench/gen.py writes.  Every
request runs, in this one process and from DIR, through hadalg.cli.run, and
prints one line: its id, its exit code, the sha256 of its --out file ("-"
when none was written) and its stderr as a JSON string.  Two source trees
answer a manifest alike exactly when they print the same lines.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from hadalg.cli import run


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    root = Path(sys.argv[1]).resolve()
    requests = json.loads((root / "manifest.json").read_text())["requests"]
    os.chdir(root)  # the manifest's document paths are relative to DIR
    out = root / "replay.out"
    for req in requests:
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(req["argv"] + ["--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
        print(req["id"], code, digest, json.dumps(err.getvalue()))
    out.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
