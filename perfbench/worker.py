"""The closed-loop client: one fresh process that runs one workload.

    python3 perfbench/worker.py --manifest RUNDIR/manifest.json --src SRC \
        --seconds 30 --trace 0 --results RUNDIR/results.json

Runs in RUNDIR, so the relative document paths of the manifest resolve.  It
imports hadalg from SRC only, warms up on the smallest document of each
operation, then sends one request at a time to ``hadalg.cli.run`` (in
process, as one waiting CLI user would) until --seconds have passed.  A round
is the manifest's request list in its seeded order; the loop repeats rounds
and records, per request, the exit code (or the name of the exception that
escaped), the latency and the size of the output document.  Between requests
it runs speed probes (``SpeedProbes``), from which ``run.py`` scales each
latency to a reference machine speed.

With --trace 1 the timed loop runs under the Tracer, and the requests of the
completed rounds are then replayed untraced to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path


class _Sink(io.TextIOBase):
    """Discards the CLI's stderr summaries."""

    def write(self, text):
        return len(text)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _request(cli, argv) -> tuple:
    """One CLI request: (exit code or exception name, latency, output size)."""
    ts = time.perf_counter()
    try:
        code = cli.run(argv)
    except Exception as exc:      # an uncaught exception is a failed request
        code = type(exc).__name__
    latency = time.perf_counter() - ts
    out = argv[-1]
    return code, latency, os.path.getsize(out) if os.path.exists(out) else -1


def speed_probe() -> float:
    """Wall time of a fixed piece of pure-Python arithmetic (about 1 ms).

    It allocates nothing the garbage collector tracks, so the program's heap
    does not change its time; only the speed the machine gives this process
    does.
    """
    ts = time.perf_counter()
    acc, z = 0.0, 0j
    for i in range(2000):
        z = z * 0.5 + complex(i & 15, i & 7)
        acc += abs(z) / (1.0 + (i % 13))
    return time.perf_counter() - ts


class SpeedProbes:
    """Samples, between requests, the speed the machine gives this process.

    On a shared VM that speed drifts by up to 40% within seconds.  After
    each request, probes run until their time makes up SHARE of the request
    time, so the samples follow the run in proportion to time.  ``at[k]`` is
    the number of probes taken before request k started.
    """

    SHARE = 0.05

    def __init__(self):
        self.times: list[float] = []
        self.at: list[int] = []
        self._owed = 0.0

    def before(self) -> None:
        self.at.append(len(self.times))

    def after(self, latency: float) -> float:
        """Run the probes owed for a request; return the time they took."""
        self._owed += self.SHARE * latency
        spent = 0.0
        while self._owed > 0:
            dt = speed_probe()
            self.times.append(dt)
            self._owed -= dt
            spent += dt
        return spent


def closed_loop(cli, argvs, seconds, on_request=None, on_round=None, probes=None):
    """Run rounds of argvs until ``seconds`` of request time have passed and
    at least one round is complete.

    Returns (records, round_ends): records[i] = (position in the round, code,
    latency, output size); round_ends[r] is the loop time, less the time of
    the speed probes, when round r + 1 ended.
    """
    records, round_ends = [], []
    n = len(argvs)
    t0 = time.perf_counter()
    i, probe_s = 0, 0.0
    while True:
        if on_request is not None:
            on_request(i)
        if probes is not None:
            probes.before()
        records.append((i % n, *_request(cli, argvs[i % n])))
        i += 1
        if probes is not None:
            probe_s += probes.after(records[-1][2])
        now = time.perf_counter() - t0 - probe_s
        if i % n == 0:
            round_ends.append(now)
            if on_round is not None:
                on_round()
        if now >= seconds and round_ends:
            return records, round_ends


def main() -> None:
    t_launch = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", required=True)
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from hadalg import cli
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"hadalg imported from {cli.__file__}, not from {src}")
    import_s = time.perf_counter() - t_launch

    manifest = json.loads(Path(args.manifest).read_text())
    reqs = manifest["requests"]
    Path("out").mkdir(exist_ok=True)
    argvs = [reqs[i]["argv"] + ["--out", f"out/{i}.json"] for i in manifest["order"]]
    ids = manifest["order"]
    warm = [reqs[i]["argv"] + ["--out", "out/warmup.json"] for i in manifest["warmup"]]

    result: dict = {"import_s": import_s}
    with contextlib.redirect_stderr(_Sink()), contextlib.redirect_stdout(_Sink()):
        for argv in warm:
            _request(cli, argv)
        for _ in range(20):
            speed_probe()
        if not args.trace:
            probes = SpeedProbes()
            records, round_ends = closed_loop(cli, argvs, args.seconds, probes=probes)
            result["probe_s"] = probes.times
            result["probe_at"] = probes.at
        else:
            from spans import Tracer
            tracer = Tracer()
            snap: dict = {}

            def on_request(i):
                tracer.request = i

            def on_round():
                snap["counts"] = Counter(tracer.counts)
                snap["raised"] = Counter(tracer.raised)

            tracer.install()
            try:
                records, round_ends = closed_loop(cli, argvs, args.seconds,
                                                  on_request, on_round)
            finally:
                tracer.uninstall()
            whole = len(round_ends) * len(argvs)
            layers = tracer.metrics(whole, round_ends[-1], snap["counts"],
                                    snap["raised"])
            tracer.save("spans.npz")
            # the same requests again, untraced, for the tracing overhead
            t0 = time.perf_counter()
            for k in range(whole):
                _request(cli, argvs[k % len(argvs)])
            untraced = time.perf_counter() - t0
            layers["trace_overhead_ratio"] = round_ends[-1] / untraced
            layers["trace.spans"] = float(len(tracer.start))
            result["layers"] = layers

    result.update({
        "records": [(ids[j], code, lat, size) for j, code, lat, size in records],
        "round_size": len(argvs),
        "round_ends": round_ends,
        "peak_rss_mb": _peak_rss_mb(),
    })
    Path(args.results).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
