"""The benchmark's tiny manifests, run through cli.run in this process.

Every answer of seeds 1-10 of the three workloads is judged by the
benchmark's independent checker, perfbench/verify.py, which recomputes it
from the input document without hadalg.  And on the matrix workload only
`mat det` builds Elements: the matrix path keeps its values as stacks.
Every argv of seed 1's full manifests is read by cli's quick path."""

import contextlib
import inspect
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hadalg import algebra, cli, coeffseq

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import run as bench  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("scalar-window", "matrix-positions", "series-horizon")
# the defect labels of verify.py that an answer may still carry: a label
# leaves this set in the change that mends its defect, so a return fails here
KNOWN = {"eval-bound-omits-rounding"}


def replay(workload, seed, root, monkeypatch, on_request=None):
    """Generate the tiny manifest into root and run each of its requests
    through cli.run, from root as the benchmark's worker does: (request,
    exit code, --out path) per request.  on_request(request, code) is called
    after each one."""
    manifest = gen.generate(workload, seed, root, tiny=True)
    monkeypatch.chdir(root)
    (root / "out").mkdir()
    outcomes = []
    for req in manifest["requests"]:
        out = root / "out" / f"{req['id']}.json"
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(req["argv"] + ["--out", str(out)])
        if on_request is not None:
            on_request(req, code)
        outcomes.append((req, code, out))
    return outcomes


def failures(outcomes, root):
    """The outcomes that verify.check neither passes nor labels with a
    defect of KNOWN."""
    bad = []
    for req, code, out in outcomes:
        status, label, message = verify.check(req, code, root, out)
        if status != "ok" and label not in KNOWN:
            bad.append(f"{req['op']} (id {req['id']}, exit {code}): {message}")
    return bad


def test_known_labels_are_documented():
    assert all(label in verify.__doc__ for label in KNOWN)


def test_checker_imports_no_hadalg():
    modules = {getattr(inspect.getmodule(v), "__name__", "")
               for v in vars(verify).values()}
    assert not [m for m in modules if m.split(".")[0] == "hadalg"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_answer_passes_the_checker(workload, tmp_path, monkeypatch):
    """Seeds 1-10; then one output value of a checked answer, corrupted as
    `perfbench/run.py --self-check` corrupts it, must fail the check."""
    checked = []
    for seed in range(1, 11):
        root = tmp_path / str(seed)
        outcomes = replay(workload, seed, root, monkeypatch)
        assert failures(outcomes, root) == []
        checked += [(root, *outcome) for outcome in outcomes]
    root, req, code, out = next(
        (root, req, code, out) for root, req, code, out in checked
        if code == 0 and req["op"] != "elem eval"
        and bench._has_float(json.loads(out.read_text())))
    bench.corrupt(out)
    assert failures([(req, code, out)], root) != []


def test_benchmark_argvs_take_the_quick_path(tmp_path):
    """Every request of seed 1's full manifests, with --out as the worker
    adds it, is read from the operation table, to the tree's Namespace."""
    argvs = []
    for workload in WORKLOADS:
        manifest = gen.generate(workload, 1, tmp_path / workload)
        argvs += [req["argv"] + ["--out", f"out/{req['id']}.json"]
                  for req in manifest["requests"]]
    assert len(argvs) == 165
    for argv in argvs:
        assert cli._quick(argv) == cli._PARSER.parse_args(argv), argv


def test_only_mat_det_builds_elements(tmp_path, monkeypatch):
    """Seed 1 of matrix-positions: every Element and EPSeq built while a
    request runs is counted, and only an answered `mat det` builds one of
    each, its determinant."""
    built = Counter()
    for cls, name, kind in ((algebra.Element, "__init__", "Element"),
                            (coeffseq.EPSeq, "__post_init__", "EPSeq")):
        def counted(self, *args, _original=getattr(cls, name), _kind=kind):
            built[_kind] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    seen = []

    def record(req, code):
        seen.append((req["op"], code, built["Element"], built["EPSeq"]))
        built.clear()

    replay("matrix-positions", 1, tmp_path, monkeypatch, record)
    ops = Counter(op for op, *_ in seen)
    assert ops["mat det"] and ops["mat sl-factor"]
    for op, code, elements, epseqs in seen:
        want = 1 if (op, code) == ("mat det", 0) else 0
        assert (elements, epseqs) == (want, want), (op, code)
