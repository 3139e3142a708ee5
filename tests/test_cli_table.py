"""The CLI's operation table: each operation accepts exactly the flags its
handler reads, the parser is built once, the ideal arguments have budgets,
and no argv ends in an exception."""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hadalg import algebra, cli, weights
from hadalg.cli import run
from hadalg.coeffseq import MAX_WINDOW
from hadalg.errors import WindowTooLarge
from hadalg.ideals import MAX_N

ONE = {"weight": "factorial", "normalized": {"prefix": [], "cycle": [[1, 0]]}}
ZERO = {"weight": "factorial", "normalized": {"prefix": [], "cycle": [[0, 0]]}}
I1 = {"weight": "factorial", "entries": [[{"cycle": [[1, 0]]}]]}
SLOW_WEIGHT = "superexp:b=1.000000000000001,q=2"

# one small document per operation that reads one
DOCS = {
    ("elem", "divide"): {"f": ONE, "g": ONE},
    ("elem", "gcd"): {"elements": [ONE]},
    ("elem", "ideal-member"): {"f": ONE, "generators": [ONE]},
    ("elem", "corona"): {"elements": [ONE]},
    ("elem", "bass-reduce"): {"f1": ONE, "f2": ZERO},
    ("mat", "mul"): {"A": I1, "B": I1},
    ("mat", "solve"): {"A": I1, "b": I1},
}

# each operation with every flag it takes besides --out, at values that
# succeed; --json is filled in with the operation's document
FULL = {
    ("elem", "norm"): ["--json"],
    ("elem", "eval"): ["--json", "--z", "1", "--tol", "1e-9"],
    ("elem", "invert"): ["--json"],
    ("elem", "divide"): ["--json"],
    ("elem", "gcd"): ["--json"],
    ("elem", "ideal-member"): ["--json"],
    ("elem", "corona"): ["--json"],
    ("elem", "exp"): ["--json"],
    ("elem", "log"): ["--json"],
    ("elem", "idempotent"): ["--json"],
    ("elem", "approx-invert"): ["--json", "--eps", "0.25"],
    ("elem", "bass-reduce"): ["--json"],
    ("mat", "mul"): ["--json"],
    ("mat", "det"): ["--json"],
    ("mat", "solve"): ["--json", "--tol", "1e-9"],
    ("mat", "exp"): ["--json"],
    ("mat", "log"): ["--json"],
    ("mat", "sl-factor"): ["--json", "--tol", "1e-9"],
    ("mat", "norm-bounds"): ["--json"],
    ("ideal", "index-order"): ["--json", "--k", "0"],
    ("ideal", "krull-family"): ["--n", "1", "--horizon", "64"],
    ("ideal", "trajectory"): ["--n", "1", "--horizon", "64", "--json", "--ks",
                              "0,2,4"],
    ("ideal", "annihilator"): ["--json"],
    ("ideal", "chain"): ["--weight", "factorial", "--kind", "artinian",
                         "--n", "2"],
    ("weight", "list"): [],
}
# operations whose flags split into modes that refuse each other's flags:
# each mode alone succeeds, and FULL, which mixes them, exits 3
MODES = {
    ("ideal", "trajectory"): [["--n", "1", "--horizon", "64"],
                              ["--json", "--ks", "0,2,4"]],
}
FLAGS = ["json", "z", "tol", "eps", "weight", "horizon", "k", "n", "ks",
         "kind", "out"]
# a value each flag would accept, were the operation to take it
ANY_VALUE = {"json": "doc.json", "z": "1", "tol": "1e-9", "eps": "0.25",
             "weight": "factorial", "horizon": "64", "k": "0", "n": "1",
             "ks": "0", "kind": "artinian", "out": "o.json"}


def doc_path(tmp_path, group, op):
    p = tmp_path / f"{group}-{op}.json"
    p.write_text(json.dumps(DOCS.get((group, op), I1 if group == "mat" else ONE)))
    return str(p)


def full_argv(tmp_path, group, op, flags=None):
    argv = [group, op]
    for a in FULL[group, op] if flags is None else flags:
        argv += [a, doc_path(tmp_path, group, op)] if a == "--json" else [a]
    return argv + ["--out", str(tmp_path / "out.json")]


def listed(group, op):
    return {a[2:] for a in FULL[group, op] if a.startswith("--")} | {"out"}


def test_table_lists_the_flags_each_handler_reads():
    table = {(g, op): {*flags, "out"} for g, (_, ops) in cli.OPERATIONS.items()
             for op, flags in ops.items()}
    assert table == {key: listed(*key) for key in FULL}
    assert sum(map(len, table.values())) == 61


@pytest.mark.parametrize("group, op", list(FULL), ids=[" ".join(k) for k in FULL])
def test_accepts_exactly_the_listed_flags(group, op, tmp_path, capsys):
    assert run(full_argv(tmp_path, group, op)) == (3 if (group, op) in MODES else 0)
    for flags in MODES.get((group, op), []):
        assert run(full_argv(tmp_path, group, op, flags)) == 0
    capsys.readouterr()
    for flag in set(FLAGS) - listed(group, op):
        argv = full_argv(tmp_path, group, op) + [f"--{flag}", ANY_VALUE[flag]]
        assert run(argv) == 3, flag
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_abbreviated_flag_refused(tmp_path, capsys):
    # --k would otherwise stand for --ks, the only flag it prefixes
    argv = full_argv(tmp_path, "ideal", "trajectory") + ["--k", "1"]
    assert run(argv) == 3
    assert "unrecognized arguments: --k" in capsys.readouterr().err


def test_flag_before_operation_refused(tmp_path):
    path = doc_path(tmp_path, "elem", "norm")
    assert run(["elem", "norm", "--json", path]) == 0
    assert run(["elem", "--json", path, "norm"]) == 3


def test_run_builds_no_parser(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("run built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run(["weight", "list", "--out", str(tmp_path / "w.json")]) == 0
    assert run(full_argv(tmp_path, "elem", "norm")) == 0


@pytest.mark.parametrize("group, op", list(FULL), ids=[" ".join(k) for k in FULL])
def test_leaf_parser_gives_the_trees_namespace(group, op, tmp_path):
    argv = full_argv(tmp_path, group, op)
    assert cli._LEAVES[group, op].parse_args(argv[2:]) == cli._PARSER.parse_args(argv)
    assert cli._parse(argv) == cli._PARSER.parse_args(argv)


def test_a_known_operation_skips_the_tree(monkeypatch, tmp_path):
    def refuse(argv):
        raise AssertionError("run walked the parser tree")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert run(full_argv(tmp_path, "elem", "eval")) == 0


ODD_ARGV = [[], ["elem"], ["elem", "nope"], ["nope", "eval"],
            ["elem", "--json", "x", "eval"], ["elem", "eval", "x"],
            ["elem", "eval", "--", "--z=1"], ["elem", "eval", "--z"],
            ["--help"], ["elem", "--help"], ["elem", "eval", "--help"],
            ["elem", "eval", "--bogus", "-h"]]


@pytest.mark.parametrize("argv", ODD_ARGV, ids=" ".join)
def test_dispatch_keeps_exit_and_output(argv, monkeypatch, capsys):
    def outcome():
        try:
            code = run(argv)
        except SystemExit as exc:  # help
            code = ("SystemExit", exc.code)
        return code, capsys.readouterr()

    got = outcome()
    monkeypatch.setattr(cli, "_LEAVES", {})  # every argv through the tree
    assert got == outcome()
    assert got[0] == (("SystemExit", 0) if "--help" in argv or "-h" in argv else 3)


class TestBudgets:
    @pytest.mark.parametrize("op", ["krull-family", "trajectory"])
    @pytest.mark.parametrize("argv, named", [
        (["--n", str(MAX_N + 1)], f"n must be at most {MAX_N}"),
        (["--n", "5000", "--horizon", "65536"], f"n must be at most {MAX_N}"),
        (["--horizon", str(MAX_WINDOW + 1)], f"horizon must be at most {MAX_WINDOW}"),
    ], ids=["n", "n-5000", "horizon"])
    def test_refused_with_exit_3(self, op, argv, named, capsys):
        assert run(["ideal", op, *argv]) == 3
        assert named in capsys.readouterr().err

    def test_largest_n_at_largest_horizon(self, tmp_path):
        out = tmp_path / "k.json"
        argv = ["ideal", "krull-family", "--n", str(MAX_N),
                "--horizon", str(MAX_WINDOW), "--out", str(out)]
        assert run(argv) == 0
        ends = [hi for _, hi in json.loads(out.read_text())["zero_blocks"]]
        assert len(str(max(ends))) < 90

    def test_chain_refuses_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = run(["ideal", "chain", "--n", "3000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: weight value at index 3000000 exceeds the "
            "double range; use log-space evaluation\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", ["noetherian", "artinian"])
    @pytest.mark.parametrize("weight", ["factorial", "superexp:b=2,q=2"])
    def test_chain_with_a_huge_n(self, weight, kind, capsys):
        # n + 1 has 4,301 digits and n^2 is past the double range
        argv = ["ideal", "chain", "--weight", weight, "--kind", kind,
                "--n", "9" * 4300]
        assert run(argv) == 4
        assert capsys.readouterr().err == (
            "numerical failure: weight value at index >= 2^14284 exceeds the "
            "double range; use log-space evaluation\n")

    @pytest.mark.parametrize("n", [MAX_WINDOW - 1, 300_000_000])
    def test_chain_window_budget(self, n, capsys):
        # p(n) = b^(n^2) stays finite far past the window for a base near 1
        argv = ["ideal", "chain", "--weight", SLOW_WEIGHT, "--n", str(n)]
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == (
            f"numerical failure: z^{n} needs a window of {n + 2} positions, "
            f"which exceeds the budget of {MAX_WINDOW}\n")
        assert peak < 1 << 20

    def test_largest_monomial_fills_the_window(self):
        w = weights.from_name(SLOW_WEIGHT)
        assert algebra.monomial(w, MAX_WINDOW - 2).u.rep_len == MAX_WINDOW
        with pytest.raises(WindowTooLarge):
            algebra.monomial(w, MAX_WINDOW - 1)


# values drawn for any flag: edge and budget values, non-numbers, huge ints
POOL = ["0", "-1", "4", str(MAX_N + 1), str(MAX_WINDOW + 1), "171", "nan",
        "junk", "1" + "0" * 30, "9" * 4300, "factorial", "superexp:b=2,q=2",
        SLOW_WEIGHT, "artinian", "0,2,4"]
DRAWN_FLAGS = [f for f in FLAGS if f not in ("json", "out")]


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_argv_ends_in_a_documented_exit(data, tmp_path):
    group, op = data.draw(st.sampled_from(list(FULL)), label="operation")
    takes = sorted(listed(group, op) - {"json", "out"})
    flags = data.draw(st.lists(st.sampled_from(takes), unique=True)) if takes else []
    flags += data.draw(st.lists(st.sampled_from(DRAWN_FLAGS), max_size=1))
    argv = [group, op]
    if data.draw(st.booleans(), label="document"):
        argv += ["--json", doc_path(tmp_path, group, op)]
    for flag in flags:
        argv.append(f"--{flag}={data.draw(st.sampled_from(POOL))}")
    assert run(argv + ["--out", str(tmp_path / "out.json")]) in (0, 2, 3, 4)


# argvs that once ended in an exception or a wrong verdict, with their exits
@pytest.mark.parametrize("argv, code", [
    (["ideal", "krull-family", "--n", "5000", "--horizon", "65536"], 3),
    (["mat", "solve", "--tol=-1"], 3),
    (["mat", "sl-factor", "--tol=-1"], 3),
    (["ideal", "chain", "--n", "3000000"], 4),
    (["ideal", "trajectory", "--json", "--ks", "0,2", "--n", "99",
      "--horizon", "3"], 3),
    (["ideal", "trajectory", "--n", "1", "--horizon", "64", "--ks", "0,junk"], 3),
], ids=["krull-family-n-5000", "solve-tol-neg", "sl-factor-tol-neg",
        "chain-n-3000000", "trajectory-doc-with-witness-flags",
        "trajectory-witness-with-ks"])
def test_found_argv(argv, code, tmp_path):
    if argv[0] == "mat":
        argv = argv + ["--json", doc_path(tmp_path, *argv[:2])]
    elif "--json" in argv:
        at = argv.index("--json") + 1
        argv = argv[:at] + [doc_path(tmp_path, *argv[:2])] + argv[at:]
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == code
