"""CLI boundary: the JSON writer's bytes, refused input and typed exits."""

import argparse
import gc
import hashlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from hadalg import cli, weights
from hadalg.cli import _emit, run


def write(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def element(prefix, cycle):
    return {"weight": "factorial", "normalized": {"prefix": prefix, "cycle": cycle}}


def elem(tmp_path, op, doc, *extra):
    out = tmp_path / "out.json"
    code = run(["elem", op, "--json", write(tmp_path, doc), "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestWriter:
    PAYLOADS = [
        {"n": 3, "neg": -7, "big": 10 ** 20, "flag": True, "off": False,
         "none": None},
        {"plain": "factorial", "escaped": 'a"b\\c\n\t', "unicode": "hé中\U0001f600",
         "key with space": "superexp:b=2,q=2", "é": 1},
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "x": 0.1, "z": -0.0},
        {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]]]},
        {"pairs": [[1.0, -0.0], [1e-300, 2.5e300], [0.1, 3.0]],
         "nested": {"prefix": [], "cycle": [[0.5, 0.25]]}},
        {"mixed": [[1, 2.0], [3.0, 4], [True, 1.0]], "triple": [[1.0, 2.0, 3.0]],
         "pair_nan": [[1.0, math.nan], [math.inf, 0.0]], "tuple": (1.0, 2.0)},
        {"witness": {"index": 3, "value": [0.0, 1.0]}, "y": [[1.0, 2.0], "s"]},
        [{"i": 0, "j": 1, "alpha": element([[2.0, 0.0]], [[1.0, 0.0]])}],
        {1: "int key", 2.5: "float key", None: "none key", True: "bool key"},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_bytes_match_json_dumps(self, payload, tmp_path):
        out = tmp_path / "o.json"
        _emit(payload, argparse.Namespace(out=str(out)))
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    # (k, 2) float64 arrays take dumps' own fill, not _write's list path
    ARRAY_PAYLOADS = [
        {"one": np.array([[1.5, -2.0]])},
        {"top": np.array([[0.1, 0.2], [0.3, 0.4]]),
         "a": {"b": np.array([[1e300, -1e-300]]),
               "c": [{"d": np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])}]}},
        {"x": np.array([[0.5, 0.25], [0.5, 0.5]]), "y": np.array([[0.25, 0.5]]),
         "z": [np.array([[0.5, 0.5]]), 0.5]},
        {"zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]), "w": np.array([[-0.0, 1.0]])},
        {"odd": np.array([[math.nan, math.inf], [-math.inf, 0.0], [math.nan, 1.0]])},
        {"empty": np.zeros((0, 2)), "full": np.array([[1.0, 2.0]]),
         "nested": [np.zeros((0, 2))]},
    ]

    @pytest.mark.parametrize("payload", ARRAY_PAYLOADS)
    def test_arrays_match_json_dumps_of_lists(self, payload, tmp_path):
        def lists(o):
            if isinstance(o, np.ndarray):
                return o.tolist()
            if isinstance(o, dict):
                return {k: lists(v) for k, v in o.items()}
            return [lists(v) for v in o] if isinstance(o, list) else o
        out = tmp_path / "o.json"
        _emit(payload, argparse.Namespace(out=str(out)))
        assert out.read_text() == json.dumps(lists(payload), indent=2) + "\n"

    def test_stdout(self, capsys):
        payload = self.PAYLOADS[4]
        _emit(payload, argparse.Namespace(out=None))
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


class TestNonFiniteInput:
    def test_nan_element_refused(self, tmp_path, capsys):
        doc = element([], [[math.nan, 0], [1, 0]])
        assert elem(tmp_path, "invert", doc)[0] == 3
        assert "normalized.cycle[0]" in capsys.readouterr().err
        assert elem(tmp_path, "norm", doc)[0] == 3

    def test_infinite_matrix_entry_refused(self, tmp_path, capsys):
        cell = {"prefix": [[1, 0]], "cycle": [[0, -math.inf]]}
        doc = {"weight": "factorial", "entries": [[cell]]}
        assert run(["mat", "det", "--json", write(tmp_path, doc)]) == 3
        assert "entries[0][0].cycle[0]" in capsys.readouterr().err

    def test_infinite_raw_prefix_refused(self, tmp_path):
        doc = {"weight": "factorial", "raw_prefix": [1.0, math.inf]}
        assert elem(tmp_path, "norm", doc)[0] == 3

    @pytest.mark.parametrize("flag,value", [("--z", "nan"), ("--z", "inf+1j"),
                                            ("--tol", "nan"), ("--tol", "inf"),
                                            ("--eps", "nan")])
    def test_non_finite_argument_refused(self, flag, value, tmp_path):
        op = "approx-invert" if flag == "--eps" else "eval"
        assert elem(tmp_path, op, element([], [[1, 0]]), f"{flag}={value}")[0] == 3


class TestIrregularCells:
    def test_bare_reals_accepted(self, tmp_path):
        assert elem(tmp_path, "norm", element([2], [1]))[1] == {"norm": 2.0}

    def test_mixed_cells_accepted(self, tmp_path):
        code, out = elem(tmp_path, "norm", element([[1, 2.5]], [[0, 1], 2.0]))
        assert code == 0 and out["norm"] == abs(complex(1, 2.5))

    def test_ints_past_int64_accepted(self, tmp_path):
        code, out = elem(tmp_path, "norm", element([], [[10 ** 20, -(2 ** 70)]]))
        assert code == 0 and out["norm"] == abs(complex(10 ** 20, -(2 ** 70)))

    def test_strings_refused(self, tmp_path):
        assert elem(tmp_path, "norm", element([], [["1", "0"]]))[0] == 3

    def test_none_refused(self, tmp_path):
        assert elem(tmp_path, "norm", element([], [[None, 0]]))[0] == 3

    def test_int_too_large_for_a_double_refused(self, tmp_path):
        assert elem(tmp_path, "norm", element([], [[10 ** 400, 0]]))[0] == 3


class TestTypedExits:
    def test_exp_overflow_is_numerical(self, tmp_path, capsys):
        code, _ = elem(tmp_path, "exp", element([[0, 0]], [[1, 0], [710, 0]]))
        assert code == 4
        assert "index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-0.5"])
    def test_eps_not_positive(self, eps, tmp_path):
        assert elem(tmp_path, "approx-invert", element([], [[1, 0]]),
                    f"--eps={eps}")[0] == 3

    @pytest.mark.parametrize("op", ["eval"])
    def test_tol_zero(self, op, tmp_path):
        assert elem(tmp_path, op, element([], [[1, 0]]), "--tol=0")[0] == 3

    def test_approx_invert_has_no_tol(self, tmp_path, capsys):
        doc = element([[0.5, 0]], [[0, 0], [1, 0]])
        assert elem(tmp_path, "approx-invert", doc, "--tol", "1e-9") == (3, None)
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        # without --eps the threshold stays 1e-10, and so do the bytes
        assert elem(tmp_path, "approx-invert", doc)[0] == 0
        assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == (
            "8ef7bc4fbf87d1bc83572964274dfbc45786c040279bcd72f65e9f6c195feab1")
        assert capsys.readouterr().err == (
            "invertible approximant at distance 1e-10 <= 2e-10\n")

    @pytest.mark.parametrize("tol", ["0", "-1"])
    @pytest.mark.parametrize("op", ["solve", "sl-factor"])
    def test_matrix_tol_not_positive(self, op, tol, tmp_path, capsys):
        one = {"weight": "factorial", "entries": [[{"cycle": [[1, 0]]}]]}
        doc = {"A": one, "b": one} if op == "solve" else one
        out = tmp_path / "out.json"
        argv = ["mat", op, "--json", write(tmp_path, doc), "--out", str(out), f"--tol={tol}"]
        assert run(argv) == 3
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_mat_log_has_no_tol(self, tmp_path, capsys):
        one = {"weight": "factorial", "entries": [[{"cycle": [[1, 0]]}]]}
        out = tmp_path / "out.json"
        argv = ["mat", "log", "--json", write(tmp_path, one), "--out", str(out),
                "--tol", "1e-9"]
        assert run(argv) == 3
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        assert not out.exists()

    def test_bass_reduce_eps_zero_refused(self, tmp_path):
        one, zero = element([], [[1, 0]]), element([], [[0, 0]])
        doc = {"f1": one, "f2": zero, "g1": one, "g2": zero}
        assert elem(tmp_path, "bass-reduce", doc)[0] == 0
        assert elem(tmp_path, "bass-reduce", doc, "--eps=0")[0] == 3

    def test_overflow_is_silent_as_in_python(self, tmp_path):
        big, tiny = element([], [[1e200, 1e200]]), element([], [[1e-200, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert elem(tmp_path, "corona", {"elements": [big]})[0] == 0
            assert elem(tmp_path, "ideal-member",
                        {"f": big, "generators": [big, tiny]})[0] == 0
            assert elem(tmp_path, "divide", {"f": big, "g": tiny})[0] == 0

    def test_quotient_lost_to_smith_overflow_is_numerical(self, tmp_path, capsys):
        # 1/u = 2.9e-309(1 - i) is representable, but Smith's denominator
        # overflows and the quotient comes out 0: no answer, not a wrong one
        u = element([[2, 0]], [[1.7e308, 1.7e308]])
        assert elem(tmp_path, "invert", u) == (4, None)
        assert "quotient at index 1 underflows to 0" in capsys.readouterr().err
        one = element([], [[1, 0]])
        assert elem(tmp_path, "divide", {"f": one, "g": u}) == (4, None)
        assert "quotient at index 1 underflows to 0" in capsys.readouterr().err
        # a zero dividend still divides to 0
        zero = element([], [[0, 0]])
        code, out = elem(tmp_path, "divide", {"f": zero, "g": u})
        assert (code, out["quotient"]["normalized"]["cycle"]) == (0, [[0.0, 0.0]])

    def test_bass_reduce_non_finite_witness_is_numerical(self, tmp_path, capsys):
        # u = 1 + |f1| overflows to inf, so h = [Infinity, NaN] and the
        # witness and its delta are NaN: no answer, not an uncertified one
        one, zero = element([], [[1, 0]]), element([], [[0, 0]])
        doc = {"f1": element([], [[1e308, 1e308]]), "f2": one, "g1": zero, "g2": one}
        assert elem(tmp_path, "bass-reduce", doc) == (4, None)
        assert "not finite at index 0" in capsys.readouterr().err

    def test_trajectory_past_the_double_range(self, tmp_path):
        # |u| overflows: inf, as elem norm answers, not a traceback
        u = element([], [[1.7e308, 1.7e308]])
        out = tmp_path / "out.json"
        assert run(["ideal", "trajectory", "--json", write(tmp_path, u), "--ks", "0,1",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["values"] == [math.inf, math.inf]
        assert elem(tmp_path, "norm", u) == (0, {"norm": math.inf})

    @pytest.mark.parametrize("z, cause", [("800", "not finite"),
                                          ("2000", "tail bound overflows")])
    def test_eval_overflow_is_numerical(self, z, cause, tmp_path, capsys):
        code, out = elem(tmp_path, "eval", element([], [[1, 0]]), f"--z={z}")
        assert (code, out) == (4, None)
        err = capsys.readouterr().err
        assert cause in err and f"|z| = {float(z)}" in err

    @pytest.mark.parametrize("z, r", [("1e6", "1000000.0"),
                                      ("1e308+1e308j", "1.4142135623730951e+308"),
                                      ("1.5e308+1.5e308j", "inf")])
    def test_eval_refuses_past_the_index_budget(self, z, r, tmp_path, capsys,
                                                monkeypatch):
        # the factorial threshold N >= 2|z| - 2 is computed: tail_bound is
        # never called below it, here not at all
        calls = []
        tail_bound = weights.Weight.tail_bound
        monkeypatch.setattr(weights.Weight, "tail_bound",
                            lambda w, N, r: calls.append(N) or tail_bound(w, N, r))
        code, out = elem(tmp_path, "eval", element([], [[1, 0]]), f"--z={z}")
        assert (code, out, calls) == (4, None, [])
        assert capsys.readouterr().err == (
            "numerical failure: no truncation index up to 100000 certifies "
            f"tolerance 1e-10 at |z| = {r}\n")

    def test_window_budget_is_numerical(self, tmp_path, capsys):
        def matrix(c):
            cycle = [[float(k), 0.0] for k in range(1, c + 1)]
            return {"weight": "factorial", "entries": [[{"cycle": cycle}]]}

        doc = {"A": matrix(10007), "B": matrix(10009)}
        assert run(["mat", "mul", "--json", write(tmp_path, doc)]) == 4
        assert "exceeds the budget" in capsys.readouterr().err

    def test_seed_flag_removed(self, tmp_path):
        assert elem(tmp_path, "norm", element([], [[1, 0]]), "--seed=1")[0] == 3


class TestIdealArguments:
    @pytest.mark.parametrize("argv, named", [
        (["trajectory", "--n", "0"], "n must be positive"),
        (["trajectory", "--horizon", "3"], "horizon must be at least 4"),
        (["index-order", "--k", "-1"], "k must be nonnegative"),
        (["chain", "--n", "0"], "n must be positive"),
        (["krull-family", "--n", "-2"], "n must be positive"),
        (["trajectory", "--ks", "3,2"], "ks must be strictly increasing"),
        (["trajectory", "--ks", "a"], "--ks must be comma-separated integers"),
        (["trajectory", "--ks=-1,2"], "ks must be nonnegative"),
    ], ids=["trajectory-n-0", "trajectory-horizon-3", "index-order-k-neg",
            "chain-n-0", "krull-family-n-neg", "ks-decreasing", "ks-not-int",
            "ks-negative"])
    def test_refused_with_exit_3(self, argv, named, tmp_path, capsys):
        doc = []
        if argv[0] == "index-order" or argv[1].startswith("--ks"):
            doc = ["--json", write(tmp_path, element([], [[1, 0]]))]
        assert run(["ideal", *argv, *doc]) == 3
        assert named in capsys.readouterr().err


class TestDocumentShape:
    def test_matrix_row_not_a_list(self, tmp_path, capsys):
        doc = {"weight": "factorial", "entries": [5]}
        assert run(["mat", "det", "--json", write(tmp_path, doc)]) == 3
        assert "entries[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("group, doc", [
        ("elem", {"weight": 5, "normalized": {"cycle": [[1, 0]]}}),
        ("mat", {"weight": ["factorial"], "entries": [[{"cycle": [[1, 0]]}]]}),
    ])
    def test_weight_not_a_string(self, group, doc, tmp_path, capsys):
        op = "norm" if group == "elem" else "det"
        assert run([group, op, "--json", write(tmp_path, doc)]) == 3
        assert "weight must be a name string" in capsys.readouterr().err


class TestOutsideTheOldContract:
    """Inputs that ended in a traceback or a long walk; each now exits with a
    documented code and a message naming the input."""

    def test_deeply_nested_document(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000 + "]" * 100000)
        assert run(["elem", "norm", "--json", str(p)]) == 3
        assert capsys.readouterr().err == (
            f"error: invalid JSON: {p} is nested too deeply\n")

    def test_undecodable_file(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{}")
        assert run(["elem", "norm", "--json", str(p)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {p}: 'utf-8' codec can't decode byte 0xff")

    def test_undecodable_stdin(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["elem", "norm", "--json", "-"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: cannot read standard input: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("op, cycle", [("norm", [[1, 0]]), ("invert", [[0, 0]])],
                             ids=["exit-0", "exit-2"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, op, cycle, target):
        # the answer (or the exit-2 witness) is computed first; its write fails
        out = tmp_path / "no" / "x.json" if target == "missing-dir" else tmp_path
        doc = write(tmp_path, element([], cycle))
        assert run(["elem", op, "--json", doc, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: [Errno ")
        assert err.count("\n") == 1

    def test_superexp_base_not_a_number_in_a_document(self, tmp_path, capsys):
        doc = {"weight": "superexp:b=.,q=2", "normalized": {"cycle": [[1, 0]]}}
        assert elem(tmp_path, "norm", doc)[0] == 3
        assert "'superexp:b=.,q=2'" in capsys.readouterr().err

    def test_superexp_base_not_a_number_on_the_command_line(self, capsys):
        assert run(["ideal", "chain", "--weight", "superexp:b=1.2.3,q=2"]) == 3
        assert "'superexp:b=1.2.3,q=2'" in capsys.readouterr().err

    def test_superexp_power_budget(self, tmp_path, capsys):
        # at q = 10^20, p(n) and its tail bounds need exact ints n^q: eval
        # would not return
        doc = {"weight": "superexp:b=2,q=99999999999999999999",
               "normalized": {"cycle": [[1, 0]]}}
        assert elem(tmp_path, "eval", doc, "--z=3") == (3, None)
        assert capsys.readouterr().err == "error: superexp power must be at most 64\n"
        doc["weight"] = "superexp:b=2,q=64"
        assert elem(tmp_path, "eval", doc, "--z=3")[0] == 0

    def test_custom_weight_name_is_unknown(self, tmp_path, capsys):
        doc = {"weight": "custom:cube", "normalized": {"cycle": [[1, 0]]}}
        assert elem(tmp_path, "norm", doc) == (3, None)
        assert capsys.readouterr().err == (
            "error: unknown weight name 'custom:cube'\n")


class TestDecodeCollector:
    """_load_doc decodes with the cyclic collector paused, and leaves it as
    the caller had it."""

    @pytest.fixture
    def during(self, monkeypatch):
        seen = []
        real = cli.json.loads
        monkeypatch.setattr(cli.json, "loads",
                            lambda text: seen.append(gc.isenabled()) or real(text))
        yield seen
        gc.enable()

    @pytest.mark.parametrize("text, code", [('{"weight": "factorial", '
                                             '"normalized": {"cycle": [[1, 0]]}}', 0),
                                            ("{not json", 3)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state(self, text, code, enabled, during, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(text)
        (gc.enable if enabled else gc.disable)()
        assert run(["elem", "norm", "--json", str(path)]) == code
        assert (during, gc.isenabled()) == ([False], enabled)
