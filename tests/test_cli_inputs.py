"""CLI boundary: the JSON writer's bytes, refused input and typed exits."""

import argparse
import cmath
import gc
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadalg import cli, serialize, weights
from hadalg.cli import _emit, run
from hadalg.errors import SchemaError


def write(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def element(prefix, cycle):
    return {"weight": "factorial", "normalized": {"prefix": prefix, "cycle": cycle}}


def lists(o):
    """o with every array replaced by its nested lists."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {k: lists(v) for k, v in o.items()}
    return [lists(v) for v in o] if isinstance(o, list) else o


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
        out = tmp_path / "o.json"
        _emit(payload, argparse.Namespace(out=str(out)))
        assert out.read_text() == json.dumps(lists(payload), indent=2) + "\n"

    def test_stdout(self, capsys):
        payload = self.PAYLOADS[4]
        _emit(payload, argparse.Namespace(out=None))
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


class TestChunkedWriter:
    """Arrays are written serialize._CHUNK_ROWS rows at a time, and their
    values formatted a block of at most that many rows at a time; the bytes
    are those of one json.dumps, whatever the chunk and block edges cut."""

    CHUNK = serialize._CHUNK_ROWS
    EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0]

    @staticmethod
    def rows(k, seed=0):
        a = np.random.default_rng(seed).standard_normal((k, 2))
        a.flags.writeable = False
        return a

    def edged(self, k):
        """k rows with NaN, +-Infinity and +-0.0 on both sides of each chunk
        edge, and in the first and last rows."""
        a = self.rows(k).copy()
        for edge in range(0, k + 1, self.CHUNK):
            for r in (edge - 2, edge - 1, edge, edge + 1):
                if 0 <= r < k:
                    a[r] = self.EDGE[r % 5], self.EDGE[(r + 2) % 5]
        a[0], a[-1] = (-0.0, math.nan), (math.inf, -0.0)
        return a

    def check(self, payload, tmp_path, capsysbinary):
        want = (json.dumps(lists(payload), indent=2) + "\n").encode()
        out = tmp_path / "o.json"
        _emit(payload, argparse.Namespace(out=str(out)))
        assert out.read_bytes() == want
        _emit(payload, argparse.Namespace(out=None))
        assert capsysbinary.readouterr().out == want

    @pytest.mark.parametrize("extra", [-1, 0, 1, None],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_array_at_a_chunk_edge(self, extra, tmp_path, capsysbinary):
        k = 2 * self.CHUNK + 1 if extra is None else self.CHUNK + extra
        self.check({"cycle": self.rows(k)}, tmp_path, capsysbinary)

    @pytest.mark.parametrize("k", [1, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_non_finite_and_signed_zeros_at_chunk_edges(self, k, tmp_path,
                                                        capsysbinary):
        self.check({"cycle": self.edged(k)}, tmp_path, capsysbinary)

    def test_multi_chunk_arrays_nested_in_one_document(self, tmp_path, capsysbinary):
        C = self.CHUNK
        doc = {"weight": "factorial",
               "entries": [[{"prefix": self.rows(C + 1, 1), "cycle": self.edged(2 * C + 1)},
                            {"prefix": self.rows(0), "cycle": self.rows(3, 2)}],
                           [{"prefix": self.edged(C), "cycle": self.rows(C - 1, 3)},
                            {"prefix": self.rows(1, 4), "cycle": self.edged(3 * C)}]],
               "tail": [self.rows(2 * C, 5), {"x": 0.5, "y": [self.edged(C + 1)]}]}
        self.check(doc, tmp_path, capsysbinary)

    def matrix(self, n):
        """An n x n matrix document of tiny cells: 0-2 prefix rows and 1-3
        cycle rows, values shared between cells, non-finite and signed
        zeros among them."""
        pool = np.array([0.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 2.0])
        rng = np.random.default_rng(n)
        cell = lambda k: pool[rng.integers(0, len(pool), (k, 2))]
        return {"weight": "factorial", "rows": n, "cols": n,
                "entries": [[{"prefix": cell(k % 3), "cycle": cell(1 + k % 3)}
                             for k in range(i * n, (i + 1) * n)] for i in range(n)]}

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The number of values each block formats, block by block."""
        sizes = []
        real = serialize._texts
        monkeypatch.setattr(serialize, "_texts",
                            lambda values: sizes.append(values.size) or real(values))
        return sizes

    def test_tiny_arrays_share_one_block(self, blocks, tmp_path, capsysbinary):
        doc = self.matrix(7)
        self.check(doc, tmp_path, capsysbinary)
        rows = sum(len(c[k]) for r in doc["entries"] for c in r for k in c)
        assert blocks == [2 * rows] * 2  # one block each for --out and stdout

    def test_blocks_hold_at_most_a_chunk_of_rows(self, blocks, tmp_path, capsysbinary):
        C = self.CHUNK
        # chunks of C - 1 | 2 | C | C | 3, C - 5 | C | 1, 2, 7 rows, in blocks
        doc = {"a": self.edged(C - 1), "b": [self.edged(2), self.edged(2 * C + 3)],
               "c": {"d": self.edged(C - 5), "e": self.edged(C + 1)},
               "f": [self.edged(2), self.edged(7)]}
        self.check(doc, tmp_path, capsysbinary)
        rows = [C - 1, 2, C, C, C - 2, C, 10]
        assert blocks == [2 * r for r in rows] * 2

    def test_one_array_over_several_blocks(self, blocks, tmp_path, capsysbinary):
        # 16 distinct values, each formatted again in every block
        rng = np.random.default_rng(3)
        a = rng.standard_normal(16)[rng.integers(0, 16, (3 * self.CHUNK + 5, 2))]
        a.ravel()[rng.integers(0, a.size, 40)] = np.resize(self.EDGE, 40)
        self.check({"cycle": a}, tmp_path, capsysbinary)
        assert blocks == [2 * self.CHUNK] * 3 + [10] + [2 * self.CHUNK] * 3 + [10]

    def test_peak_memory_is_one_block(self):
        # the writer holds one block of at most _CHUNK_ROWS rows, whatever
        # the size of the document: a 1,000,000-row array of distinct values
        # peaks at about 2 MB, where holding all its values took 236 MB
        a = np.random.default_rng(7).standard_normal((1_000_000, 2))
        args = argparse.Namespace(out=os.devnull)
        _emit({"cycle": a[:10]}, args)  # warm: imports, the first file open
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _emit({"cycle": a}, args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 << 20, peak


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
    @pytest.mark.parametrize("scale", [1e200, 1e100])
    def test_solve_inconsistent_past_the_double_range(self, scale, tmp_path, capsys):
        # A = diag(s, 0), b = (s, s): ||b|| overflows at s = 1e200, yet the
        # verdict and its witness are those at 1e100, with no numpy warning
        def cell(v):
            return {"prefix": [], "cycle": [[v, 0.0]]}
        doc = {"A": {"weight": "factorial", "entries": [[cell(scale), cell(0.0)],
                                                        [cell(0.0), cell(0.0)]]},
               "b": {"weight": "factorial", "entries": [[cell(scale)], [cell(scale)]]}}
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["mat", "solve", "--json", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["witness"] == {
            "position": 0, "y": [[0.0, 0.0], [1.0, 0.0]]}
        assert capsys.readouterr().err == (
            "FAIL: system inconsistent at coefficient position 0\n")

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

    def test_bass_reduce_has_no_eps(self, tmp_path, capsys):
        one, zero = element([], [[1, 0]]), element([], [[0, 0]])
        doc = {"f1": one, "f2": zero}
        assert elem(tmp_path, "bass-reduce", doc)[0] == 0
        capsys.readouterr()
        assert elem(tmp_path, "bass-reduce", doc, "--eps=0.25")[0] == 3
        assert "unrecognized arguments: --eps=0.25" in capsys.readouterr().err

    def test_bass_reduce_ignores_bezout_fields(self, tmp_path):
        # g1 and g2 are read by nothing: a document that carries them
        # answers as one without
        one, zero = element([], [[1, 0]]), element([], [[0, 0]])
        doc = {"f1": zero, "f2": one}
        code, out = elem(tmp_path, "bass-reduce", doc)
        assert (code, out) == elem(tmp_path, "bass-reduce", {**doc, "g1": one, "g2": one})
        assert (code, out["h"]["normalized"]["cycle"]) == (0, [[1.0, -0.0]])

    def test_bass_reduce_common_zero_is_math(self, tmp_path, capsys):
        # delta = inf(|u1| + |u2|) = 0: no h exists, and the witness is the
        # first index where both vanish
        doc = {"f1": element([[1, 0]], [[0, 0]]), "f2": element([], [[0, 0], [1, 0]])}
        code, out = elem(tmp_path, "bass-reduce", doc)
        assert (code, out["witness"]) == (2, {"index": 2})
        assert capsys.readouterr().err == (
            "FAIL: corona condition fails: generator moduli sum to 0 at index 2\n")

    def test_overflow_is_silent_as_in_python(self, tmp_path):
        # |u|^2 of 1e200(1 + i) overflows; the Bezout witnesses are formed
        # from u * 2^-e, so they still satisfy their identities
        f, u = complex(1e200, 1e200), element([], [[1e200, 1e200]])
        tiny = element([], [[1e-200, 0]])

        def cycle(doc):
            return [complex(*v) for v in doc["normalized"]["cycle"]]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = elem(tmp_path, "corona", {"elements": [u]})
            [g] = cycle(out["solution"][0])
            assert code == 0 and abs(g * f - 1) < 1e-15
            code, out = elem(tmp_path, "ideal-member", {"f": u, "generators": [u, tiny]})
            [h1], [h2] = map(cycle, out["coefficients"])
            assert code == 0 and cmath.isfinite(h1) and cmath.isfinite(h2)
            assert abs(h1 * f + h2 * 1e-200 - f) < 1e-15 * abs(f)
            # the quotient f / 1e-200 overflows, as Python's complex division
            # does: no answer holds it, and no --out file is written
            (tmp_path / "out.json").unlink()
            assert elem(tmp_path, "divide", {"f": u, "g": tiny}) == (4, None)

    def test_corona_of_a_tiny_constant(self, tmp_path):
        # |u|^2 = 1e-400 underflows to 0, yet 1/u = 1e200 is a double
        code, out = elem(tmp_path, "corona", {"elements": [element([], [[1e-200, 0]])]})
        assert (code, out["solution"][0]["normalized"]["cycle"]) == (0, [[1e200, -0.0]])

    def test_corona_witness_past_the_double_range(self, tmp_path, capsys):
        assert elem(tmp_path, "corona", {"elements": [element([], [[1e-310, 0]])]}) == (4, None)
        assert capsys.readouterr().err == (
            "numerical failure: solution[0].normalized.cycle is not finite at index 0\n")

    def test_quotient_near_the_ends_of_the_range(self, tmp_path, capsys):
        # 1/u = 2.94e-309(1 - i) is representable; unscaled, Smith's
        # denominator would overflow and the quotient come out 0.  invert
        # and divide scale u by its own power of two first, so both answer
        u = element([[2, 0]], [[1.7e308, 1.7e308]])
        code, out = elem(tmp_path, "invert", u)
        assert (code, out["inverse"]["normalized"]["cycle"]) == (
            0, [[2.941176470588236e-309, -2.941176470588236e-309]])
        one = element([], [[1, 0]])
        code, out = elem(tmp_path, "divide", {"f": one, "g": u})
        [q] = [complex(*v) for v in out["quotient"]["normalized"]["cycle"]]
        assert code == 0 and abs(q * complex(1.7e308, 1.7e308) - 1) < 1e-14
        # a quotient past the bottom of the range is lost
        doc = {"f": element([], [[1e-300, 0]]), "g": element([], [[1e300, 0]])}
        assert elem(tmp_path, "divide", doc)[0] == 4
        assert "quotient at index 0 underflows to 0" in capsys.readouterr().err
        # a zero dividend still divides to 0
        zero = element([], [[0, 0]])
        code, out = elem(tmp_path, "divide", {"f": zero, "g": u})
        assert (code, out["quotient"]["normalized"]["cycle"]) == (0, [[0.0, 0.0]])

    def test_ideal_member_witness_lost_below_the_range(self, tmp_path, capsys):
        # h = 1e-600 is no double: the witness 0 would certify f = 0, so
        # ideal-member refuses the pair that divide refuses
        doc = {"f": element([], [[1e-300, 0]]), "generators": [element([], [[1e300, 0]])]}
        assert elem(tmp_path, "ideal-member", doc) == (4, None)
        assert capsys.readouterr().err == (
            "numerical failure: Bezout witness at index 0 underflows to 0\n")

    def test_bass_reduce_non_finite_witness_is_numerical(self, tmp_path, capsys):
        # |u2| = 2.4e308 is past the double range, and so is every witness
        # of at least (|u1| + |u2|)/2: no answer, not an uncertified one
        doc = {"f1": element([], [[1e308, 0]]),
               "f2": element([], [[1.7e308, 1.7e308]])}
        assert elem(tmp_path, "bass-reduce", doc) == (4, None)
        assert "not finite at index 0" in capsys.readouterr().err

    @pytest.mark.parametrize("u1, u2, want", [(1e308, 1.5e308, 1.5e308),
                                               (1.6e308, 1.7e308, 1.7e308),
                                               (1e-310, 1e-310, 1e-310)])
    def test_bass_reduce_near_the_ends_of_the_range(self, u1, u2, want, tmp_path):
        # near the top |u1| + |u2| overflows, so the step lifts |u1| to |u2|
        # alone: h = 1 - u1/u2 and the witness is u2 >= (|u1| + |u2|)/2; at
        # the bottom h = 0 and the witness u1 is (|u1| + |u2|)/2 exactly,
        # though u1/2 + u2/2 rounds up there
        doc = {"f1": element([], [[u1, 0]]), "f2": element([], [[u2, 0]])}
        code, out = elem(tmp_path, "bass-reduce", doc)
        [[h, _]] = out["h"]["normalized"]["cycle"]
        [[wit, _]] = out["witness"]["normalized"]["cycle"]
        assert code == 0 and 0 <= h <= 1 and wit == u1 + h * u2 == want
        assert Fraction(wit) >= (Fraction(u1) + Fraction(u2)) / 2 * (1 - Fraction(2) ** -50)

    def test_trajectory_past_the_double_range(self, tmp_path, capsys):
        # |u| overflows: refused, as elem norm refuses it, not a traceback
        # and not an Infinity
        u = element([], [[1.7e308, 1.7e308]])
        out = tmp_path / "out.json"
        assert run(["ideal", "trajectory", "--json", write(tmp_path, u), "--ks", "0,1",
                    "--out", str(out)]) == 4
        assert not out.exists()
        assert capsys.readouterr().err == "numerical failure: values[0] is not finite\n"
        assert elem(tmp_path, "norm", u) == (4, None)
        assert capsys.readouterr().err == "numerical failure: norm is not finite\n"

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

    @pytest.mark.parametrize("cycle_len", [1, 3 * serialize._CHUNK_ROWS],
                             ids=["small", "multi-chunk"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("stdout", ["closed-pipe", "no-descriptor"])
    def test_unwritable_stdout(self, tmp_path, stdout, buffered, cycle_len):
        # as an unwritable --out: exit 3 and one line, with no traceback and
        # no "Exception ignored" at shutdown
        doc = write(tmp_path, element([], [[k + 0.5, 0] for k in range(cycle_len)]))
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = f"import sys; sys.path.insert(0, {src!r}); from hadalg.cli import main; main()"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        os.close(r)  # no reader: each write to the pipe fails with EPIPE
        try:
            kw = ({"stdout": w} if stdout == "closed-pipe"
                  else {"preexec_fn": lambda: os.close(1)})
            proc = subprocess.run([sys.executable, "-c", code, "elem", "invert",
                                   "--json", doc], stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120, **kw)
        finally:
            os.close(w)
        reason = ("[Errno 32] Broken pipe" if stdout == "closed-pipe"
                  else "[Errno 9] Bad file descriptor")
        assert (proc.returncode, proc.stderr) == (
            3, f"error: cannot write standard output: {reason}\n")

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
    """run pauses the cyclic collector for the whole request, decoding and
    writing included, and leaves it as the caller had it on every exit."""

    @pytest.fixture
    def during(self, monkeypatch):
        """The collector's state at each decode call, by orjson or by json (a
        text that orjson refuses is decoded by both)."""
        seen = []
        for module in (cli.orjson, cli.json):
            real = module.loads
            monkeypatch.setattr(module, "loads", lambda text, real=real:
                                seen.append(gc.isenabled()) or real(text))
        yield seen
        gc.enable()

    @pytest.fixture
    def writing(self, monkeypatch):
        seen = []
        real = cli.serialize.dump
        monkeypatch.setattr(cli.serialize, "dump",
                            lambda doc, fh: seen.append(gc.isenabled()) or real(doc, fh))
        return seen

    @pytest.mark.parametrize("text, code", [('{"weight": "factorial", '
                                             '"normalized": {"cycle": [[1, 0]]}}', 0),
                                            ("{not json", 3)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state(self, text, code, enabled, during, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(text)
        (gc.enable if enabled else gc.disable)()
        assert run(["elem", "norm", "--json", str(path)]) == code
        assert (set(during), gc.isenabled()) == ({False}, enabled)

    @pytest.mark.parametrize("op, doc, code", [
        ("norm", element([], [[1, 0]]), 0),
        ("invert", element([[1, 0]], [[0, 0]]), 2),
        ("corona", {"elements": [element([[1, 0]], [[1e-310, 0]])]}, 4)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_on_every_exit(self, op, doc, code, enabled, during,
                                           writing, tmp_path, capsys):
        path = write(tmp_path, doc)
        (gc.enable if enabled else gc.disable)()
        assert run(["elem", op, "--json", path]) == code
        written = [False] if code in (0, 2) else []
        assert (set(during), writing, gc.isenabled()) == ({False}, written, enabled)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_after_an_uncaught_exception(self, enabled, during,
                                                         monkeypatch, tmp_path):
        seen = []

        def fail(f):
            seen.append(gc.isenabled())
            raise RuntimeError("not a typed failure")

        monkeypatch.setattr(cli.algebra, "norm", fail)
        path = write(tmp_path, element([], [[1, 0]]))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="not a typed failure"):
            run(["elem", "norm", "--json", path])
        assert (set(during), seen, gc.isenabled()) == ({False}, [False], enabled)


# -- the reader: orjson where it builds json's tree, json.loads elsewhere -----

def digits(n):
    return st.text("0123456789", min_size=n, max_size=n)


plain_number = st.one_of(st.integers(-10 ** 18 + 1, 10 ** 18 - 1).map(str),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))
odd_number = st.one_of(
    st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1,
                     2 ** 64, 2 ** 64 + 1, -2 ** 64 - 1]).map(str),
    st.integers(18, 29).flatmap(lambda n: st.integers(10 ** n, 10 ** (n + 1) - 1)
                                ).map(str),                      # 19-30 digits
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
                     "-0", "-0.0", "1E+2", "01", "1.", "- 1"]),
    st.integers(10 ** 399, 10 ** 400 - 1).map(str),
    st.builds("{}.{}".format, st.sampled_from(["0", "-1", "9" * 400]), digits(400)),
    st.builds("{}.{}".format, st.sampled_from(["0", "-1", "12"]),
              st.integers(15, 45).flatmap(digits)),             # fractions near the guard's runs
    st.builds("1{}e{}".format, st.sampled_from(["", ".5"]),
              st.integers(1, 25).flatmap(digits)))
string = st.builds(
    lambda text, how: how(text),
    st.text('ab[]{}"\\\u00e9\t\r/ ', max_size=5),
    st.sampled_from([json.dumps, lambda t: json.dumps(t, ensure_ascii=False),
                     lambda t: f'"{t}"']))
nested = st.one_of(st.integers(30, 40).map(lambda d: "[" * d + "1" + "]" * d),
                   st.just("[" * 2000 + "]" * 2000))


@st.composite
def mutated_texts(draw):
    """An element document with one mutation: an odd number literal in a
    cell, an unread key with an odd, nested or string value (or an odd key),
    CRLF separators, a BOM, or trailing garbage; or none."""
    cells = draw(st.lists(st.lists(plain_number, min_size=2, max_size=2),
                          min_size=1, max_size=4))
    key, value = '"unread"', "1"
    kind = draw(st.sampled_from(["none", "cell", "value", "key", "crlf", "wrap"]))
    if kind == "cell":
        cells[draw(st.integers(0, len(cells) - 1))][draw(st.integers(0, 1))] = draw(
            odd_number)
    elif kind == "value":
        value = draw(st.one_of(odd_number, string, nested))
    elif kind == "key":
        key = draw(string)
    cycle = ", ".join(f"[{a}, {b}]" for a, b in cells)
    text = (f'{{"weight": "factorial", {key}: {value}, '
            f'"normalized": {{"prefix": [], "cycle": [{cycle}]}}}}')
    if kind == "crlf":
        text = text.replace(", ", ",\r\n")
    if kind == "wrap":
        text = (draw(st.sampled_from(["", "\ufeff", " \r\n"])) + text
                + draw(st.sampled_from(["", "\r\n", " x", "]", "}", ", 1"])))
    return text


def same(a, b) -> bool:
    """a and b are equal with the same types, float bits and key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


class TestReader:
    """_load_doc gives json.loads's tree (same types, same float bits) or its
    SchemaError text on every text, whichever decoder _plain chooses."""

    @staticmethod
    def read(text):
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            try:
                return cli._load_doc(argparse.Namespace(json="-"))
            except SchemaError as exc:
                return SchemaError, str(exc)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mutated_texts())
    def test_same_tree_as_json(self, text):
        with mock.patch.object(cli, "_plain", lambda text: False):
            want = self.read(text)
        assert same(self.read(text), want)

    @pytest.mark.parametrize("text, plain", [
        ('{"a": [1.5, -2e-05, 123456789012345678, true, null], "b": "x"}', True),
        ("[1234567890123456789]", False),            # 19 integer digits
        ("[-1234567890123456789.5]", False),
        ("[1e1234567890123456789]", False),          # 19 exponent digits
        ("[0.0001234567890123456789]", True),        # a fraction
        ("[0." + "1" * 38 + "]", False),
        ('["[", {"}": 1}]', True),                   # brackets in strings
        ('["[", ' + "[1], " * 32 + "1]", False),     # and many outside
        ('["]", ' + "[1], " * 32 + "1]", False),
        ('["[]", ' + "[1], " * 32 + "1]", False),
        ('["", ' + "[1], " * 32 + "1]", True),
        ('["a\\\\b"]', False),
        ('{"\u00e9": 1}', False),
        ("[" * 32 + "]" * 32, True),
        ("[" * 33 + "]" * 33, False),
        ("[" + ", ".join(["[[1, 2]]"] * 40) + "]", True),
        ('[{"a": ' * 16 + "1" + "}]" * 16, True),
        ('[{"a": ' * 17 + "1" + "}]" * 17, False),
    ])
    def test_plain(self, text, plain):
        assert cli._plain(text) is plain

    def test_wide_int_keeps_its_type(self, tmp_path, capsys):
        # orjson reads an int outside [-2^63, 2^64) as a float: the value is
        # the same here (a tie, rounded to even), the message is not
        wide = 2175973101849294536704
        assert elem(tmp_path, "norm", element([], [[wide, 0]])) == (
            0, {"norm": 2.1759731018492947e+21})
        assert elem(tmp_path, "norm", element([], [[wide, 0, 0]]))[0] == 3
        assert capsys.readouterr().err.endswith(
            f"error: expected a number or [re, im] pair, got [{wide}, 0, 0]\n")

    def test_deep_unread_key_is_nested_too_deeply(self, tmp_path, capsys):
        p = tmp_path / "in.json"
        p.write_text('{"unread": ' + "[" * 2000 + "]" * 2000
                     + ', "weight": "factorial", "normalized": {"cycle": [[1, 0]]}}')
        assert run(["elem", "norm", "--json", str(p)]) == 3
        assert capsys.readouterr().err == (
            f"error: invalid JSON: {p} is nested too deeply\n")
