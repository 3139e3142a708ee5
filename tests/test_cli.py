import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hadalg import serialize
from hadalg.cli import run

EPS_DOC = {"weight": "factorial", "normalized": {"prefix": [], "cycle": [[1, 0]]}}
Z_DOC = {"weight": "factorial",
         "normalized": {"prefix": [[0, 0], [1, 0]], "cycle": [[0, 0]]}}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def invoke(args, tmp_path, capsys=None):
    out = tmp_path / "out.json"
    code = run(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestElem:
    def test_invert_unit(self, tmp_path):
        code, payload = invoke(["elem", "invert",
                                "--json", write(tmp_path, "e.json", EPS_DOC)],
                               tmp_path)
        assert code == 0
        assert payload["delta"] == 1.0
        assert payload["inverse"] == EPS_DOC

    def test_invert_failure_witness(self, tmp_path):
        code, payload = invoke(["elem", "invert",
                                "--json", write(tmp_path, "z.json", Z_DOC)],
                               tmp_path)
        assert code == 2
        assert payload["witness"]["index"] == 0

    def test_corona_failure(self, tmp_path):
        doc = {"elements": [Z_DOC]}
        code, payload = invoke(["elem", "corona",
                                "--json", write(tmp_path, "c.json", doc)],
                               tmp_path)
        assert code == 2
        assert payload["witness"]["index"] == 0

    def test_eval(self, tmp_path):
        import math
        code, payload = invoke(["elem", "eval", "--z", "1", "--tol", "1e-12",
                                "--json", write(tmp_path, "e.json", EPS_DOC)],
                               tmp_path)
        assert code == 0
        assert abs(payload["value"][0] - math.e) < 1e-11

    def test_divide(self, tmp_path):
        doc = {"f": {"weight": "factorial",
                     "normalized": {"prefix": [], "cycle": [[2, 0]]}},
               "g": {"weight": "factorial",
                     "normalized": {"prefix": [], "cycle": [[4, 0]]}}}
        code, payload = invoke(["elem", "divide",
                                "--json", write(tmp_path, "d.json", doc)],
                               tmp_path)
        assert code == 0
        assert payload["C"] == 0.5

    def test_output_round_trips(self, tmp_path):
        doc = {"weight": "factorial",
               "normalized": {"prefix": [[0.1234567890123456789, 2.5]],
                              "cycle": [[1, 0]]}}
        code, payload = invoke(["elem", "exp",
                                "--json", write(tmp_path, "f.json", doc)],
                               tmp_path)
        assert code == 0
        code2, payload2 = invoke(["elem", "log",
                                  "--json", write(tmp_path, "g.json",
                                                  payload["exp"])],
                                 tmp_path)
        assert code2 == 0


class TestMat:
    DIAG = {"weight": "factorial",
            "entries": [[{"prefix": [], "cycle": [[2, 0]]},
                         {"prefix": [], "cycle": [[0, 0]]}],
                        [{"prefix": [], "cycle": [[0, 0]]},
                         {"prefix": [], "cycle": [[0.5, 0]]}]]}

    def test_sl_factor(self, tmp_path):
        code, payload = invoke(["mat", "sl-factor",
                                "--json", write(tmp_path, "m.json", self.DIAG)],
                               tmp_path)
        assert code == 0
        assert len(payload["factors"]) <= 6
        assert payload["verification"]["max_error"] <= 1e-9

    def test_tiny_pivot_factored(self, tmp_path):
        # det 1 at both positions; at position 1 the first pivot is 2^-40
        # with nothing below it for the boost to add, and the factors of
        # diag(2^-40, 2^40) are exact
        tiny = 2.0 ** -40
        doc = {"weight": "factorial",
               "entries": [[{"cycle": [[1, 0], [tiny, 0]]}, {"cycle": [[0, 0]]}],
                           [{"cycle": [[0, 0]]}, {"cycle": [[1, 0], [1 / tiny, 0]]}]]}
        code, payload = invoke(["mat", "sl-factor",
                                "--json", write(tmp_path, "m.json", doc)],
                               tmp_path)
        assert code == 0
        assert len(payload["factors"]) == 5
        assert payload["verification"]["max_error"] == 0.0

    @pytest.mark.parametrize("b, c, err", [(-1e200, 1e-200, 0.0),
                                           (-1e-200, 1e200, 1e-200)])
    def test_boost_past_the_squared_range(self, b, c, err, tmp_path):
        # [[0, b], [c, 0]] has det 1 and a zero first pivot; c^2 under- or
        # overflows, so the boost raises it only with rho taken of c * 2^-e
        A = np.array([[0, b], [c, 0]], dtype=complex)
        doc = {"weight": "factorial",
               "entries": [[{"cycle": [[x.real, x.imag]]} for x in row] for row in A]}
        code, payload = invoke(["mat", "sl-factor",
                                "--json", write(tmp_path, "m.json", doc)],
                               tmp_path)
        assert code == 0 and payload["verification"]["max_error"] == err
        prod = np.eye(2, dtype=complex)
        for f in payload["factors"]:  # the ordered product of I + alpha e_ij
            [alpha] = f["alpha"]["normalized"]["cycle"]
            assert f["i"] != f["j"] and f["alpha"]["normalized"]["prefix"] == []
            prod[:, f["j"]] += complex(*alpha) * prod[:, f["i"]]
        assert np.abs(prod - A).max() == err

    def test_zero_column_exit_4(self, tmp_path, capsys):
        # a --tol of 2 lets det 0 through; the first column of position 1
        # is 0, so its pivot stays 0
        zero = {"cycle": [[1, 0], [0, 0]]}
        doc = {"weight": "factorial",
               "entries": [[zero, {"cycle": [[0, 0]]}],
                           [{"cycle": [[0, 0]]}, zero]]}
        code = run(["mat", "sl-factor", "--json", write(tmp_path, "m.json", doc),
                    "--tol", "2"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: pivot 0.000e+00 at position 1: "
            "numerically singular\n")

    @pytest.mark.parametrize("d1, d2, det", [
        ([2, 0], [1, 0], [2.0, 0.0]),
        # LAPACK's det of these is nan + nan i: a pivot's modulus overflows
        ([1.7e308, 1.7e308], [1.7e308, 1.7e308], [0.0, math.inf]),
        ([1, 0], [1.7e308, 1.7e308], [1.7e308, 1.7e308]),
    ], ids=["det-2", "overflowing-det", "overflowing-det-one"])
    def test_not_sl_exit_2(self, d1, d2, det, tmp_path):
        doc = {"weight": "factorial",
               "entries": [[{"prefix": [], "cycle": [d1]},
                            {"prefix": [], "cycle": [[0, 0]]}],
                           [{"prefix": [], "cycle": [[0, 0]]},
                            {"prefix": [], "cycle": [d2]}]]}
        code, payload = invoke(["mat", "sl-factor",
                                "--json", write(tmp_path, "m.json", doc)],
                               tmp_path)
        assert code == 2 and payload["witness"]["position"] == 0
        np.testing.assert_equal(payload["witness"]["det"], det)

    def test_overflowing_pivot_with_det_1_is_not_refused_as_not_sl(self, tmp_path, capsys):
        # diag(z, 1/z) has det 1 as its doubles read, but LAPACK's is nan:
        # |z| overflows; the factorization then has no answer, not a wrong one
        doc = {"weight": "factorial",
               "entries": [[{"cycle": [[1.3e308, 1.3e308]]}, {"cycle": [[0, 0]]}],
                           [{"cycle": [[0, 0]]},
                            {"cycle": [[0.5 / 1.3e308, -0.5 / 1.3e308]]}]]}
        code = run(["mat", "sl-factor", "--json", write(tmp_path, "m.json", doc)])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: pivot inf at position 0: numerically singular\n")

    def test_solve_inconsistent_exit_2(self, tmp_path):
        doc = {"A": {"weight": "factorial",
                     "entries": [[{"prefix": [], "cycle": [[1, 0]]}],
                                 [{"prefix": [], "cycle": [[1, 0]]}]]},
               "b": {"weight": "factorial",
                     "entries": [[{"prefix": [], "cycle": [[1, 0]]}],
                                 [{"prefix": [], "cycle": [[2, 0]]}]]}}
        code, payload = invoke(["mat", "solve",
                                "--json", write(tmp_path, "s.json", doc)],
                               tmp_path)
        assert code == 2
        assert "y" in payload["witness"]

    def test_log_singular_exit_2(self, tmp_path):
        doc = {"weight": "factorial",
               "entries": [[{"prefix": [], "cycle": [[0, 0]]}]]}
        code, payload = invoke(["mat", "log",
                                "--json", write(tmp_path, "m.json", doc)],
                               tmp_path)
        assert code == 2

    def test_norm_bounds(self, tmp_path):
        code, payload = invoke(["mat", "norm-bounds",
                                "--json", write(tmp_path, "m.json", self.DIAG)],
                               tmp_path)
        assert code == 0
        assert payload["spectral_sup"] <= payload["entry_bound"]

    def test_cells_are_canonical_before_their_joint_window(self, tmp_path):
        # raw cycles of 1,024 and 1,025 copies would need lcm 1,049,600 >
        # MAX_WINDOW positions; their canonical cycles (1,) and (2,) need 1
        doc = {"weight": "factorial",
               "entries": [[{"prefix": [], "cycle": [[1, 0]] * 1024},
                            {"prefix": [], "cycle": [[2, 0]] * 1025}]]}
        code, payload = invoke(["mat", "norm-bounds",
                                "--json", write(tmp_path, "m.json", doc)],
                               tmp_path)
        assert code == 0
        assert payload == {"spectral_sup": pytest.approx(5 ** 0.5),
                           "entry_bound": 4.0}


def exact_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * exact_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def singular_at_1(rows):
    """The matrix with U(0) = I, U(1) = rows and U(k) = I from k = 2 on."""
    n = len(rows)
    return {"weight": "factorial",
            "entries": [[{"prefix": [[float(i == j), 0], [v.real, v.imag]],
                          "cycle": [[float(i == j), 0]]}
                         for j, v in enumerate(map(complex, row))]
                        for i, row in enumerate(rows)]}


SMALL = (-1, 0, 1, 2)
SINGULAR_2X2 = [[[a, b], [c, d]] for a, b, c, d in itertools.product(SMALL, repeat=4)
                if a * d == b * c]


def singular_3x3(count, seed=3):
    rng, out = random.Random(seed), []
    while len(out) < count:
        rows = [[rng.choice(SMALL) for _ in range(3)] for _ in range(3)]
        if exact_det(rows) == 0:
            out.append(rows)
    return out


class TestSingularLog:
    """mat log decides singularity exactly where eigvals leaves a rounding
    residue in place of the zero eigenvalue."""

    def check_singular_at_1(self, rows, tmp_path):
        code, payload = invoke(["mat", "log", "--json",
                                write(tmp_path, "m.json", singular_at_1(rows))],
                               tmp_path)
        assert (code, payload["witness"]) == (2, {"position": 1}), rows

    def test_constant_twos(self, tmp_path):
        doc = {"weight": "factorial",
               "entries": [[{"cycle": [[2, 0]]}, {"cycle": [[2, 0]]}],
                           [{"cycle": [[2, 0]]}, {"cycle": [[2, 0]]}]]}
        code, payload = invoke(["mat", "log", "--json",
                                write(tmp_path, "m.json", doc)], tmp_path)
        assert (code, payload["witness"]) == (2, {"position": 0})

    @pytest.mark.parametrize("scale", [1, 0.375j])
    def test_every_singular_2x2(self, scale, tmp_path):
        assert len(SINGULAR_2X2) == 66
        for rows in SINGULAR_2X2:
            self.check_singular_at_1([[v * scale for v in r] for r in rows], tmp_path)

    def test_sampled_singular_3x3(self, tmp_path):
        for rows in singular_3x3(60):
            self.check_singular_at_1(rows, tmp_path)

    def test_flagged_but_invertible_keeps_its_outcome(self, tmp_path):
        # sigma_min = 2^-60 is within rounding of 0, but det = 2^-60 is not 0;
        # a positive spectrum's branch takes arguments in (pi, 3 pi)
        doc = singular_at_1([[1, 0], [0, 2.0 ** -60]])
        code, payload = invoke(["mat", "log", "--json",
                                write(tmp_path, "m.json", doc)], tmp_path)
        assert code == 0
        B = serialize.matrix_from_json(payload["log"]).U(1)
        want = np.diag([0, -60 * math.log(2)]) + 2j * math.pi * np.eye(2)
        assert np.max(np.abs(B - want)) <= 1e-12


class TestIdealAndWeight:
    def test_index_order(self, tmp_path):
        code, payload = invoke(["ideal", "index-order", "--k", "0",
                                "--json", write(tmp_path, "f.json", Z_DOC)],
                               tmp_path)
        assert code == 0
        assert payload["m"] == 1 and payload["flag"] == "exact"

    def test_index_order_far_past_the_window(self, tmp_path, capsys):
        # prefix of 2, then a 7-cycle whose zeros sit at residues 2, 3, 4
        doc = {"weight": "factorial",
               "normalized": {"prefix": [[5, 0], [0, 0]],
                              "cycle": [[1, 0], [1, 0], [0, 0], [0, 0], [0, 0],
                                        [1, 0], [1, 0]]}}
        path = write(tmp_path, "f.json", doc)
        for k in range(10 ** 30, 10 ** 30 + 7):
            r = (k - 2) % 7
            code, payload = invoke(["ideal", "index-order", "--k", str(k),
                                    "--json", path], tmp_path)
            assert code == 0
            assert payload == {"k": k, "m": 5 - r if 2 <= r <= 4 else 0,
                               "flag": "exact"}
            assert capsys.readouterr().err == f"m(f, {k}) = {payload['m']} [exact]\n"

    def test_chain(self, tmp_path):
        code, payload = invoke(["ideal", "chain", "--kind", "artinian",
                                "--n", "2"], tmp_path)
        assert code == 0
        assert payload["in_larger"] and payload["outside_smaller"]

    def test_krull_family(self, tmp_path):
        code, payload = invoke(["ideal", "krull-family", "--n", "1",
                                "--horizon", "64"], tmp_path)
        assert code == 0
        assert [2, 3] in payload["zero_blocks"]  # k=1: [2^1, 2^1 + 1^2]

    def test_trajectory_doc(self, tmp_path):
        code, payload = invoke(["ideal", "trajectory", "--ks", "0,2,4",
                                "--json", write(tmp_path, "f.json", Z_DOC)],
                               tmp_path)
        assert code == 0
        assert payload["certified"] == "exact"

    def test_weight_list(self, tmp_path):
        assert invoke(["weight", "list"], tmp_path)[0] == 0
        assert (tmp_path / "out.json").read_text() == (
            '{\n  "weights": [\n    "factorial",\n'
            '    "superexp:b=<base>,q=<power>"\n  ]\n}\n')


IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
from hadalg.cli import run

tmp = Path(tempfile.mkdtemp())
one = {"weight": "factorial", "normalized": {"cycle": [[2, 0]]}}
mat = {"weight": "factorial", "entries": [[one["normalized"]]]}


def constant(rows):
    return {"weight": "factorial",
            "entries": [[{"cycle": [[v, 0]]} for v in row] for row in rows]}


turn = constant([[0, -1], [1, 0]])  # a quarter turn: its first pivot is 0
generic = constant([[2, 1], [1, 3]])
jordan = constant([[1, 1], [0, 1]])  # no basis of eigenvectors: logm
for name, doc in [("e", one), ("m", mat), ("s", {"A": mat, "b": mat}),
                  ("p", {"A": mat, "B": mat}), ("r", turn), ("g", generic),
                  ("j", jordan)]:
    (tmp / name).write_text(json.dumps(doc))
out = ["--out", str(tmp / "out")]
for argv in (["weight", "list"], ["elem", "invert", "--json", str(tmp / "e")],
             ["ideal", "trajectory", "--n", "2", "--horizon", "4096"],
             ["mat", "mul", "--json", str(tmp / "p")],
             ["mat", "det", "--json", str(tmp / "m")],
             ["mat", "solve", "--json", str(tmp / "s")],
             ["mat", "norm-bounds", "--json", str(tmp / "m")],
             ["mat", "sl-factor", "--json", str(tmp / "r")],
             ["mat", "exp", "--json", str(tmp / "m")],
             ["mat", "exp", "--json", str(tmp / "g")],
             ["mat", "log", "--json", str(tmp / "m")],
             ["mat", "log", "--json", str(tmp / "g")]):
    assert run(argv + out) == 0, argv
    assert "scipy" not in sys.modules, argv
assert run(["mat", "log", "--json", str(tmp / "j")] + out) == 0
assert "scipy.linalg" in sys.modules
"""


def test_scipy_loaded_only_by_the_operations_that_call_it():
    """A fresh interpreter, since the test session has imported scipy."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})"
                           + IMPORT_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["elem", "norm", "--json", str(bad)]) == 3

    def test_missing_file_is_3(self):
        assert run(["elem", "norm", "--json", "/nonexistent.json"]) == 3

    def test_bad_subcommand_is_3(self):
        assert run(["elem", "frobnicate"]) == 3

    def test_schema_error_is_3(self, tmp_path):
        doc = {"weight": "unknown-weight",
               "normalized": {"prefix": [], "cycle": [[1, 0]]}}
        assert run(["elem", "norm",
                    "--json", write(tmp_path, "w.json", doc)]) == 3

    def test_numerical_error_is_4(self, tmp_path):
        # factorial weight overflows past index 170: raw-form construction
        # at index 200 cannot be represented
        doc = {"weight": "factorial", "raw_prefix": [1.0] * 200}
        assert run(["elem", "norm",
                    "--json", write(tmp_path, "o.json", doc)]) == 4
