"""No exit 0 writes NaN or Infinity: every answer is finite numbers, so one
that leaves the double range exits 4 with one stderr line naming the JSON
path of its first value that is not finite, and no --out file.

The grid runs every `elem` and `mat` operation, and `ideal trajectory --ks`,
on the constants 1e-310, 1e-200, 1e200, 1.7e308(1 + i) and 1: one constant
for an operation of one operand, every ordered pair for one of two."""

import itertools
import json
import warnings

import pytest

from hadalg.cli import run

CONSTANTS = {"1e-310": 1e-310, "1e-200": 1e-200, "1e200": 1e200,
             "1.7e308(1+i)": complex(1.7e308, 1.7e308), "1": 1.0}


def pair(c):
    c = complex(c)
    return [c.real, c.imag]


def element(c):
    return {"weight": "factorial", "normalized": {"prefix": [], "cycle": [pair(c)]}}


def diag(cs):
    return {"weight": "factorial",
            "entries": [[{"cycle": [pair(c if i == j else 0)]} for j in range(len(cs))]
                        for i, c in enumerate(cs)]}


def column(c):
    return {"weight": "factorial", "entries": [[{"cycle": [pair(c)]}]] * 2}


UNARY = {
    ("elem", "norm"): element, ("elem", "invert"): element, ("elem", "exp"): element,
    ("elem", "log"): element, ("elem", "idempotent"): element,
    ("elem", "approx-invert"): element, ("elem", "eval"): element,
    ("ideal", "trajectory"): element,
    **{("mat", op): lambda c: diag([c] * 2)
       for op in ("det", "exp", "log", "sl-factor", "norm-bounds")},
}
BINARY = {
    ("elem", "divide"): lambda a, b: {"f": element(a), "g": element(b)},
    ("elem", "gcd"): lambda a, b: {"elements": [element(a), element(b)]},
    ("elem", "ideal-member"): lambda a, b: {"f": element(a), "generators": [element(b)]},
    ("elem", "corona"): lambda a, b: {"elements": [element(a), element(b)]},
    ("elem", "bass-reduce"): lambda a, b: {"f1": element(a), "f2": element(b)},
    ("mat", "mul"): lambda a, b: {"A": diag([a] * 2), "B": diag([b] * 2)},
    ("mat", "solve"): lambda a, b: {"A": diag([a] * 2), "b": column(b)},
}
FLAGS = {("elem", "eval"): ["--z", "0.5"], ("ideal", "trajectory"): ["--ks", "0,1"]}

GRID = ([(op, (name,), make(c)) for op, make in UNARY.items()
         for name, c in CONSTANTS.items()]
        + [(op, names, make(*(CONSTANTS[n] for n in names))) for op, make in BINARY.items()
           for names in itertools.product(CONSTANTS, repeat=2)]
        # invertible diagonals on which eig returns an eigenvalue 0
        + [(("mat", "log"), tuple(map(str, d)), diag(d))
           for d in [(1e300, 1e-300), (1e-310, 1e200), (1e200, 1e-310)]])


def reject(constant):
    raise AssertionError(f"exit 0 wrote {constant}")


def answer(tmp_path, capsys, op, doc):
    """(exit code, the stderr lines, the --out text or None)."""
    (tmp_path / "in.json").write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    # outside pytest a warning prints to stderr, so none may be raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([*op, "--json", str(tmp_path / "in.json"), *FLAGS.get(op, []),
                    "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    return code, capsys.readouterr().err.splitlines(), (
        out.read_text() if out.exists() else None)


@pytest.mark.parametrize("op, names, doc", GRID,
                         ids=[f"{' '.join(op)}-{','.join(names)}" for op, names, _ in GRID])
def test_no_exit_0_writes_a_value_that_is_not_finite(op, names, doc, tmp_path, capsys):
    code, err, text = answer(tmp_path, capsys, op, doc)
    assert code in (0, 2, 4) and len(err) == 1, (code, err)
    # every diagonal of the grid is invertible, so none is refused as singular
    assert (op, code) != (("mat", "log"), 2), err
    if code == 0:
        json.loads(text, parse_constant=reject)
    elif code == 4:
        assert err[0].startswith("numerical failure: ") and text is None


# answers that exit 0 with NaN or Infinity without the rule, and the path
# each is now refused at
@pytest.mark.parametrize("op, doc, path", [
    (("mat", "mul"), {"A": diag([1e200]), "B": diag([1e200])},
     "product.entries[0][0].cycle is not finite at index 0"),
    (("mat", "det"), diag([1e200] * 2), "det.normalized.cycle is not finite at index 0"),
    (("elem", "gcd"), {"elements": [element(1.7e308 + 1.7e308j), element(1)]},
     "gcd.normalized.cycle is not finite at index 0"),
    (("elem", "norm"), element(1.7e308 + 1.7e308j), "norm is not finite"),
    (("ideal", "trajectory"), element(1.7e308 + 1.7e308j), "values[0] is not finite"),
    (("mat", "norm-bounds"), diag([1.7e308 + 1.7e308j] * 2), "spectral_sup is not finite"),
    (("elem", "invert"), element(1e-310), "inverse.normalized.cycle is not finite at index 0"),
    (("elem", "divide"), {"f": element(1e300), "g": element(1e-300)}, "C is not finite"),
    (("mat", "solve"), {"A": diag([1, 1]), "b": column(1e-310)}, "delta is not finite"),
    # here x = A^-1 b is NaN, and mat_solve refuses it where it arises
    (("mat", "solve"), {"A": diag([1e-310] * 2), "b": column(1)},
     "solution is not finite at position 0"),
    (("elem", "ideal-member"), {"f": element(1.7e308 + 1.7e308j),
                                "generators": [element(1)]}, "C is not finite"),
    (("elem", "corona"), {"elements": [element(1e-310)]},
     "solution[0].normalized.cycle is not finite at index 0"),
    (("elem", "corona"), {"elements": [element(1.7e308 + 1.7e308j)]},
     "delta is not finite"),
    (("elem", "invert"), element(1.7e308 + 1.7e308j), "delta is not finite"),
    (("elem", "bass-reduce"), {"f1": element(1.7e308 + 1.7e308j), "f2": element(1)},
     "delta is not finite"),
    (("elem", "bass-reduce"), {"f1": element(1e308), "f2": element(1.7e308 + 1.7e308j)},
     "witness.normalized.cycle is not finite at index 0"),
], ids=["mul", "det", "gcd", "norm", "trajectory", "norm-bounds", "invert", "divide",
        "solve", "solve-x", "ideal-member", "corona", "corona-delta", "invert-delta",
        "bass-reduce-delta", "bass-reduce-witness"])
def test_refused_at_the_path_of_the_first_value_not_finite(op, doc, path, tmp_path,
                                                          capsys):
    assert answer(tmp_path, capsys, op, doc) == (4, [f"numerical failure: {path}"], None)


def test_solve_writes_inf_only_for_x_zero(tmp_path, capsys):
    """delta = 1/sup|x| is written "inf" only where x = 0.  A nonzero
    subnormal x, here x = b = 1e-310 with A = I, has delta = 7.1e309, past
    the double range: refused, not written as the delta of x = 0."""
    for b, want in [(0.0, "inf"), (1e-308, pytest.approx(1 / (2 ** 0.5 * 1e-308)))]:
        code, err, text = answer(tmp_path, capsys, ("mat", "solve"),
                                 {"A": diag([1, 1]), "b": column(b)})
        assert (code, json.loads(text)["delta"]) == (0, want)
    (tmp_path / "out.json").unlink()
    assert answer(tmp_path, capsys, ("mat", "solve"), {"A": diag([1, 1]), "b": column(1e-310)}) \
        == (4, ["numerical failure: delta is not finite"], None)


def test_solve_refuses_an_earlier_inconsistent_position_first(tmp_path, capsys):
    # A(0) = diag(1, 0) is inconsistent with b = (1, 1); A(1) = diag(1e-310, 0)
    # gives x(1) = (inf, 0), refused only if no earlier position is
    A = {"weight": "factorial",
         "entries": [[{"cycle": [[1, 0], [1e-310, 0]]}, {"cycle": [[0, 0]]}],
                     [{"cycle": [[0, 0]]}, {"cycle": [[0, 0]]}]]}
    code, err, text = answer(tmp_path, capsys, ("mat", "solve"), {"A": A, "b": column(1)})
    assert (code, json.loads(text)["witness"]["position"]) == (2, 0)
