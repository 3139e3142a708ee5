"""Fuzzed input documents: every operation that reads --json ends in a
documented exit (0, 2, 3 or 4), never in an exception.

A drawn document is a well-formed element or matrix document (or the
operation's wrapper around several), and in about half the draws one node of
it is then replaced: by a bad shape or a wrong type, by a non-finite value, a
huge int or deep nesting, or, for a weight, by a name drawn around
superexp:b=...,q=... and custom:...  Cycles have at most 8 cells and matrices
at most 3x3.  Inputs that once escaped are pinned in test_found_documents."""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hadalg.cli import run

# each operation that reads --json, with the other flags it is run with
OPERATIONS = {
    ("elem", op): [] for op in (
        "norm", "invert", "divide", "gcd", "ideal-member", "corona", "exp",
        "log", "idempotent", "approx-invert", "bass-reduce")}
OPERATIONS["elem", "eval"] = ["--z", "3"]
OPERATIONS.update({("mat", op): [] for op in (
    "mul", "det", "solve", "exp", "log", "sl-factor", "norm-bounds")})
OPERATIONS["ideal", "index-order"] = ["--k", "3"]
OPERATIONS["ideal", "annihilator"] = []
OPERATIONS["ideal", "trajectory"] = ["--ks", "0,2,5"]

# text json.dumps cannot write, marked in the document and spliced in after
RAW = re.compile(r'"@(deep|digits):(\d+)@"')


def splice(m) -> str:
    n = int(m[2])
    return "[" * n + "]" * n if m[1] == "deep" else "9" * n


def to_text(doc) -> str:
    return RAW.sub(splice, json.dumps(doc))


# -- well-formed documents ----------------------------------------------------

# one draw a cell: [re, im] pairs and bare reals, signed zeros and a tiny value
cell = st.sampled_from([[1, 0], [0, 0], [-1, 0], [2, 0], [0.5, -1], [0, 1],
                        [-0.0, 0.0], [1e-300, 0], [0.1, 0.7], [-3.25, 2], 1, 0,
                        -2, 0.5, -0.0, 3.5])


def sequence(max_cycle):
    return st.fixed_dictionaries(
        {"cycle": st.lists(cell, min_size=1, max_size=max_cycle)},
        optional={"prefix": st.lists(cell, max_size=max_cycle)})


weight = st.sampled_from(["factorial"] * 5 + ["superexp:b=2,q=2"])
element = st.one_of(
    st.fixed_dictionaries({"weight": weight, "normalized": sequence(8)}),
    st.fixed_dictionaries({"weight": weight, "raw_prefix": st.lists(cell, max_size=8)},
                          optional={"tail": st.just("zero")}))
elements = st.lists(element, min_size=1, max_size=3)
# joint windows stay small: the lcm of cycles up to 4 is at most 12
matrix = st.one_of([
    st.fixed_dictionaries(
        {"weight": weight,
         "entries": st.lists(st.lists(sequence(4), min_size=n, max_size=n),
                             min_size=n, max_size=n)}) for n in (1, 2, 3)])


def unit_triangular(n, seqs):
    return {"weight": "factorial",
            "entries": [[seqs[i * n + j] if j > i else {"cycle": [[float(i == j), 0]]}
                         for j in range(n)] for i in range(n)]}


def rotation():
    return {"weight": "factorial",
            "entries": [[{"cycle": [[0, 0]]}, {"cycle": [[-1, 0]]}],
                        [{"cycle": [[1, 0]]}, {"cycle": [[0, 0]]}]]}


# determinant one, so sl-factor gets past its check: unit triangular
# matrices, and a rotation on which elimination meets a zero pivot
unimodular = st.one_of(
    [st.builds(unit_triangular, st.just(n),
               st.lists(sequence(4), min_size=n * n, max_size=n * n))
     for n in (1, 2, 3)] + [st.builds(rotation)])


def document(group, op):
    if group == "mat":
        if op in ("mul", "solve"):
            return st.fixed_dictionaries({"A": matrix, "b" if op == "solve" else "B":
                                          matrix})
        return st.one_of(matrix, unimodular) if op == "sl-factor" else matrix
    if op == "divide":
        return st.fixed_dictionaries({"f": element, "g": element})
    if op == "ideal-member":
        return st.fixed_dictionaries({"f": element, "generators": elements})
    if op in ("gcd", "corona"):
        return st.fixed_dictionaries({"elements": elements})
    if op == "bass-reduce":
        return st.fixed_dictionaries({k: element for k in ("f1", "f2", "g1", "g2")})
    return element


# -- replacements -------------------------------------------------------------

junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.lists(st.none(), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), min_size=1, max_size=2),
    st.integers(min_value=2, max_value=3000).map("@deep:{}@".format))
bad_number = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 10 ** 400, -(10 ** 400),
                     2 ** 63, True]),
    st.integers(min_value=300, max_value=5000).map("@digits:{}@".format))
bad_weight = st.one_of(
    st.sampled_from(["custom:", "custom:x", "superexp", "", "Factorial"]),
    st.builds("superexp:b={},q={}".format,
              st.sampled_from(["2", "1", "1.5", ".", "1.2.3", "0", "2.", ".5",
                               "1.000000000000001", "9" * 400]),
              st.sampled_from(["2", "1", "0", "61", "62", "64", "65",
                               "99999999999999999999", "9" * 5000])))


def nodes(parent, key, value):
    """Every (container, key, value) at and below parent[key]."""
    yield parent, key, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in list(items):
        yield from nodes(value, k, v)


@st.composite
def corrupted(draw, valid):
    holder = [copy.deepcopy(draw(valid))]  # drawn cells are shared objects
    if draw(st.booleans()):
        parent, key, value = draw(st.sampled_from(list(nodes(holder, 0, holder[0]))))
        kind = ("weight" if key == "weight"
                else "number" if isinstance(value, (int, float)) else "node")
        parent[key] = draw(REPLACEMENTS[kind])
    return holder[0]


REPLACEMENTS = {"weight": st.one_of(bad_weight, junk),
                "number": st.one_of(bad_number, junk), "node": junk}
DOCUMENTS = {key: corrupted(document(*key)) for key in OPERATIONS}


def run_doc(tmp_path, group, op, text):
    p = tmp_path / "doc.json"
    p.write_text(text)
    argv = [group, op, "--json", str(p), *OPERATIONS[group, op]]
    return run(argv + ["--out", str(tmp_path / "out.json")])


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_fuzz_documents_end_in_a_documented_exit(data, tmp_path):
    group, op = data.draw(st.sampled_from(sorted(OPERATIONS)), label="operation")
    doc = data.draw(DOCUMENTS[group, op], label="document")
    assert run_doc(tmp_path, group, op, to_text(doc)) in (0, 2, 3, 4)


ONE = {"weight": "factorial", "normalized": {"cycle": [[1, 0]]}}


def constant_matrix(rows):
    return {"weight": "factorial",
            "entries": [[{"cycle": [[v, 0]]} for v in row] for row in rows]}


def wide_exponent_matrix(seed, n=7):
    """Entries (uniform(-1, 1) + i uniform(-1, 1)) 10^e, e drawn from
    100..300 per entry: unscaled, logm's own error estimate overflows on it
    (seed 1) or its inverse scaling and squaring runs for minutes (seed 5)."""
    rng = np.random.default_rng(seed)
    U = ((rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
         * 10.0 ** rng.integers(100, 301, (n, n)))
    return {"weight": "factorial",
            "entries": [[{"cycle": [[v.real, v.imag]]} for v in row] for row in U]}


# documents that once ended in an exception or printed more than the
# one-line summary, with their exits and (where pinned) their stderr
@pytest.mark.parametrize("group, op, text, code, err", [
    ("elem", "gcd", json.dumps({"elements": []}), 3, None),
    ("elem", "corona", json.dumps({"elements": []}), 3, None),
    ("elem", "ideal-member", json.dumps({"f": ONE, "generators": []}), 3, None),
    ("elem", "corona", json.dumps({"elements": None}), 3, None),
    ("elem", "norm", to_text({"weight": "factorial",
                              "normalized": {"cycle": ["@digits:5000@"]}}), 3, None),
    ("mat", "log", json.dumps(constant_matrix([[2, 2], [2, 2]])), 2, None),
    # a Jordan-like position sends _eig_logs to scipy's logm, which warns
    ("mat", "log", json.dumps(constant_matrix([[1e-300, 1e-300], [1, 1e-300]])), 4,
     "numerical failure: logarithm round-trip error 4.576e+155 at position 0\n"),
    ("mat", "log", json.dumps(wide_exponent_matrix(1)), 4,
     "numerical failure: logarithm round-trip error 9.113e+301 at position 0\n"),
    ("mat", "log", json.dumps(wide_exponent_matrix(5)), 4, None),
], ids=["gcd-no-elements", "corona-no-elements", "ideal-member-no-generators",
        "corona-elements-null", "int-of-5000-digits", "log-singular-2x2",
        "log-nearly-singular-logm", "log-logm-overflows",
        "log-logm-slow"])
def test_found_documents(group, op, text, code, err, tmp_path, capsys):
    # outside pytest a warning prints to stderr, so none may be raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_doc(tmp_path, group, op, text) == code
    assert [str(w.message) for w in caught] == []
    if err is not None:
        assert capsys.readouterr().err == err
