import json
import math
import random

import pytest

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg import serialize as ser
from hadalg.coeffseq import EPSeq
from hadalg.errors import DimensionMismatch, SchemaError
from hadalg.weights import FACTORIAL

from conftest import exact_divisor, gauss_int, mat_identity, rand_element
from test_bitwise import KINDS
from test_matstack import raw_stack

W = FACTORIAL


class TestEPSeq:
    def test_round_trip(self, rng):
        for _ in range(30):
            f = rand_element(rng, exact_divisor)
            doc = json.loads(json.dumps(ser.epseq_to_json(f.u)))
            assert ser.epseq_from_json(doc) == f.u

    def test_bare_reals_accepted(self):
        s = ser.epseq_from_json({"prefix": [2], "cycle": [[1, 0]]})
        assert s == EPSeq((2.0,), (1.0,))

    def test_missing_cycle_rejected(self):
        with pytest.raises(SchemaError):
            ser.epseq_from_json({"prefix": []})
        with pytest.raises(SchemaError):
            ser.epseq_from_json({"prefix": [], "cycle": []})


class TestElement:
    def test_round_trip_bit_faithful(self, rng):
        for _ in range(30):
            f = rand_element(rng, lambda r: complex(r.random(), r.random()))
            doc = json.loads(json.dumps(ser.element_to_json(f)))
            g = ser.element_from_json(doc)
            assert alg.equal(f, g)

    def test_raw_form(self):
        f = ser.element_from_json({"weight": "factorial",
                                   "raw_prefix": [1, 1, 1], "tail": "zero"})
        assert f.u.value(2) == 2.0 and f.u.value(3) == 0.0


class TestMatrix:
    def test_round_trip(self, rng):
        import numpy as np
        nr = np.random.default_rng(3)
        stack = nr.standard_normal((3, 2, 2)) + 1j * nr.standard_normal((3, 2, 2))
        A = ma.from_ustack(W, 1, stack)
        doc = json.loads(json.dumps(ser.matrix_to_json(A)))
        B = ser.matrix_from_json(doc)
        assert A.entries == B.entries

    def test_bad_cell_reported_before_ragged_row(self):
        cell = {"cycle": [[1, 0]]}
        doc = {"weight": "factorial",
               "entries": [[cell, cell], [{"cycle": [[1, 0], [math.inf, 0]]}]]}
        with pytest.raises(SchemaError, match=r"entries\[1\]\[0\]\.cycle\[1\] is not"):
            ser.matrix_from_json(doc)
        doc["entries"][1] = [cell]
        with pytest.raises(DimensionMismatch, match="ragged"):
            ser.matrix_from_json(doc)

    def test_columns_written_as_their_elements(self):
        """Each entry is written from its column of the stack exactly as
        from its Element, signed zeros included."""
        rng = random.Random(9)
        for draw in KINDS:
            for _ in range(40):
                pl, stack = raw_stack(rng, draw, rng.randint(1, 3), rng.randint(1, 3))
                A = ma.from_ustack(W, pl, stack)
                want = [[ser.epseq_to_json(e.u) for e in r] for r in A.entries]
                doc = ser.matrix_to_json(A)
                assert json.dumps(doc["entries"]) == json.dumps(want)
                assert ser.matrix_from_json(doc) == A

    def test_declared_shape_checked(self):
        doc = ser.matrix_to_json(mat_identity(W, 2))
        doc["rows"] = 3
        with pytest.raises(SchemaError):
            ser.matrix_from_json(doc)


class TestFactors:
    def test_round_trip(self):
        A = ma.MatElement(W, ((alg.Element(W, EPSeq((), (2.0,))), alg.zero(W)),
                              (alg.zero(W), alg.Element(W, EPSeq((), (0.5,))))))
        factors, _ = ma.sl_factor(A)
        doc = json.loads(json.dumps(ser.factors_to_json(factors)))
        assert [(d["i"], d["j"]) for d in doc] == [(f.i, f.j) for f in factors]
        for d, f in zip(doc, factors):
            assert alg.equal(ser.element_from_json(d["alpha"]), f.alpha)
