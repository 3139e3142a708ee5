import json
import math
import random

import numpy as np
import pytest

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg import serialize as ser
from hadalg.coeffseq import Canonical, EPSeq
from hadalg.errors import DimensionMismatch, SchemaError
from hadalg.weights import FACTORIAL

import loop_reference as ref
from conftest import exact_divisor, gauss_int, mat_identity, rand_element
from test_bitwise import KINDS
from test_matstack import raw_stack

W = FACTORIAL


class TestEPSeq:
    def test_round_trip(self, rng):
        for _ in range(30):
            f = rand_element(rng, exact_divisor)
            doc = json.loads(ser.dumps(ser.epseq_to_json(f.u)))
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
            doc = json.loads(ser.dumps(ser.element_to_json(f)))
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
        doc = json.loads(ser.dumps(ser.matrix_to_json(A)))
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
                assert ser.dumps(doc["entries"]) == ser.dumps(want)
                assert ser.matrix_from_json(doc) == A

    def test_declared_shape_checked(self):
        doc = ser.matrix_to_json(mat_identity(W, 2))
        doc["rows"] = 3
        with pytest.raises(SchemaError):
            ser.matrix_from_json(doc)


class TestFactors:
    def test_round_trip(self):
        A = ref.matrix(W, ((alg.Element(W, EPSeq((), (2.0,))), alg.zero(W)),
                              (alg.zero(W), alg.Element(W, EPSeq((), (0.5,))))))
        factors, _ = ma.sl_factor(A)
        doc = json.loads(ser.dumps(ser.factors_to_json(factors)))
        assert [(d["i"], d["j"]) for d in doc] == [(f.i, f.j) for f in factors]
        for d, f in zip(doc, factors):
            assert alg.equal(ser.element_from_json(d["alpha"]), f.alpha)


# values whose shortest reprs are easy to confuse, or to merge by value
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-05, 0.0001,
           0.1, 1.0, -2.5, 1.7976931348623157e308, 2.2250738585072014e-308]


def special(rng):
    """A complex value from a small pool, so values repeat heavily."""
    def part():
        return rng.choice(SPECIAL) if rng.random() < 0.8 else rng.uniform(-9, 9)
    return complex(part(), part())


def as_lists(doc):
    """doc with every array as the list json writes it from."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_lists(v) for v in doc]
    return doc


def rand_values(rng, pl=None, max_len=40):
    pl = rng.randint(0, 3) if pl is None else pl
    return EPSeq.from_values([special(rng) for _ in range(pl + rng.randint(1, max_len))], pl)


class TestDumps:
    """serialize.dumps writes exactly json.dumps(doc, indent=2) of the
    document with lists in place of its arrays."""

    def check(self, doc):
        assert ser.dumps(doc) == json.dumps(as_lists(doc), indent=2)

    def test_values_are_views_of_the_canonical_array(self, rng):
        f = alg.Element(W, rand_values(rng, pl=2))
        doc = ser.element_to_json(f)["normalized"]
        for rows in doc.values():
            assert rows.dtype == np.float64 and rows.shape[1:] == (2,)
            assert not rows.flags.writeable and np.shares_memory(rows, f.u.array)

    def test_elements(self, rng):
        for _ in range(60):
            self.check(ser.element_to_json(alg.Element(W, rand_values(rng))))

    def test_empty_prefix(self, rng):
        doc = ser.element_to_json(alg.Element(W, rand_values(rng, pl=0)))
        assert doc["normalized"]["prefix"].shape == (0, 2)
        self.check(doc)

    def test_list_of_elements(self, rng):
        for _ in range(20):
            self.check({"delta": rng.random(), "solution": [
                ser.element_to_json(alg.Element(W, rand_values(rng)))
                for _ in range(rng.randint(1, 4))]})

    def test_matrices(self):
        rng = random.Random(5)
        for _ in range(30):
            pl, stack = raw_stack(rng, special, rng.randint(1, 3), rng.randint(1, 3))
            self.check({"product": ser.matrix_to_json(ma.from_ustack(W, pl, stack))})

    def test_factors(self, rng):
        for _ in range(20):
            factors = [ma.ElementaryFactor(k % 2, 1 - k % 2,
                                           alg.Element(W, rand_values(rng)))
                       for k in range(rng.randint(1, 5))]
            self.check({"factors": ser.factors_to_json(factors),
                        "verification": {"max_error": 0.0, "tol": 1e-10}})

    def test_signed_zeros_kept_apart(self):
        # canonical form compares by ==, so zeros of both signs come from
        # a Canonical built directly
        values = np.array([0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0, -0.0])
        doc = ser.epseq_to_json(Canonical(values.view(np.complex128), 2))
        assert ser.dumps(doc).count("-0.0") == 4
        self.check(doc)

    def test_heavily_repeated(self):
        cycle = np.array([1e16, 9999999999999998.0, 1e-05, 0.0001] * 500)
        self.check({"cycle": ser._values_to_json(cycle.view(np.complex128))})

    def test_non_finite(self):
        values = np.array([math.nan, -math.inf, math.inf, 1.0, -math.nan, 0.0])
        rows = ser.epseq_to_json(Canonical(values.view(np.complex128), 1))
        self.check({"x": rows, "witness": {"value": [math.nan, -0.0]},
                    "pairs": [[math.inf, 0.5], [0.5, math.inf]]})


class TestFormatter:
    """_texts writes each value as float.__repr__ does (json's text for the
    non-finite ones), whether orjson or repr formats it."""

    EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-4,
             float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)),
             2.0 ** 53 - 2, 2.0 ** 53 + 2, 1.7976931348623157e308,
             math.nan, math.inf, -math.inf]

    @staticmethod
    def check(values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        want = [ser._NONFINITE.get(repr(x), repr(x)) for x in values.tolist()]
        assert ser._texts(values) == want

    def test_every_binade(self):
        # 40 draws in each binade from the subnormals' to the largest, of
        # either sign
        nrng = np.random.default_rng(1)
        e = np.repeat(np.arange(-1074, 1024), 40)
        self.check(np.ldexp(nrng.uniform(1, 2, e.size), e)
                   * nrng.choice([-1.0, 1.0], e.size))

    def test_integers_and_short_decimals(self):
        nrng = np.random.default_rng(2)
        e = nrng.integers(0, 64, 20_000)
        integers = np.floor(np.ldexp(nrng.uniform(1, 2, e.size), e))
        decimals = np.round(nrng.uniform(-1, 1, 20_000)
                            * 10.0 ** nrng.integers(-3, 18, 20_000), 3)
        self.check(np.concatenate([integers, -integers, decimals]))

    def test_band_edges(self):
        self.check(self.EDGES + [-x for x in self.EDGES])

    def test_mixed_notations_across_a_chunk_edge(self):
        # a block of two chunks, the last 3 rows of "a" and the 5 of "b",
        # drawn from in-band and exponent-notation values alike
        C = ser._CHUNK_ROWS
        pool = np.array(self.EDGES + SPECIAL + [0.5, -3.25, 1e-5, 123456.789])
        nrng = np.random.default_rng(3)
        doc = {"a": pool[nrng.integers(0, pool.size, (C + 3, 2))],
               "b": [pool[nrng.integers(0, pool.size, (5, 2))]]}
        assert ser.dumps(doc) == json.dumps(as_lists(doc), indent=2)
