import json
import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

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


NAN, INF, NEG_INF = json.loads("[NaN, Infinity, -Infinity]")
# values a part of a pair can hold, as json.loads gives them
PARTS = {"true": True, "false": False, "2^63": 2 ** 63, "2^64": 2 ** 64,
         "2^1024": 2 ** 1024, "0.0": 0.0, "-0.0": -0.0, "1e308": 1e308, "NaN": NAN,
         "Infinity": INF, "-Infinity": NEG_INF, "str": "x", "None": None,
         "dict": {"re": 1, "im": 2}, "list": [1, 2]}
# cells that are not one pair
CELLS = {"length-0": [], "length-1": [1.0], "length-3": [1.0, 2.0, 3.0],
         "2-char-str": "ab", "2-key-dict": {"re": 1, "im": 2},
         "nested": [[1, 2], [3, 4]], "bare-real": 1.5}


def bits(values):
    return None if values is None else values.view(np.int64).tolist()


class TestPairsArray:
    """The pair conversion returns the bits, or None, of the conversion by
    numpy's type discovery (loop_reference.pairs_array), and no warning
    escapes it.  Ints in [2^64, 2^1024) differ: numpy holds them as
    objects, so the reference returns None and the per-field reader reads
    them; the conversion reads the same values.  So do real numbers that
    JSON does not give (test_other_real_numbers_read_as_floats)."""

    def convert(self, lists):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = ser._pairs_array(lists)
        assert [str(w.message) for w in caught] == []
        return got

    def check(self, lists):
        assert bits(self.convert(lists)) == bits(ref.pairs_array(lists))

    @pytest.mark.parametrize("where", ["re", "im", "both"])
    @pytest.mark.parametrize("part", PARTS.values(), ids=PARTS.keys())
    def test_part(self, part, where):
        pair = {"re": [part, 0.5], "im": [0.5, part], "both": [part, part]}[where]
        lists = [[[1.5, -2.0]], [pair]]
        if part == 2 ** 64:
            assert ref.pairs_array(lists) is None
            want = np.concatenate([ser._values_from_json(v, "x") for v in lists])
            assert bits(self.convert(lists)) == bits(want)
        else:
            self.check(lists)

    @pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
    def test_cell(self, cell):
        self.check([[[1.5, -2.0], cell]])
        assert self.convert([[[1.5, -2.0], cell]]) is None

    @pytest.mark.parametrize("lists", [
        [[[1, 2, 3], [4]]],  # as many values as two pairs
        [[1.5, 2.5]],  # bare reals
        [[]],
        [],
    ], ids=["length-3-beside-length-1", "bare-reals", "empty-list", "no-list"])
    def test_refused(self, lists):
        self.check(lists)
        assert self.convert(lists) is None

    def test_numpy_float64_rows(self):
        lists = [np.array([[1.5, -0.0], [2.0, 3.0]]), [[0.5, 1]]]
        self.check(lists)
        assert self.convert(lists).tolist() == [1.5 - 0j, 2 + 3j, 0.5 + 1j]

    @pytest.mark.parametrize("lists", [
        [np.array([[1 + 1j, 0]])],
        [[np.array([1 + 1j, 0])]],
        [[[np.complex128(1 + 1j), 0.0]]],
    ], ids=["array", "rows", "scalar"])
    def test_numpy_complex_falls_back(self, lists):
        # array.array would read each as its real part, with a ComplexWarning
        self.check(lists)
        assert self.convert(lists) is None

    @pytest.mark.parametrize("part", [Fraction(1, 3), Decimal("0.1")], ids=repr)
    def test_other_real_numbers_read_as_floats(self, part):
        # JSON gives neither; numpy holds them as objects, so the reference
        # returns None, and the per-field reader refuses them
        lists = [[[part, 0.5]]]
        assert ref.pairs_array(lists) is None
        assert self.convert(lists).tolist() == [complex(float(part), 0.5)]

    def test_numpy_complex_document_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="expected a number or"):
                ser.epseq_from_json({"cycle": np.array([[1 + 1j, 0]])})


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
        doc = json.loads(ser.dumps(ser.factors_to_json(W, A.period_start, factors)))
        assert [(d["i"], d["j"]) for d in doc] == [(i, j) for i, j, _ in factors]
        for d, (_, _, vals) in zip(doc, factors):
            assert alg.equal(ser.element_from_json(d["alpha"]), alg.Element(
                W, EPSeq.from_values(vals, A.period_start)))

    def test_alphas_written_as_their_elements(self):
        """Each factor's alpha is written from its values exactly as from
        the Element of EPSeq.from_values, signed zeros included."""
        rng = random.Random(10)
        for draw in KINDS:
            for _ in range(40):
                pl, stack = raw_stack(rng, draw, 1, rng.randint(1, 6))
                factors = [(k % 2, 1 - k % 2, stack[:, 0, k])
                           for k in range(stack.shape[2])]
                want = [{"i": i, "j": j, "alpha": ser.element_to_json(
                    alg.Element(W, EPSeq.from_values(vals, pl)))}
                    for i, j, vals in factors]
                assert ser.dumps(ser.factors_to_json(W, pl, factors)) == ser.dumps(want)

    def test_no_factors(self):
        assert ser.factors_to_json(W, 0, []) == []


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
            pl = rng.randint(0, 3)
            P = pl + rng.randint(1, 40)
            factors = [(k % 2, 1 - k % 2, np.array([special(rng) for _ in range(P)]))
                       for k in range(rng.randint(1, 5))]
            self.check({"factors": ser.factors_to_json(W, pl, factors),
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
