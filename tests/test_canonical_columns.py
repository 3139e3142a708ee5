"""The column-wise canonical form keeps the representatives of the form that
canonicalised one sequence at a time (``loop_reference.canonical_array``).

Seeded matrix documents: m, n in 1..5 and 7 x 7; each cell has its own raw
prefix (0-4 values) and a raw cycle that repeats a base cycle 1-3 times with
the signs of its zero parts flipped at random, so ``==`` merges 0.0 and
-0.0 while the bits differ.  The last 0..L prefix values shadow the cycle
values they stand before, again with flipped zero signs.  Some parts are
written as ints and some cells as bare reals (the per-list reader).  The
reader must give the reference's stack bits and prefix length, the writer
the reference's bytes, and each cell's EPSeq the reference's form.  A
document the one-call conversion refuses still names its first bad field.
"""

import json
import math
import random

import numpy as np
import pytest

from hadalg import serialize
from hadalg.coeffseq import EPSeq, _canonical
from hadalg.errors import SchemaError

import loop_reference as ref

PARTS = [0.0, 0.0, 1.0, -1.0, 0.5, 3.0]


def flip_zeros(rng, v):
    re = rng.choice([0.0, -0.0]) if v.real == 0 else v.real
    im = rng.choice([0.0, -0.0]) if v.imag == 0 else v.imag
    return complex(re, im)


def draw_cell(rng):
    """Raw (prefix, cycle) of one cell, as complex lists."""
    base = [complex(rng.choice(PARTS), rng.choice(PARTS))
            for _ in range(rng.randint(1, 4))]
    cycle = [flip_zeros(rng, v) for v in base * rng.randint(1, 3)]
    L = rng.randint(0, 4)
    prefix = [complex(rng.choice(PARTS), rng.choice(PARTS)) for _ in range(L)]
    for i in range(rng.randint(0, L)):
        prefix[L - 1 - i] = flip_zeros(rng, cycle[(-1 - i) % len(cycle)])
    return prefix, cycle


def to_json(rng, values, bare):
    def part(x):
        return int(x) if x == int(x) and rng.random() < 0.2 else x
    if bare:
        return [part(v.real) for v in values]
    return [[part(v.real), part(v.imag)] for v in values]


def draw_doc(rng):
    m, n = (7, 7) if rng.random() < 0.1 else (rng.randint(1, 5), rng.randint(1, 5))
    entries = []
    for _ in range(m):
        out = []
        for prefix, cycle in (draw_cell(rng) for _ in range(n)):
            bare = rng.random() < 0.1
            if bare:  # a bare real reads with imaginary part +0.0
                prefix = [complex(v.real) for v in prefix]
                cycle = [complex(v.real) for v in cycle]
            out.append({"prefix": to_json(rng, prefix, bare),
                        "cycle": to_json(rng, cycle, bare)})
        entries.append(out)
    return {"weight": "factorial", "entries": entries}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


@pytest.mark.parametrize("seed", range(8))
def test_matrix_documents_match_the_per_cell_form(seed):
    rng = random.Random(seed)
    for _ in range(50):
        doc = draw_doc(rng)
        A = serialize.matrix_from_json(json.loads(json.dumps(doc)))
        stack, pl = ref.matrix_from_json(doc)
        assert A.period_start == pl
        assert A.array.shape == stack.shape and bits(A.array) == bits(stack)
        text = serialize.dumps(serialize.matrix_to_json(A))
        assert text == json.dumps(ref.matrix_to_json("factorial", stack, pl), indent=2)


@pytest.mark.parametrize("seed", range(4))
def test_sequences_match_the_one_sequence_form(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        prefix, cycle = (np.array(v, dtype=np.complex128) for v in draw_cell(rng))
        s = EPSeq(prefix, cycle)
        rep, L = ref.canonical_array(prefix, cycle)
        assert s.period_start == L and bits(s.array) == bits(rep)


def test_columns_of_one_call_are_independent():
    """Columns canonicalised together get the (d, t) each gets alone."""
    rng = random.Random(7)
    for _ in range(100):
        L, c = rng.randint(0, 4), rng.choice([1, 2, 4, 6, 12])
        cols = []
        for _ in range(rng.randint(1, 6)):
            base = [complex(rng.choice(PARTS)) for _ in range(rng.choice(
                [k for k in (1, 2, 3, 4, 6, 12) if c % k == 0]))]
            cycle = [flip_zeros(rng, v) for v in base * (c // len(base))]
            prefix = [flip_zeros(rng, cycle[(k - L) % c]) if rng.random() < 0.7
                      else complex(rng.choice(PARTS)) for k in range(L)]
            cols.append(prefix + cycle)
        raw = np.array(cols, dtype=np.complex128).T
        d, t = _canonical(raw[:L], raw[L:])
        for j in range(raw.shape[1]):
            (dj,), (tj,) = _canonical(raw[:L, j, None], raw[L:, j, None])
            rep, Lj = ref.canonical_array(raw[:L, j], raw[L:, j])
            assert (d[j], t[j]) == (dj, tj) == (len(rep) - Lj, L - Lj)


OK = {"cycle": [[1, 0]]}


@pytest.mark.parametrize("entries, error", [
    ([[{"prefix": [[math.nan, 0]], "cycle": [[1, 0]]}, {"prefix": []}]],
     "entries[0][0].prefix[0] is not finite"),
    ([[{"prefix": "", "cycle": [[1, 0]]}, {"prefix": [[math.inf, 0]], "cycle": [[1, 0]]}]],
     "entries[0][0].prefix must be a list of [re, im] pairs"),
    ([[OK, {"prefix": {}, "cycle": [[1, 0]]}]],
     "entries[0][1].prefix must be a list of [re, im] pairs"),
    ([[{"cycle": []}, {"cycle": [[1, math.nan]]}]], "cycle must be nonempty"),
    ([[OK, {"cycle": [[1, 0], 2.0, [3, None]]}]],
     "expected a number or [re, im] pair, got [3, None]"),
    ([[OK], [{"prefix": [[10 ** 400, 0]], "cycle": [[1, 0]]}]],
     "entries[1][0].prefix: int too large to convert to float"),
    ([[OK, OK], [[1, 2]]], "sequence document needs a 'cycle' field"),
    ([[OK], []], "ragged rows"),
])
def test_first_bad_cell_names_itself(entries, error):
    """A document the one-call conversion refuses is read cell by cell: the
    first bad field in document order raises, before the shape is checked."""
    with pytest.raises(SchemaError) as info:
        serialize.matrix_from_json({"weight": "factorial", "entries": entries})
    assert str(info.value) == error
