"""The witness of each math failure: its named fields, in raise order, with
complex values written as [re, im] pairs."""

import json

import numpy as np
import pytest

from hadalg import errors as E

Y = [np.complex128(complex(1.5, -0.0)), np.complex128(-0.25 + 2j)]

# (error, witness, attributes) as the CLI has always written and read them
CASES = [
    (E.NotInvertible(3, 0.5 - 2j),
     {"index": 3, "value": [0.5, -2.0]}, {"index": 3, "value": 0.5 - 2j}),
    (E.NotDivisible(7), {"index": 7}, {"index": 7}),
    (E.NotInIdeal(0), {"index": 0}, {"index": 0}),
    (E.CoronaFails(12), {"index": 12}, {"index": 12}),
    (E.Inconsistent(2, Y),
     {"position": 2, "y": [[1.5, -0.0], [-0.25, 2.0]]}, {"position": 2, "y": Y}),
    (E.NotInGL(4), {"position": 4}, {"position": 4}),
    (E.NotSL(1, complex(np.complex128(2 + 1e-3j))),
     {"position": 1, "det": [2.0, 0.001]}, {"position": 1, "det": 2 + 1e-3j}),
]


@pytest.mark.parametrize("exc, witness, attrs", CASES,
                         ids=[type(c[0]).__name__ for c in CASES])
def test_witness_is_the_named_fields(exc, witness, attrs):
    got = exc.witness()
    assert got == witness
    # the key order and the float spellings (signed zeros) of the document
    assert json.dumps(got) == json.dumps(witness)
    for name, value in attrs.items():
        assert getattr(exc, name) == value
