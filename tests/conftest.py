"""Shared generators for the test suite.

Random elements come in three flavors chosen for what they make exact in
double precision: Gaussian-integer values (ring axioms hold bitwise),
"exact divisor" values s * 2^e with |s|^2 a power of two (complex division
by them is exact), and generic floats for the approximate procedures.
"""

import random

import numpy as np
import pytest

from hadalg.algebra import Element
from hadalg.coeffseq import EPSeq
from hadalg.matalg import from_ustack
from hadalg.weights import FACTORIAL

GAUSS_UNITS = [1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]


def gauss_int(rng, span=4):
    return complex(rng.randint(-span, span), rng.randint(-span, span))


def exact_divisor(rng):
    """Nonzero s * 2^e with |s|^2 a power of two: division by it is exact."""
    return rng.choice(GAUSS_UNITS) * 2.0 ** rng.randint(-3, 3)


def rand_epseq(rng, draw, max_prefix=3, max_cycle=4):
    pl = rng.randint(0, max_prefix)
    cl = rng.randint(1, max_cycle)
    return EPSeq(tuple(draw(rng) for _ in range(pl)),
                 tuple(draw(rng) for _ in range(cl)))


def rand_element(rng, draw=gauss_int, **kw):
    return Element(FACTORIAL, rand_epseq(rng, draw, **kw))


def mat_identity(w, n):
    return from_ustack(w, 0, np.eye(n, dtype=complex)[None])


@pytest.fixture
def rng():
    return random.Random(20260823)
