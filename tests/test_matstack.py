"""MatElement keeps one canonical stack of U(k): it agrees with its entries,
round-trips through from_ustack, and mat_mul on the stack reproduces the
position-by-position loop bit for bit and the star/add path under ==.
sl_factor's column sweeps reproduce the flat order-list elimination bit for
bit."""

import functools
import math
import random

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg.coeffseq import MAX_WINDOW, EPSeq, _canonical_form, joint_shape
from hadalg.errors import (DimensionMismatch, NumericalError, WeightMismatch,
                           WindowTooLarge)
from hadalg.weights import FACTORIAL

import loop_reference as ref
from test_bitwise import KINDS, _resign, bits, pair

W = FACTORIAL

shapes = st.integers(min_value=1, max_value=3)
draws = settings(max_examples=150, deadline=None)


def raw_stack(rng, draw, m, n):
    """A non-canonical (prefix length, stack): repeated cycles, a prefix
    tail shadowing the cycle, and zeros re-signed between the copies."""
    def mat():
        return [[draw(rng) for _ in range(n)] for _ in range(m)]

    cycle = [mat() for _ in range(rng.randint(1, 3))] * rng.randint(1, 3)
    prefix = [mat() for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        prefix += cycle[-rng.randint(1, len(cycle)):]
    values = prefix + cycle
    if rng.random() < 0.5:
        values = [[[_resign(rng, v) for v in row] for row in U] for U in values]
    return len(prefix), np.array(values, dtype=complex)


def check_views(A):
    assert ma.from_ustack(W, A.period_start, A.ustack()[2]) == A
    assert ref.matrix(W, A.entries) == A
    assert A.shape_window() == joint_shape(*(e.u for r in A.entries for e in r))


@draws
@given(st.randoms(use_true_random=False), st.sampled_from(KINDS), shapes, shapes)
def test_stack_from_entries(rng, draw, m, n):
    rows = tuple(tuple(pair(rng, draw)[0] for _ in range(n)) for _ in range(m))
    A = ref.matrix(W, rows)
    assert A.entries == rows
    check_views(A)
    for k in range(len(A.array) + 3):
        assert np.array_equal(A.U(k), [[e.u.value(k) for e in r] for r in rows])


@draws
@given(st.randoms(use_true_random=False), st.sampled_from(KINDS), shapes, shapes)
def test_stack_from_ustack(rng, draw, m, n):
    pl, stack = raw_stack(rng, draw, m, n)
    A = ma.from_ustack(W, pl, stack)
    check_views(A)
    for i in range(m):
        for j in range(n):
            assert A.entries[i][j].u == EPSeq.from_values(stack[:, i, j], pl)
    c = len(stack) - pl
    for k in range(len(stack) + c):
        want = stack[k if k < len(stack) else k - c]
        assert np.array_equal(A.U(k), want)


def star_add_product(A, B):
    """Entries of A B by star/add over the algebra, from the k = 0 term."""
    def entry(i, j):
        return functools.reduce(alg.add, (alg.star(A.entries[i][k], B.entries[k][j])
                                          for k in range(A.n)))

    return ref.matrix(W, [[entry(i, j) for j in range(B.n)] for i in range(A.m)])


@pytest.mark.parametrize("draw", KINDS)
def test_mat_mul_matches_loop_reference(draw):
    rng = random.Random(7)
    for _ in range(25):
        m, n, p = (rng.randint(1, 3) for _ in range(3))
        a = [[pair(rng, draw) for _ in range(n)] for _ in range(m)]
        b = [[pair(rng, draw) for _ in range(p)] for _ in range(n)]
        A = ref.matrix(W, [[e for e, _ in r] for r in a])
        B = ref.matrix(W, [[e for e, _ in r] for r in b])
        C = ma.mat_mul(A, B)
        prefix, cycle = ref.mat_mul([[s for _, s in r] for r in a],
                                    [[s for _, s in r] for r in b])
        L = C.period_start
        assert bits(C.array[:L].tolist()) == bits(prefix)
        assert bits(C.array[L:].tolist()) == bits(cycle)
        assert C == star_add_product(A, B)


def test_constructor_checks_in_order():
    """Shape, then weight; a matrix of canonical cells stacks as the matrix
    of their Elements does."""
    from hadalg.weights import superexp

    other, one = alg.unit(superexp(2.0, 2)), alg.unit(W)
    with pytest.raises(DimensionMismatch, match="nonempty"):
        ref.matrix(W, ((),))
    with pytest.raises(DimensionMismatch, match="ragged"):
        ref.matrix(W, ((one, other), (one,)))
    with pytest.raises(WeightMismatch):
        ref.matrix(W, ((one, other),))
    rng = random.Random(3)
    for draw in KINDS:
        rows = [[pair(rng, draw)[0] for _ in range(3)] for _ in range(2)]
        cells = [[_canonical_form(e.u.array[:e.u.period_start],
                                  e.u.array[e.u.period_start:])
                  for e in r] for r in rows]
        assert bits(ref.matrix(W, cells).array.tolist()) == \
            bits(ref.matrix(W, rows).array.tolist())


def test_window_budget():
    a = alg.Element(W, EPSeq((), np.arange(1.0, 10008.0)))
    b = alg.Element(W, EPSeq((), np.arange(1.0, 10010.0)))
    assert 10007 * 10009 > MAX_WINDOW
    with pytest.raises(WindowTooLarge):
        alg.star(a, b)
    A, B = ref.matrix(W, ((a,),)), ref.matrix(W, ((b,),))
    with pytest.raises(WindowTooLarge):
        ma.mat_mul(A, B)
    with pytest.raises(WindowTooLarge):
        ref.matrix(W, ((a, b),))


def test_matrix_window_budget_counts_entries():
    # a 7 x 1 column on 10,007 positions times a 1 x 7 row on 101: their
    # joint 1,010,707 positions fit MAX_WINDOW, their 7 x 7 product does not
    col = np.arange(1.0, 10008.0)[:, None, None] * np.ones((1, 7, 1))
    row = np.arange(1.0, 102.0)[:, None, None] * np.ones((1, 1, 7))
    A, B = ma.from_ustack(W, 0, col), ma.from_ustack(W, 0, row)
    assert 10007 * 101 <= MAX_WINDOW < 10007 * 101 * 49
    with pytest.raises(WindowTooLarge, match="of 49 entries"):
        ma.mat_mul(A, B)
    # 20 x 1 A x = b on 6,002 positions: the SVD's 20 x 20 factors count
    A = ma.from_ustack(W, 0, np.arange(1.0, 3002.0)[:, None, None] * np.ones((1, 20, 1)))
    b = ma.from_ustack(W, 0, np.array([1.0, 2.0])[:, None, None] * np.ones((1, 20, 1)))
    assert 6002 * 20 <= MAX_WINDOW < 6002 * 400
    with pytest.raises(WindowTooLarge, match="of 400 entries"):
        ma.mat_solve(A, b)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def exp_traceless(rng, P, n):
    X = gaussian(rng, P, n, n)
    X -= (np.trace(X, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return scipy.linalg.expm(X)


def quarter_turn(rng, P, n):
    """exp_traceless with one position the cyclic shift times unit phases
    of product (-1)^(n-1): every pivot there is 0, so every column boosts."""
    stack = exp_traceless(rng, P, n)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    phases[-1] = (-1) ** (n - 1) / np.prod(phases[:-1])
    stack[rng.integers(P)] = np.roll(np.eye(n), 1, axis=0) * phases
    return stack


def signed_permutation(rng, P, n):
    """A permutation matrix with signed ones, its zeros -0.0 in a random
    part at each cell."""
    stack = np.empty((P, n, n), dtype=complex)
    for k in range(P):
        stack.real[k], stack.imag[k] = np.where(rng.integers(0, 2, (2, n, n)), -0.0, 0.0)
        stack[k, range(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    return stack


def zero_column(rng, P, n):
    stack = gaussian(rng, P, n, n)
    stack[rng.integers(P), :, rng.integers(n)] = 0.0
    return stack


SL_DRAWS = {
    "exp-traceless": exp_traceless,
    "quarter-turn": quarter_turn,
    "real": lambda rng, P, n: rng.standard_normal((P, n, n)).astype(complex),
    "signed-permutation": signed_permutation,
    "upper-triangular": lambda rng, P, n: np.triu(gaussian(rng, P, n, n)),
    "zero-column": zero_column,
    "times-1e3": lambda rng, P, n: 1e3 * gaussian(rng, P, n, n),
}


def factoring(factor, alpha):
    """What a factorization answers, bit for bit: each factor's i, j and
    alpha (window and value bits, of the EPSeq that alpha makes of the
    factor's third field) and the verified error, or the NumericalError's
    message and position."""
    try:
        factors, err = factor()
    except NumericalError as exc:
        return str(exc), getattr(exc, "position", None)
    return ([(i, j, alpha(a).period_start, alpha(a).array.tobytes())
             for i, j, a in factors], np.float64(err).tobytes())


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", SL_DRAWS)
def test_sl_factor_matches_order_list_reference(kind, n):
    """With tol = inf neither the determinant check nor the product check
    refuses, so every draw runs the whole elimination."""
    rng = np.random.default_rng([n, list(SL_DRAWS).index(kind)])
    for _ in range(6):
        pl, cl = int(rng.integers(0, 3)), int(rng.integers(1, 5))
        A = ma.from_ustack(W, pl, SL_DRAWS[kind](rng, pl + cl, n))
        pl, _, stack = A.ustack()
        assert factoring(lambda: ma.sl_factor(A, tol=math.inf),
                         lambda vals: EPSeq.from_values(vals, pl)) == \
            factoring(lambda: ref.sl_factor(stack, pl, W, math.inf),
                      lambda alpha: alpha.u)
