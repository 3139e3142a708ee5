"""The complex128 array path reproduces the tuple-and-loop reference in
``loop_reference`` bit for bit: same canonical forms, same windows, same
scan results and the same failure indices."""

import random
import struct

import numpy as np
import pytest

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg.coeffseq import EPSeq, _abs, _div, _mul, joint_shape
from hadalg.errors import (CoronaFails, NotDivisible, NotInIdeal,
                           NotInGL, NotInvertible, NumericalError)
from hadalg.weights import FACTORIAL

import loop_reference as ref
from conftest import exact_divisor, gauss_int

W = FACTORIAL


def generic(rng):
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * 10.0 ** rng.randint(-3, 3)


def signed_zero(rng):
    """Small Gaussian integers whose zero parts carry either sign."""
    return _resign(rng, gauss_int(rng, span=1))


def _resign(rng, v):
    return complex(v.real or rng.choice((0.0, -0.0)),
                   v.imag or rng.choice((0.0, -0.0)))


KINDS = [gauss_int, exact_divisor, generic, signed_zero]


def raw_seq(rng, draw):
    """A non-canonical (prefix, cycle): repeated cycles, shadowing prefix
    tails, and zeros re-signed between the copies."""
    cycle = [draw(rng) for _ in range(rng.randint(1, 3))] * rng.randint(1, 3)
    prefix = [draw(rng) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        prefix += cycle[-rng.randint(1, len(cycle)):]
    if rng.random() < 0.5:
        cycle = [_resign(rng, v) for v in cycle]
        prefix = [_resign(rng, v) for v in prefix]
    return tuple(prefix), tuple(cycle)


def pair(rng, draw):
    """The same sequence as an Element and as a reference (prefix, cycle)."""
    p, c = raw_seq(rng, draw)
    return alg.Element(W, EPSeq(p, c)), ref.canonical(p, c)


def bits(x):
    if isinstance(x, alg.Element):
        x = x.u
    if isinstance(x, EPSeq):
        x = (x.prefix, x.cycle)
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, complex):
        return struct.pack("<dd", x.real, x.imag)
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (NotDivisible, NotInIdeal, CoronaFails, NotInvertible) as exc:
        return type(exc).__name__, exc.index, bits(getattr(exc, "value", None))
    except (OverflowError, NumericalError):
        return "overflow"   # the reference lets cmath's OverflowError escape


def cases(count=150):
    rng = random.Random(20260823)
    for draw in KINDS:
        for _ in range(count):
            yield rng, draw


def test_canonical_form():
    for rng, draw in cases(300):
        p, c = raw_seq(rng, draw)
        s = EPSeq(p, c)
        rp, rc = ref.canonical(p, c)
        assert bits(s) == bits((rp, rc))
        assert all(type(v) is complex for v in s.prefix + s.cycle)


def test_joint_values():
    for rng, draw in cases():
        seqs = [raw_seq(rng, draw) for _ in range(rng.randint(1, 4))]
        ss = [EPSeq(p, c) for p, c in seqs]
        pl, cl = joint_shape(*ss)
        got = pl, cl, np.stack([s.take(pl + cl) for s in ss], axis=1).tolist()
        want = ref.joint_values(*(ref.canonical(p, c) for p, c in seqs))
        assert bits(got) == bits(want)


@pytest.mark.parametrize("name", ["add", "sub", "star"])
def test_binary(name):
    for rng, draw in cases():
        (f, rf), (g, rg) = pair(rng, draw), pair(rng, draw)
        assert bits(getattr(alg, name)(f, g)) == bits(getattr(ref, name)(rf, rg))


@pytest.mark.parametrize("name", ["invertible", "exp_el", "log_el", "norm",
                                  "is_idempotent"])
def test_unary(name):
    for rng, draw in cases():
        f, rf = pair(rng, draw)
        assert outcome(getattr(alg, name), f) == outcome(getattr(ref, name), rf)


def test_scalar_mul_and_threshold():
    for rng, draw in cases():
        f, rf = pair(rng, draw)
        c = rng.choice([-1.0, 2, 1j, complex(0.5, -0.25), draw(rng)])
        assert bits(alg.scalar_mul(c, f)) == bits(ref.scalar_mul(c, rf))
        eps = rng.choice([0.5, 1.0, 1.5])
        assert (bits(alg.approx_invertible(f, eps))
                == bits(ref.approx_invertible(rf, eps)))


def test_idempotent_masks():
    rng = random.Random(7)
    for _ in range(200):
        draw = lambda r: _resign(r, complex(r.choice([0, 1, 1 + 1j])))
        f, rf = pair(rng, draw)
        assert alg.is_idempotent(f) == ref.is_idempotent(rf)


def test_divide():
    for rng, draw in cases():
        (f, rf), (g, rg) = pair(rng, draw), pair(rng, draw)
        assert outcome(alg.divide, f, g) == outcome(ref.divide, rf, rg)
        fg = alg.star(f, g)   # always divisible by g
        assert (outcome(alg.divide, fg, g)
                == outcome(ref.divide, ref.star(rf, rg), rg))


def test_gcd_ideal_corona():
    for rng, draw in cases():
        els = [pair(rng, draw) for _ in range(rng.randint(1, 4))]
        fs, rfs = [e for e, _ in els], [r for _, r in els]
        (f, rf) = pair(rng, draw)
        assert bits(alg.gcd(fs)) == bits(ref.gcd(rfs))
        assert outcome(alg.in_ideal, f, fs) == outcome(ref.in_ideal, rf, rfs)
        assert outcome(alg.corona_solve, fs) == outcome(ref.corona_solve, rfs)


def test_complex_helpers_match_python():
    """CPython's complex *, / and abs, over magnitudes that take both
    branches of Smith's division and with signed zeros."""
    rng = random.Random(11)

    def draw():
        kind = rng.random()
        if kind < 0.2:
            return signed_zero(rng)
        if kind < 0.4:
            return exact_divisor(rng)
        return complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 150),
                       rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 150))

    a = [complex(draw()) for _ in range(20000)]
    b = [complex(draw()) for _ in range(20000)]
    b = [v if v else complex(1.0, -0.0) for v in b]
    A, B = np.array(a), np.array(b)

    def same(got, want):
        return np.array_equal(np.asarray(got).view(np.int64),
                              np.array(want).view(np.int64))

    assert same(_mul(A, B), [x * y for x, y in zip(a, b)])
    assert same(_div(A, B), [x / y for x, y in zip(a, b)])
    assert same(_div(1.0, B), [1.0 / y for y in b])
    assert same(_abs(A), [abs(x) for x in a])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mat_det_memo_matches_cofactor(n):
    rng = random.Random(100 + n)
    for draw in KINDS:
        for _ in range(3):
            rows = tuple(tuple(pair(rng, draw)[0] for _ in range(n))
                         for _ in range(n))
            A = ref.matrix(W, rows)
            assert bits(ma.mat_det(A)) == bits(ref.mat_det(rows))


def real_gauss_int(rng):
    """A real Gaussian integer whose imaginary part is a zero of either sign."""
    return complex(rng.randint(-4, 4), rng.choice((0.0, -0.0)))


def overflowing(rng):
    return generic(rng) * 10.0 ** rng.randint(100, 300)


def underflowing(rng):
    return generic(rng) * 10.0 ** -rng.randint(200, 320)


@pytest.mark.parametrize("n", [6, 7])
def test_mat_det_stacked_matches_memo(n, monkeypatch):
    """At n = 6 and 7, where the e n! reference is too slow, mat_det matches
    the memoised star/add expansion over the entries bit for bit.  The draws
    take both of mat_det's paths: the stacked expansion, and the expansion
    over the entries where a part of the stacked value is zero or not
    finite (overflow, underflow, real values, signed zeros)."""
    expand, fallbacks = ma._expand, []

    def counted(rows, *ops):
        if rows.dtype == object:
            fallbacks.append(None)
        return expand(rows, *ops)

    monkeypatch.setattr(ma, "_expand", counted)
    rng = random.Random(600 + n)
    draws = 0
    for draw in KINDS + [real_gauss_int, overflowing, underflowing]:
        for _ in range(4):
            rows = tuple(tuple(pair(rng, draw)[0] for _ in range(n))
                         for _ in range(n))
            A = ref.matrix(W, rows)
            want = ref.memo_cofactor_det(A.entries, alg.star, alg.add,
                                         lambda t: alg.scalar_mul(-1.0, t))
            assert bits(ma.mat_det(A)) == bits(want)
            draws += 1
    assert 0 < len(fallbacks) < draws


@pytest.mark.parametrize("n", range(1, 8))
def test_exactly_singular_matches_exact_det(n):
    """mat_log's exact singularity test, _exact_rank(U) < n, agrees with
    Bareiss's elimination over the Gaussian integers on full-rank matrices
    and on ones with a zero, repeated or scaled row, with entries scaled by
    2^+-40, 2^+-1000 and into the subnormal range."""
    rng = random.Random(1200 + n)
    verdicts = set()
    for scale in (1.0, 2.0 ** 40, 2.0 ** -40, 2.0 ** 1000, 2.0 ** -1000,
                  2.0 ** -1060):
        for draw in (gauss_int, generic):
            for rank in ("full", "zero", "repeated", "scaled"):
                U = np.array([[draw(rng) for _ in range(n)] for _ in range(n)])
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if rank == "zero":
                    U[i] = 0.0
                elif rank == "repeated":
                    U[i] = U[j]
                elif rank == "scaled":
                    U[i] = complex(rng.choice((-3, 1, 2)), rng.choice((0, 1))) * U[j]
                U = U * scale
                singular = ref.exact_det(U) == (0, 0)
                assert (ma._exact_rank(U) < n) == singular, (scale, draw, rank)
                verdicts.add(singular)
    assert verdicts == {False, True}


# binary exponents (row, column) of the rank fuzz's scalings: an entry of
# X Y is an integer below 2^8, so every scaled entry is a double exactly
RANK_SCALES = {
    "unit": ((0, 0), (0, 0)),
    "wide": ((-500, 500), (-500, 500)),
    "high": ((900, 1000), (0, 14)),
    "subnormal": ((-1074, -1050), (0, 28)),
}


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_rank_matches_fraction_elimination(n):
    """_exact_rank agrees with elimination over Fractions at every rank
    0..n: X Y for Gaussian-integer X (n x r) and Y (r x n), whose product
    is exact, times 2^a_i on row i and 2^b_j on column j, with exponents up
    to +-1000 and into the subnormal range; and generic doubles at the same
    scales with one row repeated.  mat_log refuses every rank-deficient
    draw as NotInGL, so the SVD flag misses none of them."""
    rng = random.Random(1300 + n)
    ranks = set()
    for scale, (rows, cols) in RANK_SCALES.items():
        a = np.array([rng.randint(*rows) for _ in range(n)])[:, None]
        b = np.array([rng.randint(*cols) for _ in range(n)])[None, :]
        for r in range(n + 1):
            X = np.array([[gauss_int(rng, span=2) for _ in range(r)] for _ in range(n)])
            Y = np.array([[gauss_int(rng, span=2) for _ in range(n)] for _ in range(r)])
            # |G| < 2^13, so 2^-12 G stays finite at the high scaling
            G = np.array([[generic(rng) for _ in range(n)] for _ in range(n)]) / 2.0 ** 12
            G[rng.randrange(n)] = G[rng.randrange(n)]
            for U in (X.reshape(n, r) @ Y.reshape(r, n), G):
                U = alg._ldexp(U.astype(complex), a + b)
                want = ref.exact_rank(U)
                assert ma._exact_rank(U) == want, (scale, r)
                ranks.add(want)
                if want < n:  # the SVD flags every such position for the exact check
                    with pytest.raises(NotInGL):
                        ma.mat_log(ma.from_ustack(W, 0, U[None]))
    assert ranks == set(range(n + 1))


SPECTRA = [
    [1, 2, 1j, 3j, -1],                        # repeated arguments
    [2j, 1j, 1j, -3, -1, 0.5],
    [2, 3, 0.5],                               # one distinct argument
    [1 + 1j, 2 + 2j],
    [-1, -2, complex(-0.5, -0.0)],
    [complex(-1, -0.0), 1j],                   # on the cut at pi, either sign
    [1, complex(1, -1e-300), 1j],              # argument 2 pi after the mod
    [complex(1, -1e-300)],
    [1, 1j, -1, -1j],                          # gaps tied within 1e-12
    np.exp(2j * np.pi * np.arange(3) / 3),
    np.exp(1j * (2 * np.pi * np.arange(3) / 3 + [0.0, 0.0, 4e-13])),
    np.exp(1j * (2 * np.pi * np.arange(3) / 3 + [0.0, 0.0, -4e-13])),
    np.exp(1j * (2 * np.pi * np.arange(3) / 3 + [0.0, 0.0, 4e-12])),  # no tie
    [3.0],
]


def test_branch_angles_match_scalar_rule():
    """matalg's batched branch angle is the one-spectrum rule of
    loop_reference bit for bit, row by row and in one stack."""
    spectra = [np.asarray(lam, dtype=complex) for lam in SPECTRA]
    nrng = np.random.default_rng(31)
    for n in range(1, 8):
        lam = nrng.standard_normal((40, n)) + 1j * nrng.standard_normal((40, n))
        lam[::4, 0] = lam[::4, -1] * 2.0        # a repeated argument
        spectra += list(lam)
    for lam in spectra:
        assert bits(float(ma._branch_angles(lam[None])[0])) == \
            bits(ref.branch_angle(lam))
    for n in range(1, 8):
        rows = [lam for lam in spectra if len(lam) == n]
        got = ma._branch_angles(np.array(rows))
        assert bits([float(t) for t in got]) == \
            bits([ref.branch_angle(lam) for lam in rows])


def test_matrix_entries_are_its_rows():
    """A matrix keeps only its stack: the entries rebuilt from it are the
    rows it was made of, bit for bit, and so is the determinant taken on
    them (signed zeros included)."""
    rng = random.Random(41)
    for draw in KINDS:
        for _ in range(250):
            n = rng.randint(1, 4)
            rows = tuple(tuple(pair(rng, draw)[0] for _ in range(n))
                         for _ in range(n))
            A = ref.matrix(W, rows)
            assert bits(A.entries) == bits(rows)
            assert bits(ma.mat_det(A)) == bits(ref.mat_det(rows))
