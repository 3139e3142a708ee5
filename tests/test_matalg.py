import hashlib
import math
import random

import numpy as np
import pytest
import scipy.linalg

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg import serialize
from hadalg.cli import run
from hadalg.coeffseq import EPSeq
from hadalg.errors import (DimensionMismatch, Inconsistent, NotInGL, NotSL,
                           NumericalError, WeightMismatch)
from hadalg.weights import FACTORIAL

from conftest import mat_identity

W = FACTORIAL


def const_el(v):
    return alg.Element(W, EPSeq((), (complex(v),)))


def cyc_el(*vals):
    return alg.Element(W, EPSeq((), tuple(complex(v) for v in vals)))


def mat_from_stack(stack, pl=0):
    return ma.from_ustack(W, pl, np.asarray(stack, dtype=complex))


def rand_mat(rng, m, n, cycles=2, scale=1.0):
    stack = (rng.standard_normal((cycles, m, n))
             + 1j * rng.standard_normal((cycles, m, n))) * scale
    return mat_from_stack(stack)


@pytest.fixture
def nrng():
    return np.random.default_rng(20260823)


class TestBasics:
    def test_identity_multiplication(self, nrng):
        A = rand_mat(nrng, 3, 3)
        assert ma.mat_mul(mat_identity(W, 3), A).entries == A.entries

    def test_mul_matches_positionwise(self, nrng):
        A = rand_mat(nrng, 2, 3, cycles=2)
        B = rand_mat(nrng, 3, 2, cycles=3)
        C = ma.mat_mul(A, B)
        for k in range(8):
            assert np.allclose(C.U(k), A.U(k) @ B.U(k), atol=1e-13)

    def test_det_matches_positionwise(self, nrng):
        A = rand_mat(nrng, 3, 3, cycles=2)
        d = ma.mat_det(A)
        for k in range(6):
            assert abs(d.u.value(k) - np.linalg.det(A.U(k))) < 1e-12

    def test_shape_errors(self, nrng):
        with pytest.raises(DimensionMismatch):
            ma.mat_mul(rand_mat(nrng, 2, 3), rand_mat(nrng, 2, 3))
        with pytest.raises(DimensionMismatch):
            ma.MatElement(W, ((const_el(1),), (const_el(1), const_el(2))))

    def test_weight_consistency(self, nrng):
        from hadalg.weights import superexp
        e = alg.unit(superexp(2.0, 2))
        with pytest.raises(WeightMismatch):
            ma.MatElement(W, ((e,),))

    def test_norm_bounds_order(self, nrng):
        A = rand_mat(nrng, 3, 3, cycles=3)
        S, upper = ma.mat_norm_bounds(A)
        assert 0 < S <= upper + 1e-12

    @pytest.mark.parametrize("positions", [1, 5, 200])
    def test_spectral_sup_is_the_per_position_max(self, nrng, positions):
        # the batched norm gives the bits of one np.linalg.norm per position
        for n in range(1, 8):
            A = rand_mat(nrng, n, n, cycles=positions)
            want = max(float(np.linalg.norm(U, 2)) for U in A.array)
            assert ma.mat_norm_bounds(A)[0] == want


class TestSolve:
    def test_planted_solution(self, nrng):
        for _ in range(10):
            A = rand_mat(nrng, 3, 2, cycles=2)
            x0 = rand_mat(nrng, 2, 1, cycles=2)
            b = ma.mat_mul(A, x0)
            delta, x = ma.mat_solve(A, b)
            for k in range(6):
                assert np.linalg.norm(A.U(k) @ x.U(k)[:, 0] - b.U(k)[:, 0]) < 1e-10

    def test_minimal_norm(self, nrng):
        # underdetermined: solution must not exceed the planted one
        A = rand_mat(nrng, 2, 4, cycles=2)
        x0 = rand_mat(nrng, 4, 1, cycles=2)
        b = ma.mat_mul(A, x0)
        _, x = ma.mat_solve(A, b)
        for k in range(6):
            assert (np.linalg.norm(x.U(k)) <=
                    np.linalg.norm(x0.U(k)) + 1e-10)

    def test_delta_certificate(self, nrng):
        A = rand_mat(nrng, 3, 3, cycles=1)
        x0 = rand_mat(nrng, 3, 1, cycles=1)
        b = ma.mat_mul(A, x0)
        delta, x = ma.mat_solve(A, b)
        sup = max(np.linalg.norm(x.U(k)) for k in range(2))
        assert math.isclose(delta, 1.0 / sup, rel_tol=1e-12)

    def test_inconsistent_certificate(self, nrng):
        # rank-1 A at every position, b with a component off the range
        u = nrng.standard_normal(3) + 1j * nrng.standard_normal(3)
        v = nrng.standard_normal(2) + 1j * nrng.standard_normal(2)
        U = np.outer(u, v)
        w = nrng.standard_normal(3) + 1j * nrng.standard_normal(3)
        w -= u * (u.conj() @ w) / (u.conj() @ u)
        b = (U @ nrng.standard_normal(2)) + w
        A = mat_from_stack([U])
        bm = mat_from_stack([b[:, None]])
        with pytest.raises(Inconsistent) as ei:
            ma.mat_solve(A, bm)
        y = np.array(ei.value.y)
        assert np.linalg.norm(U.conj().T @ y) < 1e-12
        assert abs(y.conj() @ b) > 0.1


class TestExpLog:
    def test_exp_positionwise(self, nrng):
        B = rand_mat(nrng, 3, 3, cycles=2)
        E = ma.mat_exp(B)
        for k in range(4):
            assert np.allclose(E.U(k), scipy.linalg.expm(B.U(k)), atol=1e-12)

    def test_log_round_trip(self, nrng):
        for _ in range(5):
            B0 = rand_mat(nrng, 3, 3, cycles=2, scale=0.7)
            A = ma.mat_exp(B0)
            L = ma.mat_log(A)
            back = ma.mat_exp(L)
            for k in range(4):
                assert np.max(np.abs(back.U(k) - A.U(k))) < 1e-9

    def test_log_scalar_negative(self):
        A = mat_from_stack([[[-1.0]]])
        L = ma.mat_log(A)
        assert abs(L.U(0)[0, 0] - 1j * math.pi) < 1e-12

    def test_singular_rejected(self):
        A = mat_from_stack([np.diag([1.0, 0.0])])
        with pytest.raises(NotInGL) as ei:
            ma.mat_log(A)
        assert ei.value.position == 0

    def test_branch_angle_avoids_spectrum(self, nrng):
        for _ in range(20):
            lam = nrng.standard_normal(3) + 1j * nrng.standard_normal(3)
            theta = ma._branch_angle(lam)
            args = np.mod(np.angle(lam), 2 * math.pi)
            dist = np.min(np.abs(np.mod(args - theta + math.pi, 2 * math.pi)
                                 - math.pi))
            assert dist >= (2 * math.pi / 3) / 2 - 1e-9


def factor_budget(n):
    """sl_factor's bound: n(n-1)/2 boosts, n(n-1) eliminations and five
    Whitehead factors per diagonal block."""
    return n * (n - 1) // 2 + n * (n - 1) + 5 * (n - 1)


def far_sl(rng, n, positions):
    """exp(3 G) scaled to determinant one, G standard complex Gaussian."""
    G = (rng.standard_normal((positions, n, n))
         + 1j * rng.standard_normal((positions, n, n))) / math.sqrt(2)
    stack = np.array([scipy.linalg.expm(3 * g) for g in G])
    return stack / (np.linalg.det(stack) ** (1.0 / n))[:, None, None]


def cyclic_sl(rng, n, positions):
    """The cyclic shift e_i -> e_(i+1) times a diagonal of unit phases,
    scaled to determinant one: every pivot is 0 at every position."""
    shift = np.roll(np.eye(n), 1, axis=0)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, (positions, n)))
    phases[:, -1] = (-1) ** (n - 1) / np.prod(phases[:, :-1], axis=1)
    return shift[None] * phases[:, None, :]


def near_identity_5():
    """L U with unit lower L and upper U, off-diagonal entries Gaussian
    integers over 16, diagonal of U all ones at position 0 and
    (2, 1/2, 1, 1, 1) at position 1: every value is dyadic, so the document
    and its determinant one are exact."""
    rng = random.Random(5)
    stack = []
    for d in ([1, 1, 1, 1, 1], [2, 0.5, 1, 1, 1]):
        L, U = np.eye(5, dtype=complex), np.diag(np.array(d, dtype=complex))
        for i in range(5):
            for j in range(i):
                L[i, j] = complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 16
                U[j, i] = complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 16
        stack.append(L @ U)
    return np.array(stack)


class TestSLFactor:
    def test_identity_empty(self):
        assert ma.sl_factor(mat_identity(W, 2)) == ([], 0.0)
        # a 3-position identity window with signed-zero off-diagonals: the
        # canonical form keeps the -0.0s in one position, and the raw
        # three-position stack factors to nothing as well
        I = np.eye(3, dtype=complex)
        I[~np.eye(3, dtype=bool)] = complex(-0.0, -0.0)
        A = ma.from_ustack(W, 0, np.stack([I, I, I]))
        assert np.signbit(A.ustack()[2].real).any()
        assert ma.sl_factor(A) == ([], 0.0)
        assert ma._factor_stack(np.stack([I, I, I]), 0, W) == []

    def test_diagonal_block_budget(self):
        A = ma.MatElement(W, ((const_el(2.0), const_el(0.0)),
                              (const_el(0.0), const_el(0.5))))
        factors, _ = ma.sl_factor(A)
        assert len(factors) <= 6
        prod = ma._apply_factors(factors, 1, 2)
        assert np.max(np.abs(prod[0] - A.U(0))) <= 1e-9

    def test_random_sl(self, nrng):
        for n in (2, 3):
            for _ in range(4):
                raw = (nrng.standard_normal((2, n, n))
                       + 1j * nrng.standard_normal((2, n, n))) * 0.6
                stack = []
                for k in range(2):
                    Uk = scipy.linalg.expm(raw[k])
                    stack.append(Uk / np.linalg.det(Uk) ** (1.0 / n))
                A = mat_from_stack(stack)
                factors, _ = ma.sl_factor(A)
                pl, cl, st = A.ustack()
                prod = ma._apply_factors(factors, len(st), n)
                assert float(np.max(np.abs(prod - st))) <= 1e-9
                assert all(f.i != f.j for f in factors)

    def test_non_unimodular_rejected(self, nrng):
        A = mat_from_stack([np.diag([2.0, 1.0])])
        with pytest.raises(NotSL) as ei:
            ma.sl_factor(A)
        assert abs(ei.value.det - 2.0) < 1e-12

    def test_far_from_identity_path(self):
        # the first pivot is 0: the stable-rank-1 step must raise it
        A = mat_from_stack([np.array([[0.0, -1.0], [1.0, 0.0]])])
        factors, _ = ma.sl_factor(A)
        prod = ma._apply_factors(factors, 1, 2)
        assert np.max(np.abs(prod[0] - A.U(0))) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_factor_count_bound(self, n, nrng):
        for stack in (far_sl(nrng, n, 3), cyclic_sl(nrng, n, 3)):
            assert len(ma._factor_stack(stack, 0, W)) <= factor_budget(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_zero_pivot_at_every_position(self, n, nrng):
        stack = cyclic_sl(nrng, n, 4)
        A = mat_from_stack(stack)
        factors, err = ma.sl_factor(A)
        prod = ma._apply_factors(factors, len(stack), n)
        assert err == float(np.max(np.abs(prod - stack))) <= 1e-12
        assert len(factors) <= factor_budget(n)

    @pytest.mark.parametrize("n", [3, 7])
    def test_far_from_identity_relative_error(self, n, nrng):
        # within n eps kappa of the largest entry, kappa the worst condition
        # number over the positions
        eps = np.finfo(np.float64).eps
        for _ in range(4):
            stack = far_sl(nrng, n, 6)
            A = mat_from_stack(stack)
            scale = float(np.abs(stack).max())
            bound = n * eps * float(np.linalg.cond(stack).max())
            _, err = ma.sl_factor(A, tol=bound * scale)
            assert err / scale <= bound

    def test_tiny_pivot_factored_exactly(self):
        # the first pivot at position 1 is 2^-40 with nothing below it to
        # boost; the Whitehead factors of diag(2^-40, 2^40) are exact
        tiny = 2.0 ** -40
        A = mat_from_stack([np.eye(2), np.diag([tiny, 1.0 / tiny])])
        factors, err = ma.sl_factor(A)
        assert err == 0.0
        assert len(factors) == 5

    def test_zero_column_refused_at_its_position(self):
        # only a tol of 1 or more lets det 0 through; the first column of
        # position 1 is 0, so no boost can raise its pivot
        A = mat_from_stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(NumericalError) as ei:
            ma.sl_factor(A, tol=2.0)
        assert ei.value.position == 1
        assert "at position 1" in str(ei.value)

    def test_near_identity_output_bytes(self, tmp_path):
        # the bytes elimination wrote before the boost existed: no pivot is
        # smaller than the entries below it, so the boost never fires
        doc, out = tmp_path / "a.json", tmp_path / "f.json"
        A = mat_from_stack(near_identity_5())
        doc.write_text(serialize.dumps(serialize.matrix_to_json(A)))
        assert run(["mat", "sl-factor", "--json", str(doc), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "5fe47873c1789688eb5237dbf91a2d69be7c26f3124bdf6ac49ed60bcf886970"

