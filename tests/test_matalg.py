import math

import numpy as np
import pytest
import scipy.linalg

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg.coeffseq import EPSeq
from hadalg.errors import (DimensionMismatch, Inconsistent, NotInGL, NotSL,
                           WeightMismatch)
from hadalg.weights import FACTORIAL

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
        assert ma.mat_mul(ma.mat_identity(W, 3), A).entries == A.entries

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

    def test_resolvent_diagnostic(self, nrng):
        A = rand_mat(nrng, 2, 2, cycles=1)
        lhs, rhs, holds = ma.resolvent_bound_check(A, 100.0 + 0j, 1.0, 1.0)
        assert holds and lhs <= rhs


class TestSLFactor:
    def test_identity_empty(self):
        assert ma.sl_factor(ma.mat_identity(W, 2)) == ([], 0.0)

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
        # elimination hits a vanishing pivot; the connecting path must rescue
        A = mat_from_stack([np.array([[0.0, -1.0], [1.0, 0.0]])])
        factors, _ = ma.sl_factor(A)
        prod = ma._apply_factors(factors, 1, 2)
        assert np.max(np.abs(prod[0] - A.U(0))) <= 1e-9
