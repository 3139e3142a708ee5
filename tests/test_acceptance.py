"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Tolerances are pinned in the asserts; randomness is seeded so every
run checks the same instances.
"""

import math
import random

import numpy as np
import pytest
import scipy.linalg

from hadalg import algebra as alg
from hadalg import ideals
from hadalg import matalg as ma
from hadalg.coeffseq import EPSeq, inf_abs, joint_shape
from hadalg.errors import Inconsistent
from hadalg.weights import FACTORIAL

from conftest import (GAUSS_UNITS, exact_divisor, gauss_int, rand_element,
                      rand_epseq)
import loop_reference as ref

W = FACTORIAL


def _line(num, desc):
    print(f"[PASS] criterion {num:2d}: {desc}")


def _fail_line(num, desc):
    print(f"[FAIL] criterion {num:2d}: {desc}")


class _Reporter:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _line(self.num, self.desc)
        else:
            _fail_line(self.num, self.desc)
        return False


def test_criterion_01_ring_axioms_and_isometry():
    with _Reporter(1, "ring axioms exact, submultiplicative norm, ||unit|| = 1"):
        rng = random.Random(101)
        els = [rand_element(rng) for _ in range(200)]
        assert alg.norm(alg.unit(W)) == 1.0
        for i in range(0, 198, 3):
            f, g, h = els[i], els[i + 1], els[i + 2]
            assert alg.equal(alg.star(alg.star(f, g), h),
                             alg.star(f, alg.star(g, h)))
            assert alg.equal(alg.star(f, g), alg.star(g, f))
            assert alg.equal(alg.star(f, alg.add(g, h)),
                             alg.add(alg.star(f, g), alg.star(f, h)))
            # |ab| = |a||b| exactly in R, but the two sides round
            # differently; allow a one-ulp slack
            nfg = alg.norm(f) * alg.norm(g)
            assert alg.norm(alg.star(f, g)) <= nfg * (1.0 + 4e-16)


def _scan_window(*seqs):
    pl = max(len(s.prefix) for s in seqs)
    cl = math.lcm(*(len(s.cycle) for s in seqs))
    return pl + 2 * cl


def test_criterion_02_divisibility_ideal_oracles():
    with _Reporter(2, "divide/gcd/in_ideal match brute-force scans, "
                      "witnesses exact"):
        rng = random.Random(102)
        from hadalg.errors import NotDivisible, NotInIdeal
        for trial in range(200):
            # -- divisibility: closed form vs index scan
            g = rand_element(rng, exact_divisor)
            if trial % 2:
                h = rand_element(rng, gauss_int)
                f = alg.star(g, h)
            else:
                f = rand_element(rng, gauss_int)
            window = _scan_window(f.u, g.u)
            oracle_ok = all(f.u.value(n) == 0 or g.u.value(n) != 0
                            for n in range(window))
            try:
                C, q = alg.divide(f, g)
                assert oracle_ok
                assert alg.equal(alg.star(g, q), f)  # exact witness
                for n in range(window):
                    assert abs(f.u.value(n)) <= C * abs(g.u.value(n)) + 0.0
            except NotDivisible:
                assert not oracle_ok

            # -- membership: disjoint-support generators keep witnesses exact
            supp = [rng.randrange(4) for _ in range(6)]
            gens = [alg.Element(W, EPSeq(tuple(
                        exact_divisor(rng) if supp[n] == i else 0.0
                        for n in range(6)), (0.0,))) for i in range(3)]
            fv = [gauss_int(rng) * (gens[supp[n]].u.value(n)
                                    if supp[n] < 3 else 0.0)
                  for n in range(6)]
            if trial % 3 == 0 and 3 in supp:
                fv[supp.index(3)] = 1.0  # plant a violation off all supports
            f2 = alg.Element(W, EPSeq(tuple(fv), (0.0,)))
            window = _scan_window(f2.u, *(g.u for g in gens))
            oracle_in = all(f2.u.value(n) == 0
                            or any(g.u.value(n) != 0 for g in gens)
                            for n in range(window))
            try:
                C, hs = alg.in_ideal(f2, gens)
                assert oracle_in
                acc = alg.zero(W)
                for hh, gg in zip(hs, gens):
                    acc = alg.add(acc, alg.star(hh, gg))
                assert alg.equal(acc, f2)  # exact witness
            except NotInIdeal:
                assert not oracle_in

            # -- gcd: every input divides it with constant 1
            d = alg.gcd([f, g])
            for e in (f, g):
                for n in range(window):
                    assert abs(e.u.value(n)) <= abs(d.u.value(n))


def test_criterion_03_invertible_approximation():
    with _Reporter(3, "thresholding: invertible, inf >= eps, ||g-f|| <= 2 eps"):
        rng = random.Random(103)
        for _ in range(100):
            f = rand_element(rng, gauss_int)
            eps = 2.0 ** -rng.randint(1, 8)
            g = alg.approx_invertible(f, eps)
            delta = inf_abs(g.u)
            assert delta >= eps
            assert alg.invertible(g)[0] == delta
            assert alg.norm(alg.sub(g, f)) <= 2.0 * eps


def test_criterion_04_unimodular_pair_reduction():
    with _Reporter(4, "unimodular pairs reduce to an invertible element, "
                      "inf |f1 + h f2| >= delta/2 with ||h|| <= 1"):
        rng = random.Random(104)
        for _ in range(50):
            f1 = rand_element(rng, gauss_int)
            g1 = rand_element(rng, gauss_int)
            f2 = alg.sub(alg.unit(W), alg.star(g1, f1))  # g1 f1 + f2 = 1
            h, witness = alg.bass_reduce(f1, f2)
            assert alg.equal(witness, alg.add(f1, alg.star(h, f2)))
            pl, cl = joint_shape(f1.u, f2.u)
            s = [abs(f1.u.value(n)) + abs(f2.u.value(n)) for n in range(pl + cl)]
            for n in range(pl + cl):
                assert abs(h.u.value(n)) <= 1 + 2.0 ** -50
                assert 2 * abs(witness.u.value(n)) >= s[n] * (1 - 2.0 ** -50)
            delta, _ = alg.invertible(witness)
            assert 2 * delta >= min(s) * (1 - 2.0 ** -50)


def test_criterion_05_idempotent_classification():
    with _Reporter(5, "idempotent iff 0/1-valued, exhaustive small shapes"):
        # all 0/1 patterns with prefix <= 3 and cycle <= 3 (covers 2^6 masks)
        for pl in range(4):
            for cl in range(1, 4):
                for bits in range(2 ** (pl + cl)):
                    vals = [(bits >> i) & 1 for i in range(pl + cl)]
                    f = alg.Element(W, EPSeq(tuple(float(v) for v in vals[:pl]),
                                             tuple(float(v) for v in vals[pl:])))
                    assert alg.is_idempotent(f)
                    assert alg.equal(alg.star(f, f), f)
        # non-mask values must fail the fixed-point equation
        for bad in (2.0, -1.0, 0.5, 1 + 1j):
            f = alg.Element(W, EPSeq((), (bad, 1.0)))
            assert not alg.is_idempotent(f)
            assert not alg.equal(alg.star(f, f), f)
        # the alternating projection: nontrivial idempotent
        P = alg.Element(W, EPSeq((), (1.0, 0.0)))
        assert alg.is_idempotent(P)
        assert not alg.equal(P, alg.zero(W))
        assert not alg.equal(P, alg.unit(W))


def test_criterion_06_exp_log_round_trip():
    with _Reporter(6, "exp(log g) <= 1e-12 pointwise, log norm bound"):
        rng = random.Random(106)

        def inv_val(r):
            rad = math.exp(r.uniform(math.log(0.1), math.log(10.0)))
            phi = r.uniform(-math.pi, math.pi)
            return rad * complex(math.cos(phi), math.sin(phi))

        for _ in range(100):
            g = rand_element(rng, inv_val)
            delta = inf_abs(g.u)
            gn = alg.norm(g)
            assert delta >= 0.1 - 1e-12 and gn <= 10.0 + 1e-12
            f = alg.log_el(g)
            back = alg.exp_el(f)
            for n in range(g.u.rep_len + 4):
                assert abs(back.u.value(n) - g.u.value(n)) <= 1e-12
            bound = math.sqrt(max(abs(math.log(delta)),
                                  abs(math.log(gn))) ** 2 + math.pi ** 2)
            assert alg.norm(f) <= bound + 1e-12


def test_criterion_07_linear_systems():
    with _Reporter(7, "planted systems solved (residual <= 1e-10, minimal "
                      "norm); inconsistency certified"):
        nrng = np.random.default_rng(107)
        for _ in range(100):
            m = int(nrng.integers(1, 5))
            n = int(nrng.integers(1, 5))
            c = int(nrng.integers(1, 5))
            stack = (nrng.standard_normal((c, m, n))
                     + 1j * nrng.standard_normal((c, m, n)))
            A = ma.from_ustack(W, 0, stack)
            x0 = ma.from_ustack(W, 0, nrng.standard_normal((c, n, 1))
                                + 1j * nrng.standard_normal((c, n, 1)))
            b = ma.mat_mul(A, x0)
            delta, x = ma.mat_solve(A, b)
            pl = max(A.shape_window()[0], b.shape_window()[0])
            cl = math.lcm(A.shape_window()[1], b.shape_window()[1])
            for k in range(pl + cl):
                assert np.linalg.norm(A.U(k) @ x.U(k)[:, 0]
                                      - b.U(k)[:, 0]) <= 1e-10
                assert np.linalg.norm(x.U(k)) <= np.linalg.norm(x0.U(k)) + 1e-10
        hits = 0
        for _ in range(20):
            m = int(nrng.integers(2, 5))
            u = nrng.standard_normal(m) + 1j * nrng.standard_normal(m)
            v = nrng.standard_normal(1) + 1j * nrng.standard_normal(1)
            U = np.outer(u, v)  # rank one
            w = nrng.standard_normal(m) + 1j * nrng.standard_normal(m)
            w -= u * (u.conj() @ w) / (u.conj() @ u)
            w /= np.linalg.norm(w)
            bvec = U @ nrng.standard_normal(1) + w
            A = ma.from_ustack(W, 0, U[None, :, :])
            b = ma.from_ustack(W, 0, bvec[None, :, None])
            with pytest.raises(Inconsistent) as ei:
                ma.mat_solve(A, b)
            y = np.array(ei.value.y)
            assert np.linalg.norm(U.conj().T @ y) <= 1e-12
            assert abs(y.conj() @ bvec) >= 0.1
            hits += 1
        assert hits == 20


def test_criterion_08_matrix_logarithm():
    with _Reporter(8, "matrix log: round-trip <= 1e-9, eigen vs contour "
                      "<= 1e-6 at 2048 nodes"):
        nrng = np.random.default_rng(108)
        for _ in range(50):
            n = int(nrng.integers(1, 4))
            c = int(nrng.integers(1, 3))
            B0 = (nrng.standard_normal((c, n, n))
                  + 1j * nrng.standard_normal((c, n, n))) * 0.8
            A = ma.mat_exp(ma.from_ustack(W, 0, B0))
            L = ma.mat_log(A)
            back = ma.mat_exp(L)
            pl, cl, stack = A.ustack()
            for k in range(len(stack)):
                assert np.max(np.abs(back.U(k) - A.U(k))) <= 1e-9
                lam = np.linalg.eigvals(stack[k])
                mods = np.abs(lam)
                Bq = ref.contour_log(stack[k], ref.branch_angle(lam),
                                     mods.min(), mods.max(), 2048)
                assert np.max(np.abs(L.U(k) - Bq)) <= 1e-6


def test_criterion_09_sl_factorization():
    with _Reporter(9, "SL factorization: reconstruction <= 1e-9, "
                      "diagonal budget <= 6"):
        nrng = np.random.default_rng(109)
        for n in (2, 3):
            for _ in range(25):
                c = int(nrng.integers(1, 3))
                raw = (nrng.standard_normal((c, n, n))
                       + 1j * nrng.standard_normal((c, n, n))) * 0.7
                stack = []
                for k in range(c):
                    Uk = scipy.linalg.expm(raw[k])
                    stack.append(Uk / np.linalg.det(Uk) ** (1.0 / n))
                A = ma.from_ustack(W, 0, np.array(stack))
                factors, _ = ma.sl_factor(A)
                assert all(i != j for i, j, _ in factors)
                pl, cl, st = A.ustack()
                prod = ma._apply_factors(factors, len(st), n)
                assert float(np.max(np.abs(prod - st))) <= 1e-9
        for d in (2.0, 0.5, 3.0 + 1.0j):
            A = ma.from_ustack(W, 0, np.diag([d, 1.0 / d])[None, :, :])
            factors, _ = ma.sl_factor(A)
            assert len(factors) <= 6
            prod = ma._apply_factors(factors, 1, 2)
            assert float(np.max(np.abs(prod[0] - np.diag([d, 1.0 / d])))) <= 1e-9


def test_criterion_10_index_order_growth():
    with _Reporter(10, "zero blocks match oracle at horizon 2^14, P1/P2, "
                       "growth ratio in [0.9, 1.2]"):
        horizon = 1 << 14
        f1 = ref.krull_witness(1, horizon=horizon)
        blocks = [(1 << k, (1 << k) + k * k) for k in range(15)]
        for m in range(horizon + 1):
            in_block = any(lo <= m <= hi for lo, hi in blocks)
            assert (f1.value(m) == 0) == in_block
        rng = random.Random(110)
        for _ in range(500):
            f = rand_element(rng)
            g = rand_element(rng)
            assert ref.p1_p2_check(f, g, rng.randint(0, 8))
        traj = dict(ideals.krull_trajectory(1, horizon=horizon))
        for k in range(8, 13):
            assert 0.9 <= traj[k] <= 1.2


def test_criterion_11_annihilator_coherence():
    with _Reporter(11, "f * chi = 0 exactly; annihilator kernel = <chi> "
                       "both directions"):
        rng = random.Random(111)
        for _ in range(50):
            f = rand_element(rng)
            chi = ideals.annihilator_generator(f)
            assert alg.equal(alg.star(f, chi), alg.zero(W))
            # any multiple of chi annihilates f
            r = rand_element(rng)
            h = alg.star(chi, r)
            assert alg.equal(alg.star(f, h), alg.zero(W))
            # any annihilator divides by chi (annihilators live on the
            # zero set of u_f, where chi = 1)
            C, q = alg.divide(h, chi)
            assert alg.equal(alg.star(chi, q), h)


def test_criterion_12_chain_witnesses():
    with _Reporter(12, "ascending and descending chain witnesses for "
                       "n = 1..10"):
        for n in range(1, 11):
            for kind in ("noetherian", "artinian"):
                f, rep = ideals.chain_witness(kind, n, W)
                assert rep.ok
