import math

import pytest

from hadalg import algebra as alg
from hadalg import ideals
from hadalg.coeffseq import EPSeq
from hadalg.weights import FACTORIAL

from conftest import rand_element
import loop_reference as ref

W = FACTORIAL


def el(prefix, cycle):
    return alg.Element(W, EPSeq(tuple(prefix), tuple(cycle)))


class TestIndexOrder:
    def test_exact_runs(self):
        f = el([1.0, 0.0, 0.0, 5.0], [1.0])
        assert ideals.index_order(f.u, 0).m == 0
        assert ideals.index_order(f.u, 1).m == 2
        assert ideals.index_order(f.u, 2).m == 1
        assert ideals.index_order(f.u, 3).m == 0

    def test_infinite_run(self):
        f = el([1.0], [0.0])
        rep = ideals.index_order(f.u, 1)
        assert math.isinf(rep.m) and rep.to_json()["flag"] == "exact"

    def test_run_through_cycle(self):
        f = el([], [0.0, 0.0, 1.0])
        assert ideals.index_order(f.u, 0).m == 2
        assert ideals.index_order(f.u, 3).m == 2
        assert ideals.index_order(f.u, 30).m == 2

    def test_oracle_agreement(self, rng):
        for _ in range(50):
            f = rand_element(rng)
            k = rng.randint(0, 8)
            rep = ideals.index_order(f.u, k)
            scan = 0
            while scan < 200 and f.u.value(k + scan) == 0:
                scan += 1
            expect = math.inf if scan == 200 else scan
            assert rep.m == expect


class TestKrullFamily:
    def test_zero_blocks(self):
        u = ref.krull_witness(1, horizon=256)
        for m in range(257):
            in_block = any(2 ** k <= m <= 2 ** k + k * k
                           for k in range(9))
            assert (u.value(m) == 0) == in_block

    def test_growth_ratio_near_one(self):
        traj = dict(ref.growth_trajectory(ref.krull_witness(1), 2))
        for k in range(8, 13):
            assert 0.9 <= traj[k] <= 1.2

    def test_p1_p2(self, rng):
        for _ in range(50):
            f = rand_element(rng)
            g = rand_element(rng)
            assert ref.p1_p2_check(f, g, rng.randint(0, 6))


class TestAnnihilator:
    def test_exact_kill(self, rng):
        for _ in range(20):
            f = rand_element(rng)
            chi = ideals.annihilator_generator(f)
            assert alg.equal(alg.star(f, chi), alg.zero(W))

    def test_generates_kernel(self, rng):
        for _ in range(20):
            f = rand_element(rng)
            chi = ideals.annihilator_generator(f)
            # anything supported on the zero set annihilates and divides by chi
            h = alg.star(chi, rand_element(rng))
            assert alg.equal(alg.star(f, h), alg.zero(W))
            C, q = alg.divide(h, chi)
            assert alg.equal(alg.star(chi, q), h)


class TestChains:
    def test_both_kinds(self):
        for n in range(1, 11):
            for kind in ("noetherian", "artinian"):
                f, rep = ideals.chain_witness(kind, n, W)
                assert rep.ok
                assert rep.to_json()["witness"].startswith("z^")

    def test_witness_degrees(self):
        f, rep = ideals.chain_witness("noetherian", 3, W)
        assert rep.witness_degree == 3
        f, rep = ideals.chain_witness("artinian", 3, W)
        assert rep.witness_degree == 4


class TestTrajectory:
    def test_exact_verdict_single_residue(self):
        f = el([], [0.0, 1.0])
        rep = ideals.nonfixed_ideal_trajectory(f.u, [0, 2, 4, 8, 16])
        assert rep.to_json()["certified"] == "exact"
        assert rep.verdict is True  # the sampled residue is the zero one

    def test_mixed_residues_undecided(self):
        f = el([], [0.0, 1.0])
        rep = ideals.nonfixed_ideal_trajectory(f.u, [0, 1, 2])
        assert rep.verdict is None

    def test_monotone_required(self):
        f = el([], [1.0])
        with pytest.raises(ValueError):
            ideals.nonfixed_ideal_trajectory(f.u, [3, 2])
