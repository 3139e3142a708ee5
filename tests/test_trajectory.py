"""The one pass of loop_reference.growth_trajectory against a per-scale
index_order loop, the Krull witness and krull_trajectory against block
arithmetic, and the witness's bisect rule against a loop over the unmerged
blocks."""

import hashlib
import math
import random

import pytest

from hadalg import ideals
from hadalg.cli import run
from hadalg.coeffseq import MAX_WINDOW, EPSeq, GenSeq
from hadalg.errors import HorizonExceeded

from conftest import gauss_int, rand_element
import loop_reference as ref

BENCH_HORIZONS = [21247, 35734, 60097, 88752, 101070]


def per_scale(u, n, horizon):
    """The trajectory with one index_order scan per scale 2^k."""
    out, k = [], 1
    while (1 << k) <= horizon:
        rep = ideals.index_order(u, 1 << k)
        out.append((k, math.inf if math.isinf(rep.m) else rep.m / (k ** n)))
        k += 1
    return out


def old_blocks(n, horizon):
    out, k = [], 0
    while (1 << k) <= horizon:
        out.append(((1 << k), (1 << k) + k ** (n + 1)))
        k += 1
    return out


def zero_run(start, blocks, horizon):
    """Length of the zero run from start through possibly overlapping
    blocks, cut at the horizon as index_order's open-run bound."""
    cur, moved = start, True
    while moved:
        moved = False
        for lo, hi in blocks:
            if lo <= cur <= hi:
                cur, moved = hi + 1, True
    return horizon - start + 1 if cur > horizon else cur - start


def sparse(rng):
    return 0j if rng.random() < 0.7 else gauss_int(rng) or 1


def zero_runs(rng, length, longest):
    """Values with zero runs of random length up to longest."""
    out = []
    while len(out) < length:
        out += [0j] * rng.randint(0, longest) + [gauss_int(rng) or 1]
    return out[:length]


def same(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, x), (_, y) in zip(a, b):
        assert x == y and type(x) is type(y)


class TestAgainstPerScaleLoop:
    def test_epseq(self, rng):
        for _ in range(200):
            f = rand_element(rng, sparse, max_prefix=6, max_cycle=5).u
            for n in (1, 2, 3):
                h = rng.randint(2, 600)
                same(ref.growth_trajectory(f, n, h), per_scale(f, n, h))

    def test_epseq_long_runs(self, rng):
        for _ in range(100):
            prefix = zero_runs(rng, rng.randint(0, 300), 70)
            cycle = zero_runs(rng, rng.randint(1, 40), 50)
            if rng.random() < 0.25:
                cycle = [0j] * len(cycle)     # an infinite run
            f = EPSeq(tuple(prefix), tuple(cycle))
            h = rng.randint(2, 2000)
            same(ref.growth_trajectory(f, 2, h), per_scale(f, 2, h))

    def test_infinite_run_stays_infinite(self):
        f = EPSeq((1.0, 0.0, 0.0, 2.0, 0.0), (0.0,))
        traj = dict(ref.growth_trajectory(f, 1, 64))
        assert traj[1] == 1.0 and math.isinf(traj[2]) and math.isinf(traj[6])
        assert traj == dict(per_scale(f, 1, 64))

    def test_genseq(self, rng):
        for _ in range(100):
            horizon = rng.randint(4, 700)
            zeros = set()
            for _ in range(rng.randint(0, 6)):
                lo = rng.randint(0, horizon)
                zeros.update(range(lo, lo + rng.randint(0, 200)))
            if rng.random() < 0.3:            # open at the horizon
                zeros.update(range(rng.randint(0, horizon), horizon + 1))
            f = GenSeq(rule=lambda m, z=frozenset(zeros): 0.0 if m in z else 1.0,
                       horizon=horizon)
            for n in (1, 3):
                h = rng.randint(2, horizon)
                same(ref.growth_trajectory(f, n, h), per_scale(f, n, h))

    def test_open_run_at_horizon(self):
        f = GenSeq(rule=lambda m: 0.0 if m >= 5 else 1.0, horizon=100)
        traj = ref.growth_trajectory(f, 1, 100)
        assert traj == per_scale(f, 1, 100)
        assert dict(traj)[3] == (100 - 8 + 1) / 3

    @pytest.mark.parametrize("open_run", [False, True])
    @pytest.mark.parametrize("horizon", [100, 127])
    def test_growth_horizon_beyond_sequence(self, open_run, horizon):
        f = GenSeq(rule=lambda m: 0.0 if open_run and m >= 20 else 1.0,
                   horizon=horizon)
        with pytest.raises(HorizonExceeded) as want:
            per_scale(f, 2, 300)
        with pytest.raises(HorizonExceeded) as got:
            ref.growth_trajectory(f, 2, 300)
        assert (got.value.requested, got.value.horizon) == (128, horizon)
        assert str(got.value) == str(want.value)


class TestKrullWitness:
    @staticmethod
    def horizons(n, top):
        """Horizons in [4, top] around every point where the trajectory can
        change with the horizon: a new scale and block at 2^k, or the end
        of a block, where a zero run stops being cut off by the horizon."""
        hs = set(range(4, 130))
        for lo, hi in old_blocks(n, top):
            hs.update(x for x in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1) if 4 <= x <= top)
        hs.update(random.Random(n).sample(range(4, top + 1), 40))
        return sorted(hs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_arithmetic(self, n):
        for h in self.horizons(n, 4096) + BENCH_HORIZONS + [MAX_WINDOW]:
            u = ideals.krull_family(n, horizon=h)
            blocks = old_blocks(n, h)
            want, k = [], 1
            while (1 << k) <= h:
                want.append((k, zero_run(1 << k, blocks, h) / (k ** (n + 1))))
                k += 1
            same(ref.growth_trajectory(u, n + 1, h), want)
            same(ideals.krull_trajectory(n, h), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bisect_rule_equals_block_loop(self, n):
        h = 1 << 12
        u = ideals.krull_family(n, horizon=h)
        blocks = old_blocks(n, h)
        for m in range(h + 1):
            want = 0.0 if any(lo <= m <= hi for lo, hi in blocks) else 1.0
            assert u.value(m) == want

    @pytest.mark.parametrize("n,h", [(1, 4), (2, 300), (3, 4096), (4, 101070)])
    def test_zero_blocks_unmerged(self, n, h):
        assert ideals.zero_blocks(n, h) == old_blocks(n, h)

    def test_each_index_evaluated_at_most_once(self):
        h = 1 << 14
        rule, seen = ideals.krull_family(3, horizon=h).rule, []
        g = GenSeq(rule=lambda m: seen.append(m) or rule(m), horizon=h)
        ref.growth_trajectory(g, 4, h)
        assert len(seen) == len(set(seen)) <= h + 1


class TestTrajectoryCommand:
    def test_no_rule_evaluations(self, monkeypatch, tmp_path):
        calls = []
        value = GenSeq.value
        monkeypatch.setattr(GenSeq, "value",
                            lambda s, m: calls.append(m) or value(s, m))
        assert run(["ideal", "trajectory", "--n", "3", "--horizon", "16384",
                    "--out", str(tmp_path / "t.json")]) == 0
        assert calls == []

    def test_bad_weight_still_refused(self):
        assert run(["ideal", "trajectory", "--weight", "superexp:b=.,q=2"]) == 3

    def test_bytes_at_the_largest_horizon(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["ideal", "trajectory", "--n", "3", "--horizon", "1048576",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2626c14c59632b0736f04608c673a2a8c8d168882f089fd2f657055a5fcc63bc")

    @pytest.mark.parametrize("n, horizon, digest", [
        (1, 21247, "426751296bfe4222261843a180e2a5342d6a2d97fb185240d3e1ffda7af3e518"),
        (2, 21247, "1ab8f88548097041dfbb554c34fc158fc747a924547099ab622d82b4cce79f3d"),
        (3, 21247, "21242f5ed1e36887b320b4be75dbb0f1d6e85e677d584728a64de04d06728289"),
        (1, MAX_WINDOW, "8b18ebdc32930a5a33b1da1cc3781935d138c5c6bd321752e9c05621aabedf76"),
        (2, MAX_WINDOW, "0ef5b645fe22f45e318012f16e9a99b15aa5084dd957ced1b87da3254ae10565"),
        (3, MAX_WINDOW, "befbf4f72e4b7a9ddd780c8c3855ffc9e39c5cd56c495abafc5a439afedbfb68"),
    ])
    def test_krull_family_bytes(self, n, horizon, digest, tmp_path):
        """The weight-free witness writes the sample and zero blocks that
        the witness built over the factorial weight wrote."""
        out = tmp_path / "k.json"
        assert run(["ideal", "krull-family", "--n", str(n), "--horizon", str(horizon),
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
