import cmath
import itertools
import math

import numpy as np
import pytest

from hadalg import algebra as alg
from hadalg import serialize as ser
from hadalg.cli import run
from hadalg.coeffseq import EPSeq, GenSeq, inf_abs, joint_shape
from hadalg.errors import (CoronaFails, NotDivisible, NotInIdeal, NotInvertible,
                           NumericalError, WeightMismatch)
from hadalg.weights import FACTORIAL, superexp

import loop_reference as ref
from conftest import exact_divisor, gauss_int, rand_element

W = FACTORIAL


def el(prefix, cycle):
    return alg.Element(W, EPSeq(tuple(prefix), tuple(cycle)))


class TestConstruction:
    def test_unit_norm_one(self):
        assert alg.norm(alg.unit(W)) == 1.0

    def test_star_unit_identity(self, rng):
        for _ in range(20):
            f = rand_element(rng)
            assert alg.equal(alg.star(f, alg.unit(W)), f)

    def test_monomial_raw_coefficient(self):
        # z^3 has fhat(3) = 1, so u(3) = p(3)
        f = alg.monomial(W, 3)
        assert f.u.value(3) == 6.0
        assert f.u.value(2) == 0.0 and f.u.value(4) == 0.0

    def test_from_raw_coeffs(self):
        f = alg.from_raw_coeffs(W, [1.0, 1.0, 1.0])
        assert f.u.value(0) == 1.0
        assert f.u.value(2) == 2.0
        assert f.u.value(3) == 0.0

    def test_weight_mismatch_rejected(self):
        with pytest.raises(WeightMismatch):
            alg.add(alg.unit(W), alg.unit(superexp(2.0, 2)))

    def test_gen_backed_rejected_for_exact_ops(self):
        # an Element's coefficients are an EPSeq: the constructor refuses
        # anything else, so no operation ever sees a generated sequence
        with pytest.raises(TypeError, match="GenSeq"):
            alg.Element(W, GenSeq(rule=lambda n: 1.0, horizon=10))


class TestEval:
    def test_unit_is_exp(self):
        res = alg.eval_at(alg.unit(W), 1.0, tol=1e-13)
        assert abs(res.value - math.e) <= res.error_bound + 1e-13

    def test_even_mask_is_cosh(self):
        f = el([], [1.0, 0.0])
        res = alg.eval_at(f, 1.0, tol=1e-13)
        assert abs(res.value - math.cosh(1.0)) <= res.error_bound + 1e-13

    def test_certified_bound_honest(self):
        f = el([2.0], [1.0, -1.0])
        for z in (0.5, 2.0 + 1.0j, -3.0):
            loose = alg.eval_at(f, z, tol=1e-6)
            tight = alg.eval_at(f, z, tol=1e-14)
            assert abs(loose.value - tight.value) <= loose.error_bound + 1e-14

    def test_monomial_value(self):
        res = alg.eval_at(alg.monomial(W, 2), 3.0, tol=1e-12)
        assert abs(res.value - 9.0) < 1e-9


class TestInvertibility:
    def test_unit_inverts_to_itself(self):
        delta, inv = alg.invertible(alg.unit(W))
        assert delta == 1.0
        assert alg.equal(inv, alg.unit(W))

    def test_vanishing_coefficient_blocks(self):
        with pytest.raises(NotInvertible) as ei:
            alg.invertible(alg.monomial(W, 1))
        assert (ei.value.index, ei.value.value) == (0, 0)

    def test_inverse_is_two_sided(self, rng):
        for _ in range(20):
            f = rand_element(rng, exact_divisor)
            delta, inv = alg.invertible(f)
            assert delta > 0
            assert alg.equal(alg.star(f, inv), alg.unit(W))
            assert alg.equal(alg.star(inv, f), alg.unit(W))


class TestDivisibility:
    def test_quotient_exact(self, rng):
        for _ in range(30):
            g = rand_element(rng, exact_divisor)
            h = rand_element(rng, gauss_int)
            f = alg.star(g, h)
            C, q = alg.divide(f, g)
            assert alg.equal(alg.star(g, q), f)
            assert C >= 0

    def test_least_constant(self):
        f = el([], [2.0])
        g = el([], [4.0])
        C, q = alg.divide(f, g)
        assert C == 0.5

    def test_failure_carries_first_index(self):
        f = el([0.0, 1.0, 5.0], [0.0])
        g = el([1.0, 1.0, 0.0], [0.0])
        with pytest.raises(NotDivisible) as ei:
            alg.divide(f, g)
        assert ei.value.index == 2

    def test_zero_divides_only_zero(self):
        z = alg.zero(W)
        C, q = alg.divide(z, z)
        assert alg.equal(alg.star(z, q), z)
        with pytest.raises(NotDivisible):
            alg.divide(alg.unit(W), z)

    @pytest.mark.parametrize("top", [1e308, 1.7e308])
    def test_divide_near_the_top_of_the_range(self, top):
        # u_f and u_g are each scaled by their own power of two, so f / f
        # answers C = 1 and h = 1 where |u_f| or Smith's denominator overflows
        f = el([], [complex(top, top)])
        C, h = alg.divide(f, f)
        assert (C, h.u.array.tolist()) == (1, [1])

    def test_divide_normal_range_keeps_the_unscaled_bits(self, rng):
        # C = max |u_f| / |u_g| and h = u_f / u_g in Python's complex arithmetic
        for _ in range(20):
            f, g = [rand_element(rng, lambda r: scaled_point(r, r.randint(-60, 60)))
                    for _ in range(2)]
            C, h = alg.divide(f, g)
            window = range(40)  # past every joint window: prefix <= 3, cycle <= 12
            assert C == max(abs(f.u.value(n)) / abs(g.u.value(n)) for n in window)
            assert [repr(h.u.value(n)) for n in window] == [
                repr(f.u.value(n) / g.u.value(n)) for n in window]


class TestGcd:
    def test_divides_all_inputs(self, rng):
        for _ in range(20):
            fs = [rand_element(rng) for _ in range(3)]
            d = alg.gcd(fs)
            for f in fs:
                # |u_f| <= 1 * |u_d| pointwise by construction
                pl = max(f.u.rep_len, d.u.rep_len)
                for n in range(2 * pl + 8):
                    assert abs(f.u.value(n)) <= abs(d.u.value(n)) + 0.0

    def test_common_divisors_divide_it(self, rng):
        for _ in range(20):
            c = rand_element(rng, exact_divisor)
            f = alg.star(c, rand_element(rng))
            g = alg.star(c, rand_element(rng))
            d = alg.gcd([f, g])
            C, _ = alg.divide(d, c)
            assert C >= 0


class TestIdealMembership:
    def test_witnesses_reconstruct(self, rng):
        # disjoint supports with exact-divisor values keep everything exact
        for _ in range(25):
            supp = [rng.randrange(3) for _ in range(6)]
            gens_vals = [[exact_divisor(rng) if supp[n] == i else 0.0
                          for n in range(6)] for i in range(3)]
            f_vals = [gauss_int(rng) * gens_vals[supp[n]][n] for n in range(6)]
            gens = [el(v, [0.0]) for v in gens_vals]
            f = el(f_vals, [0.0])
            C, hs = alg.in_ideal(f, gens)
            acc = alg.zero(W)
            for h, g in zip(hs, gens):
                acc = alg.add(acc, alg.star(h, g))
            assert alg.equal(acc, f)

    def test_rejection_index(self):
        f = el([0.0, 3.0], [0.0])
        g1 = el([1.0, 0.0], [0.0])
        g2 = el([2.0, 0.0], [0.0])
        with pytest.raises(NotInIdeal) as ei:
            alg.in_ideal(f, [g1, g2])
        assert ei.value.index == 1


class TestCorona:
    def test_bezout_identity(self, rng):
        for _ in range(25):
            fs = [rand_element(rng, exact_divisor) for _ in range(3)]
            delta, gs = alg.corona_solve(fs)
            assert delta > 0
            acc = alg.zero(W)
            for g, f in zip(gs, fs):
                acc = alg.add(acc, alg.star(g, f))
            # g_i = conj(u_i)/sum|u_j|^2 makes the residual tiny, and exactly
            # zero when a single generator carries each position
            assert alg.norm(alg.sub(acc, alg.unit(W))) < 1e-12

    def test_solution_norm_bound(self, rng):
        for _ in range(10):
            fs = [rand_element(rng, exact_divisor) for _ in range(2)]
            delta, gs = alg.corona_solve(fs)
            for g in gs:
                assert alg.norm(g) <= len(fs) / delta + 1e-12

    def test_common_zero_fails(self):
        f1 = alg.monomial(W, 1)
        f2 = alg.monomial(W, 2)
        with pytest.raises(CoronaFails) as ei:
            alg.corona_solve([f1, f2])
        assert ei.value.index == 0


def scaled_point(rng, k):
    """A complex number whose larger part has binary exponent about k."""
    return complex(math.ldexp(rng.uniform(-1, 1), k), math.ldexp(rng.uniform(-1, 1), k))


class TestScaledBezout:
    """corona_solve and in_ideal form their witnesses from u * 2^-e, e the
    binary exponent of the largest part at each position."""

    EXPONENTS = range(-1000, 1001, 25)

    def test_corona_identity_across_the_exponent_range(self, rng):
        for _ in range(5):
            fs = [el([], [scaled_point(rng, k + rng.randint(-20, 0))
                          for k in self.EXPONENTS]) for _ in range(3)]
            _, gs = alg.corona_solve(fs)
            for n in range(len(self.EXPONENTS)):
                acc = sum(g.u.value(n) * f.u.value(n) for g, f in zip(gs, fs))
                assert abs(acc - 1) < 1e-14, n

    def test_ideal_identity_across_the_exponent_range(self, rng):
        for _ in range(5):
            f = el([], [scaled_point(rng, k) for k in self.EXPONENTS])
            gens = [el([], [scaled_point(rng, k + rng.randint(-20, 0))
                            for k in self.EXPONENTS]) for _ in range(2)]
            _, hs = alg.in_ideal(f, gens)
            for n in range(len(self.EXPONENTS)):
                acc = sum(h.u.value(n) * g.u.value(n) for h, g in zip(hs, gens))
                assert abs(acc - f.u.value(n)) < 1e-14 * abs(f.u.value(n)), n

    def test_normal_range_keeps_the_unscaled_bits(self, rng):
        # g_i = conj(u_i) / sum_j |u_j|^2 in Python's complex arithmetic
        for _ in range(20):
            fs = [rand_element(rng, lambda r: scaled_point(r, r.randint(-60, 60)))
                  for _ in range(3)]
            _, gs = alg.corona_solve(fs)
            for n in range(12):
                us = [f.u.value(n) for f in fs]
                denom = sum((u * u.conjugate()).real for u in us)
                assert [repr(g.u.value(n)) for g in gs] == [
                    repr(u.conjugate() / denom) for u in us]

    def test_ideal_normal_range_keeps_the_unscaled_bits(self, rng):
        # C = max |u_f| / sum_k |u_gk| and h_k = u_f * conj(u_gk) / sum_j
        # |u_gj|^2 in Python's complex arithmetic
        for _ in range(20):
            f, *gens = [rand_element(rng, lambda r: scaled_point(r, r.randint(-60, 60)))
                        for _ in range(3)]
            C, hs = alg.in_ideal(f, gens)
            window = range(40)  # past every joint window: prefix <= 3, cycle <= 12
            uf = [f.u.value(n) for n in window]
            ugs = [[g.u.value(n) for n in window] for g in gens]
            assert C == max(abs(u) / sum(abs(g[n]) for g in ugs) for n, u in enumerate(uf))
            for n in window:
                denom = sum((g[n] * g[n].conjugate()).real for g in ugs)
                assert [repr(h.u.value(n)) for h in hs] == [
                    repr(uf[n] * g[n].conjugate() / denom) for g in ugs]

    @pytest.mark.parametrize("top", [1e308, 1.7e308])
    def test_ideal_member_near_the_top_of_the_range(self, top):
        # C and u_f * conj(v_k) are formed from u_f scaled by its own power
        # of two, so a member near the largest double keeps C = 1 and h = 1,
        # though |u_f| itself overflows at 1.7e308(1 + i)
        f = el([], [complex(top, top)])
        C, (h,) = alg.in_ideal(f, [f])
        assert (C, h.u.array.tolist()) == (1, [1])

    def test_witness_past_the_double_range_is_numerical(self, tmp_path, capsys):
        # 1/1e-310 and 1e300/1e-300 are not doubles: no answer is written
        # (exit 4, no --out file), where the unscaled formula refused with
        # the squared modulus underflowing to 0
        def refused(op, doc):
            (tmp_path / "in.json").write_text(ser.dumps(doc))
            out = tmp_path / "out.json"
            code = run(["elem", op, "--json", str(tmp_path / "in.json"),
                        "--out", str(out)])
            assert not out.exists()
            return code, capsys.readouterr().err

        def doc(prefix, cycle):
            return ser.element_to_json(el(prefix, cycle))

        assert refused("corona", {"elements": [doc([1.0], [1e-310])]}) == (
            4, "numerical failure: solution[0].normalized.cycle is not finite "
               "at index 0\n")
        assert refused("ideal-member", {"f": doc([], [1e300]),
                                        "generators": [doc([], [1e-300])]}) == (
            4, "numerical failure: C is not finite\n")


def wide_point(rng):
    """A nonzero complex number with a part m 2^k, 1/2 <= |m| < 1, k in
    -1,000..1,000 or, one time in five, 1,024, the top binary order (where
    unscaled, Smith's denominator and |u| overflow); its other part is 0,
    of the same order, up to 60 binary orders smaller, or of any order."""
    def part(k):
        return math.ldexp(rng.choice((-1, 1)) * rng.uniform(0.5, 1), k)

    k = 1024 if rng.random() < 0.2 else rng.randint(-1000, 1000)
    other = rng.choice((0.0, part(k), part(k - rng.randint(1, 60)),
                        part(rng.randint(-1000, 1000))))
    return complex(part(k), other) if rng.random() < 0.5 else complex(other, part(k))


class TestIdentityFuzz:
    """invert, divide, ideal-member and corona over wide_point values: every
    finite answer satisfies its identity sum_k h_k g_k = f within ULPS
    roundings per term (loop_reference.identity_error), and a refusal or a
    value that is not finite comes only where the exact answer
    (loop_reference.least_squares) has a part above 2^1020 or every part
    below 2^-1070, past the double range."""

    ULPS = 8
    TRIALS = 150
    WINDOW = range(8)  # past every joint window: prefix <= 2, cycle <= 3

    @staticmethod
    def elements(rng, count):
        pl, cl = rng.randint(0, 2), rng.randint(1, 3)
        return [el([wide_point(rng) for _ in range(pl)],
                   [wide_point(rng) for _ in range(cl)]) for _ in range(count)]

    def verify(self, solve, f, gens):
        """Whether solve() answered; f(n) is the identity's right side."""
        def largest(n):
            exact = ref.least_squares(f(n), [g.u.value(n) for g in gens])
            return max(max(abs(re), abs(im)) for re, im in exact)

        try:
            hs = solve()
        except NumericalError as exc:
            assert not 2 ** -1070 <= largest(exc.index) <= 2 ** 1020, exc
            return False
        for n in self.WINDOW:
            h = [x.u.value(n) for x in hs]
            if all(map(cmath.isfinite, h)):
                assert ref.identity_error(
                    h, [g.u.value(n) for g in gens], f(n)) <= self.ULPS, n
            else:
                assert largest(n) > 2 ** 1020, n
        return True

    def fuzz(self, draw):
        answered = sum(self.verify(*draw()) for _ in range(self.TRIALS))
        assert answered >= self.TRIALS // 2

    def test_invert(self, rng):
        f = el([], [complex(1.7e308, 1.7e308)])  # 1/f = 2.94e-309(1 - i)
        assert self.verify(lambda: [alg.invertible(f)[1]], lambda n: 1, [f])

        def draw():
            [f] = self.elements(rng, 1)
            return lambda: [alg.invertible(f)[1]], lambda n: 1, [f]
        self.fuzz(draw)

    def test_divide(self, rng):
        def draw():
            f, g = self.elements(rng, 2)
            return lambda: [alg.divide(f, g)[1]], f.u.value, [g]
        self.fuzz(draw)

    def test_ideal_member(self, rng):
        def draw():
            f, *gens = self.elements(rng, rng.randint(2, 4))
            return lambda: alg.in_ideal(f, gens)[1], f.u.value, gens
        self.fuzz(draw)

    def test_corona(self, rng):
        def draw():
            fs = self.elements(rng, rng.randint(1, 3))
            return lambda: alg.corona_solve(fs)[1], lambda n: 1, fs
        self.fuzz(draw)


class TestStableRank:
    def test_threshold_construction(self, rng):
        for _ in range(30):
            f = rand_element(rng)
            eps = 2.0 ** -rng.randint(1, 6)
            g = alg.approx_invertible(f, eps)
            assert inf_abs(g.u) >= eps
            assert alg.norm(alg.sub(g, f)) <= 2 * eps

    def test_bass_reduce_witness_invertible(self, rng):
        for _ in range(20):
            f1, f2 = rand_element(rng), rand_element(rng)
            f1 = alg.add(f1, el([], [complex(rng.randint(1, 4))]))  # no common zero
            check_bass_reduce(f1, f2)


def check_bass_reduce(f1, f2):
    """bass_reduce's answer on the unimodular pair (f1, f2): the witness is
    f1 + h*f2, and at every position of the joint window |h| <= 1 and
    |f1 + h*f2| >= (|u1| + |u2|) / 2, so inf |f1 + h*f2| >= delta / 2, each
    within 4 ulps."""
    h, witness = alg.bass_reduce(f1, f2)
    assert alg.equal(witness, alg.add(f1, alg.star(h, f2)))
    pl, cl = joint_shape(f1.u, f2.u)
    for n in range(pl + cl):
        u1, u2, w = f1.u.value(n), f2.u.value(n), witness.u.value(n)
        assert abs(h.u.value(n)) <= 1 + 2.0 ** -50, n
        assert 2 * abs(w) >= (abs(u1) + abs(u2)) * (1 - 2.0 ** -50), n


def dyadic(rng):
    if rng.random() < 0.2:
        return 0j
    k = rng.randint(-60, 60)
    return complex(math.ldexp(rng.randint(-1023, 1023), k),
                   math.ldexp(rng.randint(-1023, 1023), k))


# the fuzz's draws: Gaussian integers, dyadic values at binary exponents
# +-60 (20% zeros), values whose squares over- or underflow, and generic floats
BASS_DRAWS = {
    "gauss": gauss_int,
    "dyadic": dyadic,
    "huge": lambda r: 1e200 * gauss_int(r),
    "tiny": lambda r: 1e-200 * gauss_int(r),
    "mixed": lambda r: r.choice([0j, 1e-200, complex(1e200, 1e200)]),
    "generic": lambda r: complex(r.gauss(0, 1), r.gauss(0, 1)),
}


class TestBassReduceFuzz:
    """f1 + h*f2 from the stable-rank-1 step alone, no Bezout pair; a pair
    with a common zero is refused with the first index where both vanish."""

    @pytest.mark.parametrize("d1, d2", itertools.product(BASS_DRAWS, repeat=2))
    def test_witness_bound(self, d1, d2, rng):
        for _ in range(15):
            f1 = rand_element(rng, BASS_DRAWS[d1])
            f2 = rand_element(rng, BASS_DRAWS[d2])
            pl, cl = joint_shape(f1.u, f2.u)
            common = [n for n in range(pl + cl) if f1.u.value(n) == f2.u.value(n) == 0]
            if common:
                with pytest.raises(CoronaFails) as ei:
                    alg.bass_reduce(f1, f2)
                assert ei.value.index == common[0]
            else:
                check_bass_reduce(f1, f2)

    def test_pairs_with_inexact_corona_solutions(self, rng):
        # the Bezout pair (g1, g2) that corona_solve returns holds only to
        # rounding; the step needs no g
        inexact = 0
        for _ in range(40):
            draw = BASS_DRAWS["generic"]
            f1, f2 = rand_element(rng, draw), rand_element(rng, draw)
            _, (g1, g2) = alg.corona_solve([f1, f2])
            inexact += alg.add(alg.star(g1, f1), alg.star(g2, f2)).u != EPSeq.constant(1.0)
            check_bass_reduce(f1, f2)
        assert inexact >= 30

    def test_step_keeps_the_unscaled_bits(self, rng):
        # in the normal range the scaled rho and t are those of the unscaled
        # formula bit for bit
        for m in (1, 2, 5):
            a = np.array([scaled_point(rng, rng.randint(-60, 60)) for _ in range(200)])
            b = np.array([[scaled_point(rng, rng.randint(-60, 60)) for _ in range(m)]
                          for _ in range(200)])
            rho = np.linalg.norm(b, axis=1)
            low = np.abs(a) < rho
            phase = np.exp(1j * np.angle(a))
            t = np.where(low, phase / np.where(low, rho, 1.0), 0)[:, None] * b.conj()
            assert alg.stable_rank_step(a, b).tobytes() == t.tobytes()


class TestIdempotents:
    def test_masks_are_idempotent(self):
        p = el([1.0, 0.0], [0.0, 1.0, 1.0])
        assert alg.is_idempotent(p)
        assert alg.equal(alg.star(p, p), p)

    def test_non_mask_rejected(self):
        assert not alg.is_idempotent(el([], [2.0]))


class TestExpLog:
    def test_exp_pointwise(self, rng):
        for _ in range(10):
            f = rand_element(rng)
            g = alg.exp_el(f)
            for n in range(f.u.rep_len + 4):
                assert g.u.value(n) == cmath.exp(f.u.value(n))

    def test_exp_always_invertible(self, rng):
        for _ in range(10):
            f = rand_element(rng)
            delta, _ = alg.invertible(alg.exp_el(f))
            assert delta >= math.exp(-alg.norm(f)) - 1e-12

    def test_log_round_trip(self, rng):
        for _ in range(20):
            f = rand_element(rng, exact_divisor)
            g = alg.exp_el(alg.log_el(f))
            for n in range(f.u.rep_len + 4):
                assert abs(g.u.value(n) - f.u.value(n)) < 1e-12

    def test_log_norm_bound(self, rng):
        for _ in range(20):
            f = rand_element(rng, exact_divisor)
            delta = inf_abs(f.u)
            gn = alg.norm(f)
            bound = math.sqrt(max(abs(math.log(delta)),
                                  abs(math.log(gn))) ** 2 + math.pi ** 2)
            assert alg.norm(alg.log_el(f)) <= bound + 1e-12

    def test_log_requires_invertible(self):
        with pytest.raises(NotInvertible) as ei:
            alg.log_el(alg.monomial(W, 1))
        assert ei.value.index == 0
