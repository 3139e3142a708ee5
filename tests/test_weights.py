import math
import random

import pytest

from hadalg import weights
from hadalg.errors import BoundUnavailable, OverflowAtIndex, SchemaError


class TestFactorial:
    def test_exact_small_values(self):
        w = weights.FACTORIAL
        assert w.p_eval(0) == 1.0
        assert w.p_eval(5) == 120.0
        assert w.p_eval(170) == float(math.factorial(170))

    def test_overflow_reported(self):
        with pytest.raises(OverflowAtIndex):
            weights.FACTORIAL.p_eval(171)

    def test_log_matches_value(self):
        w = weights.FACTORIAL
        for n in (0, 1, 7, 40):
            assert math.isclose(w.log_p(n), math.log(w.p_eval(n)),
                                rel_tol=1e-13)

    def test_tail_bound_dominates(self):
        # T >= actual tail sum_{n>N} r^n / n!
        w = weights.FACTORIAL
        for N, r in [(5, 1.0), (10, 3.0), (3, 0.5)]:
            T = w.tail_bound(N, r)
            tail = sum(r ** n / math.factorial(n) for n in range(N + 1, N + 60))
            assert tail <= T

    def test_tail_bound_refuses_below_threshold(self):
        with pytest.raises(BoundUnavailable):
            weights.FACTORIAL.tail_bound(0, 10.0)

    def test_tail_start_is_the_first_index_accepted(self):
        def refused(N, r):
            try:
                weights.FACTORIAL.tail_bound(N, r)
            except BoundUnavailable:
                return True
            except OverflowError:   # past the threshold, the bound overflows
                pass
            return False

        rng = random.Random(5)
        radii = [0.0, 1e-300, 0.5, 1.0, 1.5, 2.0, 3.0, 709.9, 710.0, 1164.0,
                 2.0 ** 20 + 0.5] + [rng.uniform(0, 3000) for _ in range(300)]
        radii += [f(r, d) for r in radii for f, d in
                  ((math.nextafter, math.inf), (math.nextafter, 0.0))]
        for r in radii:
            N = weights.FACTORIAL.tail_start(r, 10 ** 7)
            assert not refused(N, r) and (N == 0 or refused(N - 1, r))

    def test_tail_start_past_the_limit(self):
        w = weights.FACTORIAL
        assert w.tail_start(2.0, 2) == 2          # 2 / (2 + 2) <= 1/2
        assert w.tail_start(2.5, 2) > 2
        for r in (1e6, 1.4e308, math.inf):
            assert w.tail_start(r, 100_000) > 100_000
        assert weights.superexp(2.0, 2).tail_start(1e6, 100_000) == 0


class TestSuperexp:
    def test_values(self):
        w = weights.superexp(2.0, 2)
        assert w.p_eval(0) == 1.0
        assert w.p_eval(3) == 2.0 ** 9

    def test_tail_bound_dominates(self):
        w = weights.superexp(2.0, 2)
        T = w.tail_bound(4, 2.0)
        tail = sum(2.0 ** n / 2.0 ** (n * n) for n in range(5, 20))
        assert tail <= T

    def test_validation(self):
        with pytest.raises(SchemaError):
            weights.superexp(1.0, 2)
        with pytest.raises(SchemaError):
            weights.superexp(2.0, 1)

    def test_power_budget(self):
        with pytest.raises(SchemaError, match="at most 64"):
            weights.superexp(2.0, weights.MAX_POWER + 1)
        with pytest.raises(SchemaError, match="finite"):
            weights.superexp(math.inf, 2)
        assert weights.superexp(2.0, weights.MAX_POWER).p_eval(1) == 2.0
        # past q = 61, p(2) = b^(2^q) overflows for the least double b > 1
        b = math.nextafter(1.0, 2.0)
        assert math.isfinite(weights.superexp(b, 61).p_eval(2))
        with pytest.raises(OverflowAtIndex):
            weights.superexp(b, 62).p_eval(2)


class TestNames:
    def test_round_trip(self):
        for w in (weights.FACTORIAL, weights.superexp(2.0, 2),
                  weights.superexp(1.5, 3)):
            assert weights.from_name(w.name) == w

    def test_unknown_rejected(self):
        with pytest.raises(SchemaError):
            weights.from_name("polynomial")
        with pytest.raises(SchemaError):
            weights.from_name("custom:never-registered")

    def test_listing(self):
        assert weights.known_weights() == ["factorial", "superexp:b=<base>,q=<power>"]
