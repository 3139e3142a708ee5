import math

import pytest
from hypothesis import given, strategies as st

from hadalg.coeffseq import EPSeq, GenSeq, inf_abs, joint_shape, sup_abs
from hadalg.errors import HorizonExceeded

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=1e6)
small_ints = st.integers(min_value=-3, max_value=3)
int_complex = st.builds(complex, small_ints, small_ints)


def seqs(values=int_complex, max_prefix=4, max_cycle=4):
    return st.builds(
        EPSeq,
        st.lists(values, max_size=max_prefix).map(tuple),
        st.lists(values, min_size=1, max_size=max_cycle).map(tuple))


class TestCanonicalization:
    def test_constant(self):
        s = EPSeq((), (2.0,))
        assert s.prefix == () and s.cycle == (2 + 0j,)

    def test_primitive_cycle(self):
        assert EPSeq((), (1, 2, 1, 2)).cycle == (1 + 0j, 2 + 0j)

    def test_prefix_absorption_rotates(self):
        # prefix (5, 2) over cycle (1, 2): the trailing 2 shadows the cycle
        s = EPSeq((5, 2), (1, 2))
        assert s.prefix == (5 + 0j,)
        assert s.cycle == (2 + 0j, 1 + 0j)
        for n in range(12):
            assert s.value(n) == EPSeq((5, 2), (1, 2, 1, 2)).value(n)

    def test_fully_periodic_collapse(self):
        assert EPSeq((1, 2), (1, 2)) == EPSeq((), (1, 2))

    @given(seqs())
    def test_idempotent(self, s):
        assert EPSeq(s.prefix, s.cycle) == s

    @given(seqs(), st.integers(min_value=0, max_value=40))
    def test_values_survive_canonicalization(self, s, n):
        raw_prefix = s.prefix + s.cycle
        again = EPSeq(raw_prefix, s.cycle)
        assert again.value(n) == s.value(n)

    @given(seqs(), seqs())
    def test_equality_decides_pointwise_equality(self, a, b):
        window = a.rep_len + b.rep_len + a.rep_len * b.rep_len
        same = all(a.value(n) == b.value(n) for n in range(window))
        assert (a == b) == same

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            EPSeq((1,), ())


class TestPointwise:
    @given(st.lists(seqs(), min_size=1, max_size=4))
    def test_joint_window_determines_tail(self, ss):
        pl, cl = joint_shape(*ss)
        window = [s.take(pl + cl) for s in ss]
        for n in range(pl + 3 * cl):
            expect = [w[n if n < pl + cl else pl + (n - pl) % cl] for w in window]
            assert [s.value(n) for s in ss] == expect


class TestExtremes:
    @given(seqs())
    def test_sup_inf_attained(self, a):
        vals = [abs(a.value(n)) for n in range(a.rep_len + 20)]
        assert sup_abs(a) == max(vals)
        assert inf_abs(a) == min(vals)

    def test_constants(self):
        assert sup_abs(EPSeq.constant(0.0)) == 0.0
        assert inf_abs(EPSeq.constant(1.0)) == 1.0


class TestGenSeq:
    def test_value_and_horizon(self):
        g = GenSeq(rule=lambda n: n * 1.0, horizon=10)
        assert g.value(10) == 10.0
        with pytest.raises(HorizonExceeded):
            g.value(11)
