"""eval_at's search for the truncation index, against the scan it replaces.

``loop_reference.eval_at`` tries every index from ``tail_start`` up;
``algebra.eval_at`` gallops and bisects.  They must agree to the bit on the
value, the error bound and the number of terms, or raise the same error
with the same message.
"""

import cmath
import math
import random

import pytest

from hadalg import algebra, weights
from hadalg.coeffseq import EPSeq
from hadalg.errors import NumericalError

import loop_reference as ref
from test_cli_inputs import element, elem

WEIGHTS = [weights.FACTORIAL, weights.superexp(2.0, 2), weights.superexp(3.0, 5),
           weights.superexp(1.5, 64), weights.superexp(1.0001, 2),
           weights.superexp(1.0000001, 2)]
# around the factorial bound's overflow (|z| near 1164) and past the range
RADII = [0.0, 710.0, 1163.9, 1164.0, 1e300, math.inf]


def outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def random_coefficients(rng):
    """(prefix, cycle) of one modulus scale: 0, 1, 1e-3..1e3 or 1e300."""
    scale = rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-3, 3), 1e300])

    def values(k):
        return [scale * rng.uniform(0.1, 1.0) * cmath.exp(1j * rng.uniform(0, 7))
                for _ in range(k)]

    return values(rng.randint(0, 3)), values(rng.randint(1, 3))


def random_point(rng):
    if rng.random() < 0.2:
        r = rng.choice(RADII)
    else:
        r = 10.0 ** rng.uniform(-3, math.log10(4e3))
    if math.isinf(r):  # |z| itself overflows, or z is infinite
        return rng.choice([complex(1.5e308, 1.5e308), complex(math.inf, 0.0)])
    return r * cmath.exp(1j * rng.uniform(0, 7))


def agree(w, prefix, cycle, z, tol):
    f = algebra.Element(w, EPSeq(prefix, cycle))

    def searched():
        res = algebra.eval_at(f, z, tol)
        return res.value, res.error_bound, res.terms

    expected = outcome(lambda: ref.eval_at(w, (f.u.prefix, f.u.cycle), z, tol))
    assert outcome(searched) == expected, (w.name, prefix, cycle, z, tol)
    return expected


# the scan is slow where the threshold is far: past N = 30,000 for b = 1.0001
# at |z| > 20, past the budget of 100,000 for b = 1.0000001 at |z| > 1/2
CASES = [150, 120, 120, 80, 20, 6]


@pytest.mark.parametrize("w, cases", zip(WEIGHTS, CASES),
                         ids=[w.name for w in WEIGHTS])
def test_search_matches_the_scan(w, cases):
    rng = random.Random(w.name)
    for _ in range(cases):
        agree(w, *random_coefficients(rng), random_point(rng),
              10.0 ** rng.uniform(-16, 2))


@pytest.mark.parametrize("r", [3.0, 30.0, 300.0, 700.0])
def test_threshold_overflow_matches_the_scan(r):
    # at b = 1.0001 the bound at the ratio threshold overflows (for |z| = 3 at
    # N = 8950, 2 e^1822): refused, as the scan refuses, though a larger N
    # would certify
    got = agree(weights.superexp(1.0001, 2), [], [1.0], r * 1j, 1e-10)
    assert got == ("NumericalError",
                   f"tail bound overflows the double range at |z| = {r}")


def test_threshold_overflow_is_refused_from_3_to_700():
    # the bound overflows from the threshold on for about a thousand
    # indices, then stays finite but above tol for hundreds: a search that
    # probes one of those must still refuse, as the scan meets the overflow
    # first
    w = weights.superexp(1.0001, 2)
    f = algebra.Element(w, EPSeq((), (1.0,)))
    for k in range(120):
        r = 3.0 * (700.0 / 3.0) ** (k / 119)
        with pytest.raises(NumericalError) as info:
            algebra.eval_at(f, r, 1e-10)
        assert str(info.value) == f"tail bound overflows the double range at |z| = {r}"


def test_partial_sum_overflow_matches_the_scan():
    got = agree(weights.FACTORIAL, [], [1.0], 800.0, 1e-10)
    assert got == ("NumericalError", "partial sum is not finite at |z| = 800.0")


def test_budget_refusal_matches_the_scan():
    got = agree(weights.superexp(1.0000001, 2), [], [1.0], 2.0, 1e-10)
    assert got[0] == "BoundUnavailable"


@pytest.mark.parametrize("z, code", [("100", 0), ("1000", 4)])
def test_eval_calls_tail_bound_o_log_n_times(z, code, tmp_path, monkeypatch):
    # a scan calls it once per index: 94 times at |z| = 100, 740 at 1000
    # (where the partial sum then overflows)
    calls = []
    tail_bound = weights.Weight.tail_bound
    monkeypatch.setattr(weights.Weight, "tail_bound",
                        lambda w, N, r: calls.append(N) or tail_bound(w, N, r))
    assert elem(tmp_path, "eval", element([], [[1, 0]]), f"--z={z}")[0] == code
    assert 0 < len(calls) <= 30
