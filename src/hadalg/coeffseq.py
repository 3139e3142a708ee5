"""Eventually periodic complex sequences and horizon-limited generated ones.

``EPSeq``, a finite prefix followed by a repeating cycle, holds every
element's coefficients.  It is closed under every pointwise operation used
downstream, and suprema / infima / run lengths over all of N_0 reduce to
finite scans, so criteria phrased "for all n" become decidable.

``GenSeq`` holds non-periodic witnesses (a rule and a horizon), which only
the index-order code of ``hadalg.ideals`` reads; anything computed from one
is advisory, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import HorizonExceeded, WindowTooLarge


def _as_values(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("prefix and cycle must be one-dimensional")
    return a


def _repeat(cycle: np.ndarray, count: int) -> np.ndarray:
    """cycle repeated along its first axis to length count: entry m is
    cycle[m mod len(cycle)]."""
    c = len(cycle)
    out = np.empty((-(-count // c) * c,) + cycle.shape[1:], dtype=np.complex128)
    out.reshape((-1,) + cycle.shape)[:] = cycle
    return out[:count]


def _take(s, count: int) -> np.ndarray:
    """Values of s (an EPSeq, a MatElement or a Canonical) at n < count,
    along the first axis: index n >= L reads the cycle at (n - L) mod c."""
    if count == len(s.array):
        return s.array
    L = min(s.period_start, count)
    return np.concatenate((s.array[:L], _repeat(s.array[s.period_start:], count - L)))


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_cycle(cycle: np.ndarray) -> np.ndarray:
    """Shortest d dividing len(cycle) with cycle == cycle[:d] repeated.

    The divisors of n that are periods are exactly the multiples of the
    shortest one (Fine and Wilf), so dividing n by each prime factor while
    the quotient stays a period reaches it.
    """
    d = len(cycle)
    for q in _prime_factors(d):
        while d % q == 0 and (cycle[d // q:] == cycle[:-(d // q)]).all():
            d //= q
    return cycle[:d]


class Canonical(NamedTuple):
    """Canonical values (prefix then cycle, one read-only array) and the
    prefix length: what an EPSeq or a MatElement stores, without the object."""

    array: np.ndarray
    period_start: int


def _canonical(prefix: np.ndarray, cycle: np.ndarray) -> Canonical:
    """prefix + cycle as one read-only array and the prefix length,
    canonical along the first axis.  The values at one position (a scalar,
    or a matrix over the trailing axes) are equal when all their entries
    are."""
    if not len(cycle):
        raise ValueError("cycle must be nonempty")
    cycle = _primitive_cycle(cycle)
    # absorb trailing prefix entries equal to the cycle value they shadow;
    # each absorption rotates the cycle right by one to keep later values
    if len(prefix) and (prefix[-1] == cycle[-1]).all():
        hit = prefix[::-1] == _repeat(cycle[::-1], len(prefix))
        hit = hit.reshape(len(prefix), -1).all(axis=1)
        t = len(prefix) if hit.all() else int(hit.argmin())
        prefix, cycle = prefix[:len(prefix) - t], np.roll(cycle, t, axis=0)
    rep = np.concatenate((prefix, cycle))
    rep.flags.writeable = False
    return Canonical(rep, len(prefix))


class EPSeq:
    """Eventually periodic sequence: value(n) = prefix[n] for n < |prefix|,
    then cycle[(n - |prefix|) mod |cycle|].

    Instances are canonical: the cycle is primitive and no trailing prefix
    entry merely shadows the cycle value it would have anyway.  Equality of
    canonical forms therefore decides equality of the sequences.  Values are
    compared with exact ``==``; no approximate deduplication ever happens.

    The values live in one read-only complex128 array, ``array`` (prefix
    then cycle); ``prefix`` and ``cycle`` are tuple views of it, built on
    first use.  Instances are immutable.
    """

    def __init__(self, prefix, cycle):
        # raw arguments until __post_init__ replaces them by the canonical array
        vars(self).update(prefix=prefix, cycle=cycle)
        self.__post_init__()

    def __post_init__(self):
        d = vars(self)
        d["array"], d["period_start"] = _canonical(_as_values(d.pop("prefix")),
                                                   _as_values(d.pop("cycle")))

    def __setattr__(self, name, value):
        raise AttributeError(f"EPSeq is immutable; cannot set {name!r}")

    @cached_property
    def prefix(self) -> tuple:
        return tuple(self.array[:self.period_start].tolist())

    @cached_property
    def cycle(self) -> tuple:
        return tuple(self.array[self.period_start:].tolist())

    def __eq__(self, other):
        if not isinstance(other, EPSeq):
            return NotImplemented
        return (self.period_start == other.period_start
                and len(self.array) == len(other.array)
                and bool((self.array == other.array).all()))

    def __hash__(self):
        return hash((self.prefix, self.cycle))

    def __repr__(self):
        return f"EPSeq(prefix={self.prefix!r}, cycle={self.cycle!r})"

    # -- indexing ----------------------------------------------------------

    def value(self, n: int) -> complex:
        if n < 0:
            raise IndexError(n)
        if n < self.period_start:
            return self.prefix[n]
        return self.cycle[(n - self.period_start) % len(self.cycle)]

    take = _take

    @property
    def rep_len(self) -> int:
        """Number of positions whose values determine the whole sequence."""
        return len(self.array)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(v) -> "EPSeq":
        return EPSeq((), (v,))

    @staticmethod
    def from_values(values: Sequence, period_start: int) -> "EPSeq":
        return EPSeq(values[:period_start], values[period_start:])


# cycle lengths combine by lcm: two coprime cycles near 10^4 need ~10^8
MAX_WINDOW = 1 << 20


def joint_shape(*seqs) -> tuple[int, int]:
    """Common (prefix length, cycle length) refining every argument (an
    EPSeq, a MatElement or a Canonical), refused above MAX_WINDOW
    positions."""
    pl = max((s.period_start for s in seqs), default=0)
    cl = lcm(*(len(s.array) - s.period_start for s in seqs))
    if pl + cl > MAX_WINDOW:
        raise WindowTooLarge(f"joint window of {pl + cl} positions exceeds "
                             f"the budget of {MAX_WINDOW}")
    return pl, cl


def sup_abs(a: EPSeq) -> float:
    """sup_n |a(n)|, exact: the sup over N_0 is attained on the window."""
    return float(_abs(a.array).max())


def inf_abs(a: EPSeq) -> float:
    """inf_n |a(n)|, exact."""
    return float(_abs(a.array).min())


# ---------------------------------------------------------------------------
# CPython's complex arithmetic on arrays.  numpy's complex ufuncs round
# differently from Python's complex type (abs, products, and division through
# a reciprocal), so a pointwise result would change in its last bits.  These
# helpers apply CPython's own formulas to the real and imaginary parts; sums
# over several sequences go left to right from 0, as Python's sum() does.


def _silent(fn):
    """Run fn without numpy's floating-point warnings: Python's float and
    complex arithmetic overflows to inf (or nan) silently."""
    return np.errstate(all="ignore")(fn)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


@_silent
def _abs(z) -> np.ndarray:
    """abs(z): hypot of the parts (_Py_c_abs)."""
    return np.hypot(z.real, z.imag)


@_silent
def _mul(a, b) -> np.ndarray:
    """a * b (_Py_c_prod)."""
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


@_silent
def _div(a, b) -> np.ndarray:
    """a / b (_Py_c_quot: Smith's method with true divisions).  Entries
    where b == 0 are garbage; Python raises there, so callers mask them."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    return _complex(np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                    np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenSeq:
    """Rule-generated sequence, read only up to ``horizon``.  Index orders
    derived from it are labeled horizon-certified downstream."""

    rule: Callable[[int], complex] = field(compare=False)
    horizon: int

    def value(self, n: int) -> complex:
        if n < 0:
            raise IndexError(n)
        if n > self.horizon:
            raise HorizonExceeded(n, self.horizon)
        return complex(self.rule(n))
