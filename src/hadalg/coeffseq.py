"""Eventually periodic complex sequences.

``EPSeq``, a finite prefix followed by a repeating cycle, holds every
element's coefficients.  It is closed under every pointwise operation used
downstream, and suprema / infima / run lengths over all of N_0 reduce to
finite scans, so criteria phrased "for all n" become decidable.

``GenSeq`` (a rule and a horizon) is read by no function of ``hadalg``: the
Krull witness of ``hadalg.ideals`` is read off its zero blocks.  It stays
only because ``perfbench/spans.py`` patches ``GenSeq.value`` at install.
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


class Canonical(NamedTuple):
    """Canonical values (prefix then cycle, one read-only array) and the
    prefix length: what an EPSeq or a MatElement stores, without the object."""

    array: np.ndarray
    period_start: int


def _canonical(prefix: np.ndarray, cycle: np.ndarray) -> tuple[list, list]:
    """Canonical form of each column (axis 1) of prefix (L, K, ...) then
    cycle (c, K, ...), its values (scalars, or matrices over the trailing
    axes) compared with exact ``==``: the lists of each column's primitive
    period d and of the number t of its trailing prefix values equal to
    the cycle values they shadow.  The representatives kept are the
    first L - t prefix values, then the first d cycle values rotated right
    by t (as _gather reads them).  Each shift c / q^e, q a prime of c, is
    tested once for all columns, up to the first that no column has: the
    divisors of c that are periods are the multiples of the primitive one
    (Fine and Wilf).
    """
    if not len(cycle):
        raise ValueError("cycle must be nonempty")
    c, K = cycle.shape[:2]
    entries = tuple(range(2, cycle.ndim))  # the axes of one value
    d = [c] * K
    for q in _prime_factors(c):
        s = c
        while s % q == 0:
            s //= q
            has = np.logical_and.reduce(cycle[s:] == cycle[:c - s],
                                        axis=(0, *entries)).tolist()
            if not any(has):
                break
            d = [dj // q if h else dj for dj, h in zip(d, has)]
    # shadowed values compare alike in the raw cycle and the primitive one
    L, t = len(prefix), [0] * K
    if L and (prefix[-1] == cycle[-1]).any():
        hit = np.logical_and.reduce(prefix[::-1] == _repeat(cycle[::-1], L), axis=entries)
        t = np.where(hit.all(axis=0), L, hit.argmin(axis=0)).tolist()
    return d, t


def _canonical_form(prefix: np.ndarray, cycle: np.ndarray) -> Canonical:
    """prefix + cycle as one read-only array and the prefix length,
    canonical along the first axis: the one-column case of _canonical, the
    column holding the whole value (a scalar or a matrix) at each position."""
    (d,), (t,) = _canonical(prefix[:, None], cycle[:, None])
    L = len(prefix) - t
    cycle = np.roll(cycle[:d], t, axis=0) if t else cycle[:d]
    rep = np.concatenate((prefix[:L], cycle))
    rep.flags.writeable = False
    return Canonical(rep, L)


def _gather(flat: np.ndarray, start, L, t, d, count: int) -> np.ndarray:
    """Values at positions k < count of sequences j whose raw prefix (L[j]
    values, then the raw cycle) begins at flat[start[j]], read through their
    canonical form (_canonical's d[j], t[j]): shape (count, len(start))."""
    k = np.arange(count)[:, None]
    return flat[np.where(k < L - t, start + k, start + L + (k - L) % d)]


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
        d["array"], d["period_start"] = _canonical_form(_as_values(d.pop("prefix")),
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
    return _window(max((s.period_start for s in seqs), default=0),
                   lcm(*(len(s.array) - s.period_start for s in seqs)))


def _window(pl: int, cl: int) -> tuple[int, int]:
    """(pl, cl), refused above MAX_WINDOW positions."""
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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _abs(z) -> np.ndarray:
    """abs(z): hypot of the parts (_Py_c_abs)."""
    return np.hypot(z.real, z.imag)


def _mul(a, b) -> np.ndarray:
    """a * b (_Py_c_prod)."""
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


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
    """Rule-generated sequence, read only up to ``horizon``."""

    rule: Callable[[int], complex] = field(compare=False)
    horizon: int

    def value(self, n: int) -> complex:
        if n < 0:
            raise IndexError(n)
        if n > self.horizon:
            raise HorizonExceeded(n, self.horizon)
        return complex(self.rule(n))
