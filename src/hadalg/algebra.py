"""Scalar algebra of entire functions under weighted Hadamard multiplication.

Everything works in normalized coordinates u(n) = p(n) * fhat(n).  In these
coordinates the multiplication is pointwise, the norm is sup |u|, the unit is
the all-ones sequence, and every criterion implemented below (divisibility,
invertibility, ideal membership, the corona condition, idempotency, exp/log)
is a finite scan over the representative window of an EPSeq.  An Element's
coefficients are always an EPSeq, checked once at construction, so every
procedure here is exact on the window.  Raw Taylor coefficients
fhat(n) = u(n)/p(n) appear only at the serialization boundary and inside
point evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coeffseq import (MAX_WINDOW, EPSeq, _abs, _div, _mul, _silent, inf_abs,
                       joint_shape, sup_abs)
from .errors import (BoundUnavailable, CoronaFails, InvalidArgument,
                     NotDivisible, NotInIdeal, NotInvertible, NumericalError,
                     PointwiseDomainError, PreconditionFailed, WeightMismatch,
                     WindowTooLarge)
from .weights import Weight

MAX_EVAL_TERMS = 100_000  # the largest truncation index eval_at tries


@dataclass(frozen=True)
class Element:
    """Member of the algebra: a weight and the normalized coefficients u.

    Boundedness of u *is* membership (fhat(n) = O(1/p(n)) iff sup |u| < oo),
    automatic for u an EPSeq, the only coefficients accepted.
    """

    weight: Weight
    u: EPSeq

    def __post_init__(self):
        if not isinstance(self.u, EPSeq):
            raise TypeError("an Element's coefficients must be an EPSeq, "
                            f"not {type(self.u).__name__}")

    def __repr__(self):
        return f"Element({self.weight.name}, {self.u!r})"


def _same_weight(*els: Element) -> Weight:
    w = els[0].weight
    for e in els[1:]:
        if e.weight != w:
            raise WeightMismatch(f"{e.weight.name} vs {w.name}")
    return w


def _window(*els: Element) -> tuple[int, list[np.ndarray]]:
    """Prefix length L of the joint window and each element's values on it."""
    pl, cl = joint_shape(*(e.u for e in els))
    return pl, [e.u.take(pl + cl) for e in els]


def _element(w: Weight, values, pl: int) -> Element:
    return Element(w, EPSeq.from_values(values, pl))


def _map(fn: Callable[[complex], complex], u: EPSeq) -> EPSeq:
    """fn (a cmath function) at every representative position."""
    vals = u.array.tolist()
    try:
        out = list(map(fn, vals))
    except (ValueError, OverflowError):
        for n, v in enumerate(vals):  # locate the first failing position
            try:
                fn(v)
            except ValueError as exc:
                raise PointwiseDomainError(
                    n, str(exc) or "pointwise operation undefined") from exc
            except OverflowError as exc:
                raise NumericalError(
                    f"{fn.__name__} overflows the double range at index {n}") from exc
        raise
    return EPSeq.from_values(out, u.period_start)


def _sq_moduli(us: Sequence[np.ndarray], zero: np.ndarray) -> np.ndarray:
    """sum_k (conj(u_k) * u_k).real, in Python's order.  It may vanish only
    where every u_k does (``zero``), not by underflow elsewhere."""
    denom = sum(_mul(u.conj(), u).real for u in us)
    under = (denom == 0.0) & ~zero
    if under.any():
        raise NumericalError("squared moduli underflow to 0 at index "
                             f"{int(under.argmax())}")
    return denom


# ---------------------------------------------------------------------------
# construction and arithmetic


def unit(w: Weight) -> Element:
    """The identity element: u == 1 (raw form: sum z^n / p(n))."""
    return Element(w, EPSeq.constant(1.0))


def zero(w: Weight) -> Element:
    return Element(w, EPSeq.constant(0.0))


def monomial(w: Weight, m: int) -> Element:
    """z^m as an element: u(m) = p(m), zero elsewhere."""
    pm = w.p_eval(m)  # refuses an unrepresentable p(m) before m values exist
    if m + 2 > MAX_WINDOW:  # p(m) is finite for weights growing slowly enough
        raise WindowTooLarge(f"z^{m} needs a window of {m + 2} positions, "
                             f"which exceeds the budget of {MAX_WINDOW}")
    vals = [0.0] * m + [pm, 0.0]
    return Element(w, EPSeq.from_values(vals, m + 1))


def from_raw_coeffs(w: Weight, raw_prefix: Sequence[complex]) -> Element:
    """Finite raw Taylor coefficients (zero tail): u(n) = p(n) * fhat(n)."""
    vals = [w.p_eval(n) * complex(c) for n, c in enumerate(raw_prefix)]
    return Element(w, EPSeq.from_values(vals + [0.0], len(vals)))


@_silent
def add(f: Element, g: Element) -> Element:
    _same_weight(f, g)
    pl, (a, b) = _window(f, g)
    return _element(f.weight, a + b, pl)


@_silent
def sub(f: Element, g: Element) -> Element:
    _same_weight(f, g)
    pl, (a, b) = _window(f, g)
    return _element(f.weight, a - b, pl)


def scalar_mul(c: complex, f: Element) -> Element:
    return _element(f.weight, _mul(complex(c), f.u.array), f.u.period_start)


def star(f: Element, g: Element) -> Element:
    """Weighted Hadamard product: pointwise product of normalized coefficients."""
    _same_weight(f, g)
    pl, (a, b) = _window(f, g)
    return _element(f.weight, _mul(a, b), pl)


def norm(f: Element) -> float:
    """sup_n p(n) |fhat(n)| = sup |u|."""
    return sup_abs(f.u)


def equal(f: Element, g: Element) -> bool:
    """Exact equality via canonical forms."""
    return f.weight == g.weight and f.u == g.u


# ---------------------------------------------------------------------------
# point evaluation


@dataclass(frozen=True)
class EvalResult:
    value: complex
    error_bound: float
    terms: int


def eval_at(f: Element, z: complex, tol: float = 1e-12) -> EvalResult:
    """Certified partial sum of f(z) = sum u(n)/p(n) z^n.

    The truncation index N <= MAX_EVAL_TERMS is chosen so that
    sup|u| * tail_bound(N, |z|) <= tol.  Terms are accumulated through the
    incremental ratio t_{n+1} = t_n * z * p(n)/p(n+1), avoiding raw weight
    values.
    """
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    w = f.weight
    try:
        r = abs(z)
    except OverflowError:  # |z| itself is past the double range
        r = math.inf
    sup = sup_abs(f.u)
    N = w.tail_start(r, MAX_EVAL_TERMS)
    bound = None
    while True:
        if N > MAX_EVAL_TERMS:
            raise BoundUnavailable(
                f"no truncation index up to {MAX_EVAL_TERMS} certifies tolerance {tol} "
                f"at |z| = {r}")
        try:
            t = w.tail_bound(N, r)
            if sup * t <= tol:
                bound = sup * t
                break
        except BoundUnavailable:
            pass
        except OverflowError as exc:
            raise NumericalError(
                f"tail bound overflows the double range at |z| = {r}") from exc
        N += 1
    s = 0.0 + 0.0j
    t = cmath.exp(-w.log_p(0))  # z^0 / p(0)
    for n in range(N + 1):
        s += f.u.value(n) * t
        t *= z * math.exp(w.log_p(n) - w.log_p(n + 1))
    if not cmath.isfinite(s):
        raise NumericalError(f"partial sum is not finite at |z| = {r}")
    return EvalResult(value=s, error_bound=bound, terms=N + 1)


# ---------------------------------------------------------------------------
# divisibility, gcd, ideals, corona


def _quotient(a, b, zero=False) -> np.ndarray:
    """_div(a, b), 0 where ``zero`` marks b = 0 = a.  Refused at the first
    index where it is 0 though a is not: Smith's method overflows its
    denominator near the top of the double range (1 / 1.7e308(1+i) gives 0,
    not 2.9e-309(1-i)), and a 0 would pass for an exact quotient."""
    q = np.where(zero, 0, _div(a, b))
    lost = (q == 0) & (a != 0)
    if lost.any():
        n = int(lost.argmax())
        raise NumericalError(f"quotient at index {n} underflows to 0: "
                             f"dividing by {complex(b[n])}", index=n)
    return q


def invertible(f: Element) -> Optional[tuple[float, Element]]:
    """(delta, inverse) when inf |u| = delta > 0, else None.

    The inverse has u_inv(n) = 1/u(n), so star(f, inverse) is the unit.
    """
    delta = inf_abs(f.u)
    if delta == 0.0:
        return None
    return delta, _element(f.weight, _quotient(1.0, f.u.array), f.u.period_start)


def not_invertible_witness(f: Element) -> NotInvertible:
    """Why f is not invertible: the first index n of least |u(n)|."""
    n = int(_abs(f.u.array).argmin())
    return NotInvertible(n, complex(f.u.array[n]))


@_silent
def divide(f: Element, g: Element) -> tuple[float, Element]:
    """Decide whether g divides f; return the least constant C and quotient h.

    Succeeds iff |u_f(n)| <= C |u_g(n)| for all n for some C, which on the
    joint window means: wherever u_g vanishes u_f must too.  Raises
    NotDivisible with the first violating index otherwise.
    """
    _same_weight(f, g)
    pl, (uf, ug) = _window(f, g)
    zero = ug == 0
    bad = zero & (uf != 0)
    if bad.any():
        raise NotDivisible(int(bad.argmax()))
    nz = ~zero
    C = float(np.max(_abs(uf[nz]) / _abs(ug[nz]), initial=0.0))
    return C, _element(f.weight, _quotient(uf, ug, zero), pl)


def gcd(fs: Sequence[Element]) -> Element:
    """Canonical greatest common divisor: u_d(n) = max_k |u_k(n)|.

    A gcd is unique only up to invertible factors; this fixes the real
    nonnegative representative.
    """
    if not fs:
        raise InvalidArgument("gcd needs at least one element")
    w = _same_weight(*fs)
    pl, us = _window(*fs)
    return _element(w, np.max([_abs(u) for u in us], axis=0), pl)


@_silent
def in_ideal(f: Element, gens: Sequence[Element]) -> tuple[float, list[Element]]:
    """Membership of f in the ideal generated by gens, with Bezout witnesses.

    Succeeds iff |u_f(n)| <= C sum_k |u_gk(n)| for all n.  The witnesses use
    the least-squares formula h_k = u_f * conj(u_gk) / sum_j |u_gj|^2 (zero
    where the denominator vanishes), so sum_k h_k * u_gk reproduces u_f.
    """
    if not gens:
        raise InvalidArgument("need at least one generator")
    w = _same_weight(f, *gens)
    pl, (uf, *ugs) = _window(f, *gens)
    s = sum(_abs(v) for v in ugs)
    zero = s == 0.0
    bad = zero & (uf != 0)
    if bad.any():
        raise NotInIdeal(int(bad.argmax()))
    nz = ~zero
    C = float(np.max(_abs(uf[nz]) / s[nz], initial=0.0))
    denom = _sq_moduli(ugs, zero)
    coeffs = [_element(w, np.where(zero, 0, _div(_mul(uf, v.conj()), denom)), pl)
              for v in ugs]
    return C, coeffs


@_silent
def corona_solve(fs: Sequence[Element]) -> tuple[float, list[Element]]:
    """Bezout identity sum g_i * f_i = unit under the corona condition.

    Succeeds iff delta := inf_n sum_i |u_fi(n)| > 0 (decided exactly on the
    window); the solution g_i = conj(u_fi) / sum_j |u_fj|^2 satisfies
    ||g_i|| <= n/delta (Cauchy-Schwarz; 1/delta alone fails already for
    constant moduli (2, 1)).
    """
    if not fs:
        raise InvalidArgument("need at least one element")
    w = _same_weight(*fs)
    pl, us = _window(*fs)
    s = sum(_abs(v) for v in us)
    zero = s == 0.0
    if zero.any():
        raise CoronaFails(int(zero.argmax()))
    denom = _sq_moduli(us, zero)
    gs = [_element(w, _div(v.conj(), denom), pl) for v in us]
    return float(s.min()), gs


# ---------------------------------------------------------------------------
# stable-rank constructions


def approx_invertible(f: Element, eps: float) -> Element:
    """Invertible g with ||g - f|| <= 2 eps, by thresholding small u-values.

    Positions with |u(n)| <= eps are replaced by eps, so inf |u_g| >= eps.
    """
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    u = f.u.array
    return _element(f.weight, np.where(_abs(u) > eps, u, complex(eps)),
                    f.u.period_start)


def bass_reduce(f1: Element, f2: Element, g1: Element, g2: Element,
                eps: float = 0.25) -> tuple[Element, Element]:
    """Reduce the unimodular pair (f1, f2): find h with f1 + h*f2 invertible.

    Requires the Bezout identity g1*f1 + g2*f2 = unit to hold exactly.
    The chain: u = 1 + |u_f1| (invertible), F1 = f1 * u^-1 (norm <= 1),
    G1 = g1 * u, H1 = thresholding of G1 at eps, h = H1^-1 * u * g2.
    Then f1 + h*f2 = H1^-1 * u * (unit + (H1 - G1) * F1) is invertible since
    ||(H1 - G1) * F1|| <= 2 eps < 1.
    """
    if not 0 < eps < 0.5:
        raise InvalidArgument("eps must lie in (0, 1/2)")
    w = _same_weight(f1, f2, g1, g2)
    bezout = add(star(g1, f1), star(g2, f2))
    if bezout.u != EPSeq.constant(1.0):
        raise PreconditionFailed("g1*f1 + g2*f2 is not exactly the unit")
    u_el = _element(w, 1.0 + _abs(f1.u.array), f1.u.period_start)
    g1u = star(g1, u_el)
    h1 = approx_invertible(g1u, eps)
    inv_h1 = invertible(h1)
    if inv_h1 is None:  # cannot happen: thresholding guarantees inf >= eps
        raise PreconditionFailed("thresholded element unexpectedly singular")
    _, h1_inv = inv_h1
    h = star(star(h1_inv, u_el), g2)
    witness = add(f1, star(h, f2))
    bad = [int(np.isfinite(u.array).argmin()) for u in (h.u, witness.u)
           if not np.isfinite(u.array).all()]
    if bad:
        raise NumericalError(f"h or the witness is not finite at index {min(bad)}",
                             index=min(bad))
    delta = inf_abs(witness.u)
    if delta <= 0.0:
        raise PreconditionFailed(
            "construction produced a non-invertible witness; "
            "the input identity was not a valid Bezout identity")
    return h, witness


# ---------------------------------------------------------------------------
# idempotents, exponentials, logarithms


def is_idempotent(f: Element) -> bool:
    """f * f == f, equivalently u(n) in {0, 1} for every n (exact)."""
    u = f.u.array
    return bool(np.all((u == 0) | (u == 1)))


def exp_el(f: Element) -> Element:
    """Exponential: u_{exp f}(k) = e^{u_f(k)}; invertible with
    inf |u| >= e^{-||f||}."""
    return Element(f.weight, _map(cmath.exp, f.u))


def log_el(g: Element) -> Element:
    """Principal logarithm of an invertible element: u_f(k) = Log u_g(k)
    with imaginary part in (-pi, pi].  exp_el(log_el(g)) recovers g and
    ||f|| <= sqrt(max(|log delta|, |log ||g|| |)^2 + pi^2).
    """
    if inf_abs(g.u) == 0.0:
        raise not_invertible_witness(g)
    return Element(g.weight, _map(cmath.log, g.u))
