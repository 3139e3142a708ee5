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
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coeffseq import (MAX_WINDOW, EPSeq, _abs, _complex, _div, _mul,
                       joint_shape, sup_abs)
from .errors import (BoundUnavailable, CoronaFails, InvalidArgument,
                     NotDivisible, NotInIdeal, NotInvertible, NumericalError,
                     PointwiseDomainError, WeightMismatch, WindowTooLarge)
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


def _scaled(us) -> tuple[np.ndarray, np.ndarray]:
    """e and the v_k = u_k * 2^-e (the u_k along the first axis of us), e the
    binary exponent of max_k max(|Re u_k|, |Im u_k|) at each position.  The
    largest part of the v_k is in [1/2, 1), so no product or sum of squared
    moduli of them over- or underflows to 0.  Scaling by 2^-e is exact: a
    witness formed from the v_k and scaled back keeps the bits of the
    unscaled formula wherever that one stayed in the normal range."""
    us = np.asarray(us)
    e = np.frexp(np.maximum(np.abs(us.real), np.abs(us.imag)).max(axis=0))[1]
    return e, _ldexp(us, -e)


def _ldexp(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    return _complex(np.ldexp(u.real, e), np.ldexp(u.imag, e))


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


def add(f: Element, g: Element) -> Element:
    _same_weight(f, g)
    pl, (a, b) = _window(f, g)
    return _element(f.weight, a + b, pl)


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


def _least(hit: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """The least N in [lo, hi] with hit(N), or None when there is none, for
    a hit that is false up to some index and true from there on.  Gallops
    (lo, lo + 2, lo + 6, lo + 14, ...) and bisects the last gap, so an
    answer k indices past lo costs O(log k) calls of hit."""
    below, step = lo - 1, 1
    while True:
        N = min(below + step, hi)
        if N <= below:
            return None
        if hit(N):
            break
        below, step = N, 2 * step
    while N - below > 1:  # hit(N) holds and hit(below) does not
        mid = (below + N) // 2
        if hit(mid):
            N = mid
        else:
            below = mid
    return N


def eval_at(f: Element, z: complex, tol: float = 1e-12) -> EvalResult:
    """Certified partial sum of f(z) = sum u(n)/p(n) z^n.

    The truncation index N <= MAX_EVAL_TERMS is the first index from
    w.tail_start(|z|) where sup|u| * tail_bound(N, |z|) certifies tol or
    overflows, as a scan would meet it, found in O(log N) calls of
    tail_bound.  One search finds the least N1 that the ratio test accepts
    (refused below it, accepted from it on).  Unless N1 decides, a second
    finds the least later N within tol or past the double range: past N1
    the bound at least halves per index, so the bounds above tol come
    first.  Terms are accumulated through the incremental ratio
    t_{n+1} = t_n * z * p(n)/p(n+1), avoiding raw weight values.
    """
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    w = f.weight
    try:
        r = abs(z)
    except OverflowError:  # |z| itself is past the double range
        r = math.inf
    sup = sup_abs(f.u)

    @functools.cache
    def bound(N):
        """sup * tail_bound(N, r); None below the ratio threshold, the
        OverflowError when it overflows."""
        try:
            return sup * w.tail_bound(N, r)
        except BoundUnavailable:
            return None
        except OverflowError as exc:
            return exc

    def done(N):
        b = bound(N)
        return isinstance(b, OverflowError) or b <= tol

    N = _least(lambda N: bound(N) is not None, w.tail_start(r, MAX_EVAL_TERMS),
               MAX_EVAL_TERMS)
    if N is not None and not done(N):
        N = _least(done, N + 1, MAX_EVAL_TERMS)
    if N is None:
        raise BoundUnavailable(
            f"no truncation index up to {MAX_EVAL_TERMS} certifies tolerance {tol} "
            f"at |z| = {r}")
    if isinstance(bound(N), OverflowError):
        raise NumericalError(
            f"tail bound overflows the double range at |z| = {r}") from bound(N)
    s = 0.0 + 0.0j
    lp = w.log_p(0)
    t = cmath.exp(-lp)  # z^0 / p(0)
    coeffs = itertools.chain(f.u.prefix, itertools.cycle(f.u.cycle))
    for n, c in zip(range(N + 1), coeffs):
        s += c * t
        lq = w.log_p(n + 1)
        t *= z * math.exp(lp - lq)
        lp = lq
    if not cmath.isfinite(s):
        raise NumericalError(f"partial sum is not finite at |z| = {r}")
    return EvalResult(value=s, error_bound=bound(N), terms=N + 1)


# ---------------------------------------------------------------------------
# divisibility, gcd, ideals, corona


def _quotient(a, b, shift, zero=False) -> np.ndarray:
    """_div(a, b) * 2^shift, 0 where ``zero`` marks b = 0 = a.  Refused at
    the first index where it is 0 though a is not (the shift underflows it):
    a 0 would pass for an exact quotient."""
    q = np.where(zero, 0, _ldexp(_div(a, b), shift))
    lost = (q == 0) & (a != 0)
    if lost.any():
        n = int(lost.argmax())
        raise NumericalError(f"quotient at index {n} underflows to 0", index=n)
    return q


def _delta(f: Element) -> float:
    """inf |u| > 0, else NotInvertible at the first index of least |u|."""
    a = _abs(f.u.array)
    n = int(a.argmin())
    if a[n] == 0.0:
        raise NotInvertible(n, complex(f.u.array[n]))
    return float(a[n])


def invertible(f: Element) -> tuple[float, Element]:
    """(delta, inverse) where inf |u| = delta > 0, else NotInvertible.

    The inverse u_inv(n) = 1/u(n), so star(f, inverse) is the unit, is
    formed as divide forms it: 2^-e / (u * 2^-e), e the exponent of u.
    """
    e, (v,) = _scaled([f.u.array])
    return _delta(f), _element(f.weight, _quotient(1.0, v, -e), f.u.period_start)


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
    # u_f and u_g are each scaled by their own power of two, so neither C nor
    # Smith's quotient overflows on the way; the shift is undone after dividing
    (ef, (uf,)), (eg, (ug,)) = _scaled([uf]), _scaled([ug])
    shift = ef - eg
    nz = ~zero
    C = float(np.max(np.ldexp(_abs(uf[nz]) / _abs(ug[nz]), shift[nz]), initial=0.0))
    return C, _element(f.weight, _quotient(uf, ug, shift, zero), pl)


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
    # the u_gk scaled together (the v_k) and u_f on its own, so neither C nor
    # u_f * conj(v_k) leaves the double range; undone after dividing
    (e, vs), (ef, (uf,)) = _scaled(ugs), _scaled([uf])
    shift = ef - e
    s = sum(_abs(v) for v in vs)
    zero = s == 0.0
    bad = zero & (uf != 0)
    if bad.any():
        raise NotInIdeal(int(bad.argmax()))
    nz = ~zero
    C = float(np.max(np.ldexp(_abs(uf[nz]) / s[nz], shift[nz]), initial=0.0))
    denom = sum(_mul(v.conj(), v).real for v in vs)
    hs = [np.where(zero, 0, _ldexp(_div(_mul(uf, v.conj()), denom), shift)) for v in vs]
    # every h_k underflowed to 0 though f is not 0: "member, C = 0" with a
    # zero witness would pass for an answer (as _quotient refuses for divide)
    if uf.any() and not np.any(hs):
        n = int(uf.nonzero()[0][0])
        raise NumericalError(f"Bezout witness at index {n} underflows to 0", index=n)
    return C, [_element(w, h, pl) for h in hs]


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
    e, vs = _scaled(us)
    denom = sum(_mul(v.conj(), v).real for v in vs)
    gs = [_ldexp(_div(v.conj(), denom), -e) for v in vs]
    return float(s.min()), [_element(w, g, pl) for g in gs]


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


def stable_rank_step(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's stable-rank-1 step at each position k, for a pivot a[k]
    and the entries b[k] below it: t[k] with a[k] + t[k] . b[k] =
    e^{i arg a[k]} (|a[k]| + rho) where |a[k]| < rho = ||b[k]||, and t[k] = 0
    elsewhere, so |t[k]| <= 1.  Where |a[k]| + rho leaves the double range,
    t[k] shrinks by 1 - |a[k]|/rho, lifting |a[k]| to rho >= (|a[k]| + rho)/2
    alone.  rho and t are formed from _scaled(b[k]), so neither over- nor
    underflows; where |a[k]| + rho is finite that keeps the bits of the
    unscaled formula."""
    e, v = _scaled(b.T)
    v = np.ascontiguousarray(v.T)  # the layout the norm's bits depend on
    rho, mod = np.linalg.norm(v, axis=1), np.abs(a)
    low = mod < np.ldexp(rho, e)
    rho = np.where(np.isinf(mod + np.ldexp(rho, e)),
                   rho / (1 - np.ldexp(mod, -e) / rho), rho)
    phase = np.exp(1j * np.angle(a))
    return np.where(low, phase / np.where(low, rho, 1.0), 0)[:, None] * v.conj()


def bass_reduce(f1: Element, f2: Element) -> tuple[Element, Element]:
    """Reduce the unimodular pair (f1, f2): h with f1 + h*f2 invertible.

    The pair is unimodular iff delta = inf (|u1| + |u2|) > 0; else CoronaFails
    names the first index where both vanish.  h is stable_rank_step(u1, u2),
    so ||h|| <= 1 and |f1 + h*f2| >= (|u1| + |u2|) / 2 >= delta / 2 at every
    position, which is checked (less 4 ulps) on the u_i and the witness
    scaled by 2^-e (_scaled), where the halves do not round; a witness past
    the double range passes it, and is refused where the answer is written.
    """
    w = _same_weight(f1, f2)
    pl, (u1, u2) = _window(f1, f2)
    e, (v1, v2) = _scaled([u1, u2])
    a = _abs(v1) + _abs(v2)
    if (a == 0.0).any():
        raise CoronaFails(int((a == 0.0).argmax()))
    h = stable_rank_step(u1, u2[:, None])[:, 0]
    wit = u1 + _mul(h, u2)
    low = _abs(_ldexp(wit, -e)) < a / 2 * (1 - 2.0 ** -50)
    if low.any():
        n = int(low.argmax())
        raise NumericalError(f"|f1 + h*f2| is below delta/2 at index {n}", index=n)
    return _element(w, h, pl), _element(w, wit, pl)


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
    _delta(g)
    return Element(g.weight, _map(cmath.log, g.u))
