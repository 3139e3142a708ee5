"""Index-order machinery, Krull-dimension witnesses, chain witnesses, and the
coherence annihilator.

Membership in the limit-defined ideals (the I_n / M_n families and the
non-fixed ideal of subsequence type) is *not* decidable from finitely many
coefficients; this module never fakes a boolean where only a sample exists.
The one genuinely decidable case (an EPSeq sampled along a single cycle
residue) gets an exact verdict.  The index-order functions read an EPSeq,
not an Element, through its window array.  The Krull witness f_n is not
periodic, so it is read off its zero blocks alone: no function here reads
the rule-generated sequence class of ``coeffseq``, which stays only because
``perfbench/spans.py`` patches it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import algebra
from .algebra import Element
from .coeffseq import MAX_WINDOW, EPSeq, _abs
from .errors import InvalidArgument
from .weights import Weight

INFINITE = math.inf
# the largest witness exponent n: block ends 2^k + k^(n+1) stay under 90
# digits up to a horizon of MAX_WINDOW = 2^20
MAX_N = 64


@dataclass(frozen=True)
class IndexOrderReport:
    """Length of the vanishing-coefficient run starting at index k.

    ``m`` is the run length (0 when u(k) != 0, inf for an everywhere-zero
    tail), always decided exactly from the sequence structure.
    """

    k: int
    m: float

    def to_json(self) -> dict:
        return {"k": self.k,
                "m": "inf" if math.isinf(self.m) else int(self.m),
                "flag": "exact"}


def _position(u: EPSeq, k: int) -> int:
    """The window position holding u(k): k inside the prefix, else the
    cycle residue of k."""
    L = u.period_start
    return k if k < L else L + (k - L) % (len(u.array) - L)


def index_order(u: EPSeq, k: int) -> IndexOrderReport:
    """m(u, k): maximal m with u(k + l) = 0 for 0 <= l <= m - 1.

    Exact: the run either hits a nonzero within one full cycle past the
    prefix, or the cycle is identically zero and the run is infinite.  Any k
    reduces to its window position first, so one scan of at most a window
    decides it.
    """
    if k < 0:
        raise InvalidArgument(f"k must be nonnegative, got {k}")
    start = _position(u, k)
    c = len(u.array) - u.period_start
    nonzero = np.flatnonzero(u.take(max(start, u.period_start) + c)[start:])
    return IndexOrderReport(k, int(nonzero[0]) if len(nonzero) else INFINITE)


# ---------------------------------------------------------------------------
# the Krull-dimension witness family


def zero_blocks(n: int, horizon: int) -> list[tuple[int, int]]:
    """The zero blocks [2^k, 2^k + k^(n+1)] of f_n for 2^k <= horizon, in
    increasing order (unmerged: consecutive blocks may overlap or touch).
    Refuses n above MAX_N and horizons above coeffseq.MAX_WINDOW."""
    if n < 1:
        raise InvalidArgument(f"n must be positive, got {n}")
    if n > MAX_N:
        raise InvalidArgument(f"n must be at most {MAX_N}, got {n}")
    if horizon < 4:
        raise InvalidArgument(f"horizon must be at least 4, got {horizon}")
    if horizon > MAX_WINDOW:
        raise InvalidArgument(f"horizon must be at most {MAX_WINDOW}, got {horizon}")
    return [(1 << k, (1 << k) + k ** (n + 1)) for k in range(horizon.bit_length())]


def _zero_runs(n: int, horizon: int) -> tuple[list[int], list[int]]:
    """The zero blocks of f_n merged into maximal runs [los[i], his[i]],
    in increasing order; validates as zero_blocks does."""
    los: list[int] = []
    his: list[int] = []
    for lo, hi in zero_blocks(n, horizon):
        if his and lo <= his[-1] + 1:   # overlapping or adjacent: one run
            his[-1] = hi                # block ends increase with k
        else:
            los.append(lo)
            his.append(hi)
    return los, his


def krull_trajectory(n: int, horizon: int = 1 << 14) -> list[tuple[int, float]]:
    """Ratios m(f_n, 2^k) / k^(n+1) for k >= 1 with 2^k <= horizon, read off
    the merged zero runs of f_n: one bisect per scale 2^k in place of a scan
    over the zero indices.  That scan, of the witness up to the horizon, is
    the reference in tests/loop_reference.py.

    The scale s lies in the run [lo, hi] or in none, and the scan would stop
    at the first nonzero min(hi, horizon) + 1 (horizon + 1 for a run still
    open at the horizon), so m(f_n, s) = min(hi, horizon) + 1 - s, or 0.
    """
    los, his = _zero_runs(n, horizon)
    out = []
    for k in range(1, horizon.bit_length()):
        s = 1 << k
        i = bisect.bisect_right(los, s) - 1
        m = min(his[i], horizon) + 1 - s if i >= 0 and s <= his[i] else 0
        out.append((k, m / (k ** (n + 1))))
    return out


# ---------------------------------------------------------------------------
# coherence


def annihilator_generator(f: Element) -> Element:
    """The generator chi of the annihilator ideal {h : f * h = 0}:
    u_chi = indicator of the zero set of u_f.  Then f * chi = 0 exactly and
    every annihilating h is a multiple of chi with constant ||h||."""
    chi = np.where(f.u.array == 0, 1.0, 0.0)
    return Element(f.weight, EPSeq.from_values(chi, f.u.period_start))


# ---------------------------------------------------------------------------
# chain witnesses


@dataclass(frozen=True)
class ChainReport:
    kind: str
    n: int
    witness_degree: int
    in_larger: bool      # f_n lies in the ideal it should
    outside_smaller: bool

    @property
    def ok(self) -> bool:
        return self.in_larger and self.outside_smaller

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n,
                "witness": f"z^{self.witness_degree}",
                "in_larger": self.in_larger,
                "outside_smaller": self.outside_smaller}


def chain_witness(kind: str, n: int, w: Weight) -> tuple[Element, ChainReport]:
    """Monomial witnesses for the strict ideal chains.

    Ascending ("noetherian"): with I_n = {f : fhat(k) = 0 for k >= n},
    f_n = z^n lies in I_{n+1} but not I_n.  Descending ("artinian"): with
    I_n = {f : fhat(k) = 0 for k <= n}, f_n = z^{n+1} lies in I_n but not
    I_{n+1}.  The report verifies both memberships by coefficient scans.
    """
    if n < 1:
        raise InvalidArgument(f"n must be positive, got {n}")
    kind = kind.lower()
    if kind not in ("noetherian", "artinian"):
        raise InvalidArgument("kind must be 'noetherian' or 'artinian'")
    deg = n if kind == "noetherian" else n + 1
    f = algebra.monomial(w, deg)
    v = f.u.take(f.u.rep_len + 2)
    if kind == "noetherian":
        # f in I_{n+1}: coefficients vanish from n+1 on (scan one past the window)
        in_larger = not v[n + 1:].any()
    else:
        in_larger = not v[:n + 1].any()
    outside = bool(v[deg] != 0)
    return f, ChainReport(kind, n, deg, in_larger, outside)


# ---------------------------------------------------------------------------
# non-fixed ideal diagnostics


@dataclass(frozen=True)
class TrajectoryReport:
    values: list[float]
    verdict: Optional[bool]   # in the ideal? None when undecidable

    def to_json(self) -> dict:
        return {"values": self.values, "certified": "exact",
                "verdict": self.verdict}


def nonfixed_ideal_trajectory(u: EPSeq, ks: Sequence[int]) -> TrajectoryReport:
    """|u(k_n)| along a subsequence: the quantity whose vanishing limit
    defines membership in the subsequence ideal.

    Advisory in general.  For indices that eventually stay on one cycle
    residue the limit is the constant cycle value, so an exact verdict is
    emitted.
    """
    ks = list(ks)
    for a, b in zip(ks, ks[1:]):
        if b <= a:
            raise InvalidArgument(f"ks must be strictly increasing, got {a} then {b}")
    if ks and ks[0] < 0:
        raise InvalidArgument(f"ks must be nonnegative, got {ks[0]}")
    pos = [_position(u, k) for k in ks]
    vals = _abs(u.array[pos]).tolist()  # inf past the double range, as in norm
    residues = {p for p in pos if p >= u.period_start}
    verdict = bool(u.array[residues.pop()] == 0) if len(residues) == 1 else None
    return TrajectoryReport(vals, verdict)
