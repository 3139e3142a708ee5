"""Weight sequences p : N_0 -> (0, oo) with super-exponential growth.

Two kinds serve the CLI: factorial and superexp b^(n^q).  Both satisfy the
defining growth condition lim p(n)^(1/n) = oo.  All internal arithmetic is in
log-space (log p(n)); raw values are materialized only on demand and report
overflow explicitly.

Each kind carries its own certified tail-bound rule for sums
sum_{n>N} r^n / p(n).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import BoundUnavailable, OverflowAtIndex, SchemaError

_LOG_MAX_DOUBLE = math.log(1.7976931348623157e308)
# the largest superexp power q: from q = 62 on, p(2) = b^(2^q) overflows the
# double range for every double b > 1, so no larger q could be evaluated past
# p(1), while exact-int powers n^q grow without bound
MAX_POWER = 64


@dataclass(frozen=True)
class Weight:
    """A named weight sequence.  Immutable; all methods are pure."""

    name: str
    kind: str  # "factorial" | "superexp"
    base: float = 0.0   # superexp only
    power: int = 0      # superexp only

    # -- evaluation --------------------------------------------------------

    def log_p(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be nonnegative")
        if self.kind == "factorial":
            return math.lgamma(n + 1)
        return (n ** self.power) * math.log(self.base)

    def p_eval(self, n: int) -> float:
        """p(n) as a double.  Presets are exact while representable."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        if self.kind == "factorial":
            if n > 170:  # 171! overflows the double range
                raise OverflowAtIndex(n)
            return float(math.factorial(n))
        try:
            representable = self.log_p(n) <= _LOG_MAX_DOUBLE
        except OverflowError:  # n^q itself is past the double range
            representable = False
        if not representable:
            raise OverflowAtIndex(n)
        return float(self.base) ** (n ** self.power)

    # -- tail bounds -------------------------------------------------------

    def tail_bound(self, N: int, r: float) -> float:
        """A certified T with sum_{n>N} r^n / p(n) <= T.

        Factorial: once r/(N+2) <= 1/2 the tail is dominated by the geometric
        series with ratio 1/2, giving T = 2 r^(N+1)/(N+1)!.  Super-exponential
        b^(n^q): consecutive term ratios r / b^((n+1)^q - n^q) decrease, so the
        same doubling trick applies once the first ratio is <= 1/2.  Raises
        BoundUnavailable below the ratio threshold (raise N and retry).
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if N < 0:
            raise ValueError("index must be nonnegative")
        if r == 0.0:
            return 0.0
        if self.kind == "factorial":
            if r / (N + 2) > 0.5:
                raise BoundUnavailable(
                    f"factorial tail bound needs r/(N+2) <= 1/2; got "
                    f"r={r}, N={N}")
            return 2.0 * math.exp((N + 1) * math.log(r) - math.lgamma(N + 2))
        logb = math.log(self.base)
        gap = (N + 2) ** self.power - (N + 1) ** self.power
        if math.log(r) - gap * logb > math.log(0.5):
            raise BoundUnavailable(
                f"superexp tail bound needs r/b^((N+2)^q-(N+1)^q) <= 1/2; "
                f"got r={r}, N={N}")
        return 2.0 * math.exp((N + 1) * math.log(r)
                              - ((N + 1) ** self.power) * logb)

    def tail_start(self, r: float, limit: int) -> int:
        """Where the search for a truncation index starts.  Factorial: the
        first N that tail_bound accepts at radius r (r/(N+2) <= 1/2, the same
        float test), or an N > limit when none up to limit does.  Superexp:
        0, as its threshold is found by algebra.eval_at's search, which
        calls tail_bound O(log N) times."""
        if self.kind != "factorial":
            return 0
        # 2r - 2 up to rounding; an r past the limit (or inf) lands past it
        N = max(0, math.ceil(2.0 * min(r, limit + 2.0)) - 2)
        while N and r / (N + 1) <= 0.5:
            N -= 1
        while N <= limit and r / (N + 2) > 0.5:
            N += 1
        return N


FACTORIAL = Weight(name="factorial", kind="factorial")


def superexp(base: float = 2.0, power: int = 2) -> Weight:
    if not base > 1.0:
        raise SchemaError("superexp base must exceed 1")
    if math.isinf(base):
        raise SchemaError("superexp base must be finite")
    if power < 2:
        raise SchemaError("superexp power must be at least 2")
    if power > MAX_POWER:
        raise SchemaError(f"superexp power must be at most {MAX_POWER}")
    # strip a trailing ".0" so superexp:b=2,q=2 round-trips through its name
    b = int(base) if float(base).is_integer() else base
    return Weight(name=f"superexp:b={b},q={power}", kind="superexp",
                  base=float(base), power=int(power))


_SUPEREXP_RE = re.compile(r"^superexp:b=([0-9.]+),q=([0-9]+)$")


def from_name(name: str) -> Weight:
    if not isinstance(name, str):
        raise SchemaError(f"weight must be a name string, got {name!r}")
    if name == "factorial":
        return FACTORIAL
    m = _SUPEREXP_RE.match(name)
    if m:
        try:  # "." is no number, nor an int past 4300 digits
            base, power = float(m.group(1)), int(m.group(2))
        except ValueError as exc:
            raise SchemaError(f"bad weight name {name!r}: {exc}") from None
        return superexp(base, power)
    raise SchemaError(f"unknown weight name {name!r}")


def known_weights() -> list[str]:
    return ["factorial", "superexp:b=<base>,q=<power>"]
