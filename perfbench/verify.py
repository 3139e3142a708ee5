"""Independent checks of the program's output documents.

Nothing here imports hadalg: every answer is recomputed from the input
document with numpy, cmath, decimal and integer arithmetic, and compared with
what the CLI wrote.  ``check(request, code, rundir)`` returns one of

    ("ok", None, "")             the exit code and the output are right
    ("known", label, message)    a failure of a documented kind (below)
    ("fail", None, message)      any other failure

Known kinds are failures all the same: they count in the workload's failed
requests.  They are told apart only so that a new kind of wrong answer makes
the run incorrect, while these documented defects stay visible as a failure
count instead of hiding the rest of the benchmark:

    eval-nonfinite             elem eval exits 0 with a NaN/inf value for |z|
                               past about 710 on factorial elements
    eval-overflow-traceback    elem eval dies with an uncaught OverflowError
                               from weights.tail_bound for |z| >= 1164
    eval-bound-omits-rounding  elem eval's error bound covers the truncated
                               tail only; the rounding of the double-precision
                               partial sum exceeds it
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

U = 2.0 ** -53
LOG_MAX = math.log(1.7976931348623157e308)
SUPEREXP = "superexp:b=2,q=2"

class Failed(Exception):
    """A failed check; ``label`` names a known defect, if it is one."""

    def __init__(self, message: str, label: str | None = None):
        super().__init__(message)
        self.label = label


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    norm = float(np.linalg.norm(A, 1))
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    X = A / 2.0 ** s
    term = np.eye(n, dtype=complex)
    out = term.copy()
    for k in range(1, 20):
        term = term @ X / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# documents


def cabs(a: np.ndarray) -> np.ndarray:
    """|a| as Python's abs(complex) computes it (np.abs differs by an ulp)."""
    return np.hypot(a.real, a.imag)


def _cvec(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float).reshape(-1, 2)
    out = np.empty(len(a), dtype=complex)
    out.real = a[:, 0]
    out.imag = a[:, 1]
    return out


def seq(obj) -> tuple[np.ndarray, np.ndarray]:
    """(prefix, cycle) of a sequence document."""
    cycle = _cvec(obj["cycle"])
    if not len(cycle):
        raise Failed("empty cycle in an output sequence")
    return _cvec(obj.get("prefix", [])), cycle


def element(obj) -> tuple[np.ndarray, np.ndarray]:
    return seq(obj["normalized"])


def values(s, idx: np.ndarray) -> np.ndarray:
    prefix, cycle = s
    out = cycle[(idx - len(prefix)) % len(cycle)]
    if len(prefix):
        m = idx < len(prefix)
        out[m] = prefix[idx[m]]
    return out


def window(*seqs) -> list[np.ndarray]:
    """Values of every sequence over one joint representative window."""
    L = max(len(p) for p, _ in seqs)
    c = math.lcm(*(len(cy) for _, cy in seqs))
    idx = np.arange(L + c)
    return [values(s, idx) for s in seqs]


def matrix_seqs(doc) -> tuple[list, int, int]:
    rows = doc["entries"]
    return [seq(cell) for row in rows for cell in row], len(rows), len(rows[0])


def stacks(*docs) -> list[np.ndarray]:
    """Matrix documents as (P, m, n) stacks over their joint window."""
    parts = [matrix_seqs(d) for d in docs]
    vals = window(*(s for seqs, _, _ in parts for s in seqs))
    out, at = [], 0
    for seqs, m, n in parts:
        block = np.array(vals[at:at + m * n])      # (m*n, P)
        out.append(block.T.reshape(-1, m, n))
        at += m * n
    return out


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failed(message)


def _code(code, want: int) -> None:
    _expect(code == want, f"expected exit {want}, got {code!r}")


def _witness(req, code, out, index: int | None) -> bool:
    """True when a witness (exit 2) is expected and was produced correctly."""
    planted = req["expect"].get("planted_index")
    _expect(planted == index, f"generator planted {planted!r} but the first "
                              f"failing index is {index!r}")
    if index is None:
        return False
    _code(code, 2)
    got = out["witness"]["index"]
    _expect(got == index, f"witness index {got!r}, expected {index}")
    return True


def _first(mask: np.ndarray) -> int | None:
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


# ---------------------------------------------------------------------------
# scalar-window


def _corona(req, doc, code, out):
    fs = [element(e) for e in doc["elements"]]
    us = window(*fs)
    s = sum(cabs(u) for u in us)
    if _witness(req, code, out, _first(s == 0)):
        return
    _code(code, 0)
    gs = [element(g) for g in out["solution"]]
    vals = window(*fs, *gs)
    us, gv = vals[:len(fs)], vals[len(fs):]
    resid = np.max(cabs(sum(g * u for g, u in zip(gv, us)) - 1))
    _expect(resid <= 1e-12, f"Bezout residual {resid:.3e}")
    _expect(_close(out["delta"], float(np.min(s)), 1e-14), "delta differs")


def _ideal_member(req, doc, code, out):
    f = element(doc["f"])
    gens = [element(g) for g in doc["generators"]]
    vals = window(f, *gens)
    uf, ug = vals[0], vals[1:]
    s = sum(cabs(g) for g in ug)
    if _witness(req, code, out, _first((s == 0) & (uf != 0))):
        return
    _code(code, 0)
    hs = [element(h) for h in out["coefficients"]]
    vals = window(f, *gens, *hs)
    uf, ug, uh = vals[0], vals[1:1 + len(gens)], vals[1 + len(gens):]
    resid = cabs(sum(h * g for h, g in zip(uh, ug)) - uf)
    scale = cabs(uf) + sum(cabs(h) * cabs(g) for h, g in zip(uh, ug))
    _expect(bool(np.all(resid <= 1e-13 * scale)),
            f"Bezout residual {np.max(resid):.3e}")
    pos = s > 0
    C = float(np.max(cabs(uf[pos]) / s[pos])) if pos.any() else 0.0
    _expect(_close(out["C"], C, 1e-14), f"C = {out['C']}, expected {C}")


def _divide(req, doc, code, out):
    f, g = element(doc["f"]), element(doc["g"])
    uf, ug = window(f, g)
    if _witness(req, code, out, _first((ug == 0) & (uf != 0))):
        return
    _code(code, 0)
    uf, ug, uh = window(f, g, element(out["quotient"]))
    nz = ug != 0
    _expect(bool(np.all(uh[~nz] == 0)), "quotient nonzero where g vanishes")
    prod = uh[nz] * ug[nz]
    if req["expect"]["kind"] == "exact":
        _expect(bool(np.all(prod == uf[nz])), "h * g differs from f (exact input)")
    else:
        err = cabs(prod - uf[nz])
        _expect(bool(np.all(err <= 1e-14 * cabs(uf[nz]))),
                f"h * g differs from f by {np.max(err):.3e}")
    C = float(np.max(cabs(uf[nz]) / cabs(ug[nz]))) if nz.any() else 0.0
    _expect(_close(out["C"], C, 1e-15), f"C = {out['C']}, expected {C}")


def _gcd(req, doc, code, out):
    fs = [element(e) for e in doc["elements"]]
    _code(code, 0)
    vals = window(*fs, element(out["gcd"]))
    want = np.max(cabs(np.array(vals[:-1])), axis=0)
    _expect(bool(np.all(vals[-1] == want)), "gcd differs from max_k |u_k|")


def _invert(req, doc, code, out):
    f = element(doc)
    (u,) = window(f)
    if _witness(req, code, out, _first(u == 0)):
        return
    _code(code, 0)
    u, h = window(f, element(out["inverse"]))
    prod = u * h
    if req["expect"]["kind"] == "exact":
        _expect(bool(np.all(prod == 1)), "u * inverse differs from 1 (exact input)")
    else:
        err = float(np.max(cabs(prod - 1)))
        _expect(err <= 1e-15, f"u * inverse differs from 1 by {err:.3e}")
    _expect(_close(out["delta"], float(np.min(cabs(u))), 2 * U), "delta differs")


def _log(req, doc, code, out):
    f = element(doc)
    (u,) = window(f)
    if _witness(req, code, out, _first(u == 0)):
        return
    _code(code, 0)
    u, lg = window(f, element(out["log"]))
    err = cabs(np.exp(lg) - u)
    _expect(bool(np.all(err <= 1e-14 * cabs(u))),
            f"exp(log u) differs from u by {np.max(err):.3e}")
    _expect(bool(np.all((lg.imag > -math.pi) & (lg.imag <= math.pi))),
            "log outside the principal branch")
    _expect(_close(out["norm"], float(np.max(cabs(lg))), 2 * U), "norm differs")


def _exp(req, doc, code, out):
    f = element(doc)
    _code(code, 0)
    u, e = window(f, element(out["exp"]))
    want = np.exp(u)
    err = cabs(e - want)
    _expect(bool(np.all(err <= 1e-14 * cabs(want))),
            f"exp differs by {np.max(err):.3e}")


def _approx_invert(req, doc, code, out):
    eps = float(req["argv"][req["argv"].index("--eps") + 1])
    f = element(doc)
    _code(code, 0)
    u, g = window(f, element(out["result"]))
    want = np.where(cabs(u) > eps, u, complex(eps))
    _expect(bool(np.all(g == want)), "thresholded values differ")
    dist = float(np.max(cabs(g - u)))
    _expect(out["eps"] == eps, "eps differs")
    _expect(_close(out["distance"], dist, 2 * U) and dist <= 2 * eps,
            f"distance {out['distance']} vs {dist}")


def _idempotent(req, doc, code, out):
    (u,) = window(element(doc))
    _code(code, 0)
    want = bool(np.all((u == 0) | (u == 1)))
    _expect(out["idempotent"] is want, f"idempotent {out['idempotent']}, expected {want}")


def _norm(req, doc, code, out):
    (u,) = window(element(doc))
    _code(code, 0)
    _expect(_close(out["norm"], float(np.max(cabs(u))), 2 * U), "norm differs")


# ---------------------------------------------------------------------------
# matrix-positions


def _mul(req, doc, code, out):
    _code(code, 0)
    A, B, C = stacks(doc["A"], doc["B"], out["product"])
    err = np.abs(C - A @ B)
    tol = 1e-14 * (np.abs(A) @ np.abs(B))
    _expect(bool(np.all(err <= tol)), f"product differs by {np.max(err):.3e}")


def _det(req, doc, code, out):
    _code(code, 0)
    seqs, n, _ = matrix_seqs(doc)
    vals = window(*seqs, element(out["det"]))
    A = np.array(vals[:-1]).T.reshape(-1, n, n)
    # the cofactor sum's rounding is bounded by its terms, and every term is
    # bounded by the product of the row 1-norms
    scale = np.prod(np.sum(np.abs(A), axis=2), axis=1)
    err = np.abs(vals[-1] - np.linalg.det(A))
    _expect(bool(np.all(err <= 1e-13 * scale)), f"det differs by {np.max(err):.3e}")


def _solve(req, doc, code, out):
    A, b = stacks(doc["A"], doc["b"])
    planted = req["expect"].get("planted_position")
    if planted is not None:
        _code(code, 2)
        w = out["witness"]
        _expect(w["position"] == planted,
                f"inconsistent at {w['position']}, planted at {planted}")
        y = _cvec(w["y"])
        Ak, bk = A[planted], b[planted, :, 0]
        _expect(float(np.linalg.norm(y.conj() @ Ak)) <= 1e-9 * np.linalg.norm(Ak),
                "y^H A is not zero")
        _expect(abs(y.conj() @ bk) > 1e-9 * np.linalg.norm(bk), "y^H b is zero")
        return
    _code(code, 0)
    A, b, x = stacks(doc["A"], doc["b"], out["x"])
    resid = np.linalg.norm(A @ x - b, axis=(1, 2))
    smax = np.linalg.norm(A, 2, axis=(1, 2))
    xn = np.linalg.norm(x, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(b, axis=(1, 2)) + smax * xn)
    _expect(bool(np.all(resid <= 2e-10 * scale)), f"residual {np.max(resid):.3e}")
    supx = float(np.max(xn))
    want = "inf" if supx == 0 else 1.0 / supx
    _expect(out["delta"] == want or _close(out["delta"], want, 1e-12),
            f"delta {out['delta']} vs {want}")


def _mat_exp(req, doc, code, out):
    _code(code, 0)
    B, E = stacks(doc, out["exp"])
    for k in range(len(B)):
        ref = expm(B[k])
        err = float(np.max(np.abs(E[k] - ref)))
        _expect(err <= 1e-11 * max(1.0, float(np.max(np.abs(ref)))),
                f"exp differs by {err:.3e} at position {k}")


def _mat_log(req, doc, code, out):
    _code(code, 0)
    A, Lg = stacks(doc, out["log"])
    for k in range(len(A)):
        err = float(np.max(np.abs(expm(Lg[k]) - A[k])))
        _expect(err <= 1e-8, f"expm(log A) differs by {err:.3e} at position {k}")


def _sl_factor(req, doc, code, out):
    _code(code, 0)
    seqs, n, _ = matrix_seqs(doc)
    factors = out["factors"]
    vals = window(*seqs, *(element(f["alpha"]) for f in factors))
    A = np.array(vals[:len(seqs)]).T.reshape(-1, n, n)
    prod = np.broadcast_to(np.eye(n, dtype=complex), A.shape).copy()
    for f, alpha in zip(factors, vals[len(seqs):]):
        E = np.broadcast_to(np.eye(n, dtype=complex), A.shape).copy()
        E[:, f["i"], f["j"]] += alpha
        prod = prod @ E
    err = float(np.max(np.abs(prod - A)))
    tol = out["verification"]["tol"]
    _expect(out["verification"]["max_error"] <= tol, "reported error above tol")
    _expect(err <= tol + 1e-11, f"factor product differs by {err:.3e}")


def _norm_bounds(req, doc, code, out):
    _code(code, 0)
    (A,) = stacks(doc)
    S = float(np.max(np.linalg.norm(A, 2, axis=(1, 2))))
    upper = max(A.shape[1:]) * float(np.max(cabs(A)))
    _expect(_close(out["spectral_sup"], S, 1e-13), f"spectral sup {out['spectral_sup']} vs {S}")
    _expect(_close(out["entry_bound"], upper, 2 * U), "entry bound differs")


# ---------------------------------------------------------------------------
# series-horizon


def _log_p(weight: str, n: int) -> float:
    return math.lgamma(n + 1) if weight == "factorial" else n * n * math.log(2.0)


def _p_step(weight: str, n: int) -> int:
    """p(n + 1) / p(n), an integer for both weights used here."""
    return n + 1 if weight == "factorial" else 2 ** (2 * n + 1)


def _value_fn(s):
    prefix, cycle = s

    def value(n: int) -> complex:
        if n < len(prefix):
            return complex(prefix[n])
        return complex(cycle[(n - len(prefix)) % len(cycle)])

    return value


def reference_sum(weight: str, value, z: complex, terms: int, digits: int) -> complex:
    """sum_{n < terms} u(n) z^n / p(n) in decimal arithmetic of ``digits``."""
    with localcontext() as ctx:
        ctx.prec = digits
        zr, zi = Decimal(z.real), Decimal(z.imag)
        wr, wi = Decimal(1), Decimal(0)        # z^n / p(n), with p(0) = 1
        sr, si = Decimal(0), Decimal(0)
        for n in range(terms):
            v = value(n)
            ur, ui = Decimal(v.real), Decimal(v.imag)
            sr += ur * wr - ui * wi
            si += ur * wi + ui * wr
            step = _p_step(weight, n)
            wr, wi = (wr * zr - wi * zi) / step, (wr * zi + wi * zr) / step
        return complex(float(sr), float(si))


def _eval(req, doc, code, out):
    weight = doc["weight"]
    _expect(weight in ("factorial", SUPEREXP), f"unsupported weight {weight}")
    s = element(doc)
    value = _value_fn(s)
    z = complex(req["expect"]["z"])
    r = abs(z)
    sup = float(max(np.max(np.abs(s[1])), np.max(np.abs(s[0]), initial=0.0)))
    # the largest term sup |u| r^n / p(n), in log space
    n_peak = max(1, int(r)) if weight == "factorial" else 64
    log_peak = max(math.log(sup) + n * math.log(r) - _log_p(weight, n)
                   for n in range(n_peak + 2)) if r > 0 else math.log(sup)
    overflow = log_peak > LOG_MAX - 1.0
    if code == "OverflowError":
        raise Failed("uncaught OverflowError",
                     "eval-overflow-traceback" if overflow else None)
    if code == 4:
        # refusing is right when a double sum cannot carry the value
        _expect(overflow or math.exp(log_peak) * 1e4 * U > 1e-10,
                "refused an evaluation a double sum certifies")
        return
    _code(code, 0)
    v = complex(*out["value"])
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise Failed(f"non-finite value {v}", "eval-nonfinite" if overflow else None)
    bound, terms = out["error_bound"], out["terms"]
    _expect(0 <= bound <= 1e-10, f"error bound {bound} exceeds --tol")
    # past the program's last term the tail ratios are <= 1/2 (factorial)
    # or far smaller (superexp): 80 more terms reach 2^-80 * bound
    digits = 40 + max(0, int(log_peak / math.log(10)))
    ref = reference_sum(weight, value, z, terms + 80, digits)
    err = abs(v - ref)
    if err <= bound + 4 * U * abs(ref):
        return
    abs_terms = sum(math.exp(math.log(abs(value(n))) + n * math.log(r)
                             - _log_p(weight, n))
                    for n in range(terms) if value(n) != 0) if r > 0 else sup
    rounding = 8 * terms * U * abs_terms
    raise Failed(f"|value - reference| = {err:.3e} > error_bound {bound:.3e} "
                 f"(rounding allowance {rounding:.3e})",
                 "eval-bound-omits-rounding" if err <= bound + rounding else None)


def _blocks(n: int, horizon: int) -> list[tuple[int, int]]:
    out, k = [], 0
    while (1 << k) <= horizon:
        out.append(((1 << k), (1 << k) + k ** (n + 1)))
        k += 1
    return out


def _zero_run(start: int, blocks, horizon: int) -> int:
    """Length of the zero run from start, scanning indices up to horizon."""
    cur, moved = start, True
    while moved:
        moved = False
        for lo, hi in blocks:
            if lo <= cur <= hi:
                cur, moved = hi + 1, True
    return horizon - start + 1 if cur > horizon else cur - start


def _krull_trajectory(req, code, out):
    n, h = req["expect"]["n"], req["expect"]["horizon"]
    _code(code, 0)
    blocks = _blocks(n, h)
    want, k = [], 1
    while (1 << k) <= h:
        want.append([k, _zero_run(1 << k, blocks, h) / (k ** (n + 1))])
        k += 1
    _expect(out["ratios"] == want, "trajectory ratios differ from block arithmetic")
    _expect((out["n"], out["exponent"], out["certified"]) == (n, n + 1, "horizon"),
            "trajectory header differs")


def _canonical(prefix: list, cycle: list) -> tuple[list, list]:
    c = len(cycle)
    d = next(d for d in range(1, c + 1) if c % d == 0 and cycle == cycle[:d] * (c // d))
    cycle = cycle[:d]
    while prefix and prefix[-1] == cycle[-1]:
        prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
    return prefix, cycle


def _ks_trajectory(req, doc, code, out):
    _code(code, 0)
    prefix, cycle = (list(map(complex, a)) for a in element(doc))
    value = _value_fn((prefix, cycle))
    ks = req["expect"]["ks"]
    prefix, cycle = _canonical(prefix, cycle)
    tail = [k for k in ks if k >= len(prefix)]
    residues = {(k - len(prefix)) % len(cycle) for k in tail}
    verdict = abs(cycle[residues.pop()]) == 0.0 if len(residues) == 1 else None
    want = {"values": [abs(value(k)) for k in ks], "certified": "exact",
            "verdict": verdict}
    _expect(out == want, f"trajectory {out} differs from {want}")


def _trajectory(req, doc, code, out):
    if doc is None:
        _krull_trajectory(req, code, out)
    else:
        _ks_trajectory(req, doc, code, out)


def _krull_family(req, doc, code, out):
    n, h = req["expect"]["n"], req["expect"]["horizon"]
    _code(code, 0)
    blocks = _blocks(n, h)
    sample = [0.0 if any(lo <= m <= hi for lo, hi in blocks) else 1.0
              for m in range(min(64, h + 1))]
    want = {"n": n, "horizon": h, "zero_blocks": [list(b) for b in blocks],
            "sample": sample, "certified": "horizon"}
    _expect(out == want, "krull family differs from block arithmetic")


def _chain(req, doc, code, out):
    e = req["expect"]
    deg = e["n"] if e["kind"] == "noetherian" else e["n"] + 1
    if e["weight"] == "factorial":
        p = float(math.factorial(deg)) if deg <= 170 else None
    else:
        p = 2.0 ** (deg * deg) if deg * deg < 1024 else None
    if p is None:
        _code(code, 4)
        return
    _code(code, 0)
    head = {k: out[k] for k in ("kind", "n", "witness", "in_larger", "outside_smaller")}
    _expect(head == {"kind": e["kind"], "n": e["n"], "witness": f"z^{deg}",
                     "in_larger": True, "outside_smaller": True},
            f"chain report {head} differs")
    _expect(out["witness_element"]["weight"] == e["weight"], "witness weight differs")
    (u,) = window(element(out["witness_element"]))
    want = np.zeros(len(u), dtype=complex)
    want[deg] = p
    _expect(bool(np.all(u == want)), "witness is not p(deg) z^deg")


def _index_order(req, doc, code, out):
    _code(code, 0)
    prefix, cycle = element(doc)
    value = _value_fn((prefix, cycle))
    k = req["expect"]["k"]
    end = max(k, len(prefix)) + len(cycle)
    m = next((n - k for n in range(k, end) if value(n) != 0), "inf")
    _expect(out == {"k": k, "m": m, "flag": "exact"}, f"index order {out}, expected m = {m}")


CHECKS = {
    "elem corona": _corona, "elem ideal-member": _ideal_member,
    "elem divide": _divide, "elem gcd": _gcd, "elem invert": _invert,
    "elem log": _log, "elem exp": _exp, "elem approx-invert": _approx_invert,
    "elem idempotent": _idempotent, "elem norm": _norm,
    "mat mul": _mul, "mat det": _det, "mat solve": _solve, "mat exp": _mat_exp,
    "mat log": _mat_log, "mat sl-factor": _sl_factor,
    "mat norm-bounds": _norm_bounds,
    "elem eval": _eval, "ideal trajectory": _trajectory,
    "ideal krull-family": _krull_family, "ideal chain": _chain,
    "ideal index-order": _index_order,
}


def check(req: dict, code, rundir: Path, out_path: Path) -> tuple[str, str | None, str]:
    """Classify one request's outcome; see the module docstring."""
    try:
        doc = json.loads((rundir / req["doc"]).read_text()) if req["doc"] else None
        out = None
        if code in (0, 2):
            out = json.loads(out_path.read_text())
        CHECKS[req["op"]](req, doc, code, out)
    except Failed as exc:
        return ("known" if exc.label else "fail"), exc.label, str(exc)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return "fail", None, f"malformed output: {type(exc).__name__}: {exc}"
    return "ok", None, ""
