"""Tuple-and-loop versions of the sequence scans, kept as the reference that
the array path in ``hadalg`` must reproduce bit for bit.

A sequence here is a ``(prefix, cycle)`` pair of tuples of Python ``complex``;
every arithmetic step is Python's own complex arithmetic, position by
position, exactly as the package computed it before sequences were stored as
complex128 arrays.  Functions return canonical ``(prefix, cycle)`` pairs, and
raise the package's errors with the same indices.
"""

import bisect
import cmath
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from hadalg import algebra, ideals, matalg
from hadalg.coeffseq import EPSeq, GenSeq, _take, joint_shape
from hadalg.errors import (BoundUnavailable, CoronaFails, DimensionMismatch,
                           HorizonExceeded, InvalidArgument, NotDivisible,
                           NotInGL, NotInIdeal, NotInvertible, NumericalError,
                           OffBranch, PointwiseDomainError, WeightMismatch)
from hadalg.matalg import from_ustack


def canonical(prefix, cycle):
    return canonical_items(tuple(complex(v) for v in prefix),
                           tuple(complex(v) for v in cycle))


def canonical_items(prefix, cycle):
    """canonical() over values of any kind compared with ==, such as
    matrices written as tuples of rows."""
    if not cycle:
        raise ValueError("cycle must be nonempty")
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            cycle = cycle[:d]
            break
    while prefix and prefix[-1] == cycle[-1]:
        prefix = prefix[:-1]
        cycle = cycle[-1:] + cycle[:-1]
    return prefix, cycle


def value(s, n):
    prefix, cycle = s
    if n < len(prefix):
        return prefix[n]
    return cycle[(n - len(prefix)) % len(cycle)]


def joint_values(*seqs):
    pl = max(len(p) for p, _ in seqs)
    cl = math.lcm(*(len(c) for _, c in seqs))
    return pl, cl, [[value(s, n) for s in seqs] for n in range(pl + cl)]


def from_values(values, pl):
    return canonical(values[:pl], values[pl:])


def zip_(a, b, op):
    pl, _, rows = joint_values(a, b)
    return from_values([op(x, y) for x, y in rows], pl)


def map_(a, op):
    out = []
    for n, v in enumerate(a[0] + a[1]):
        try:
            out.append(op(v))
        except (ZeroDivisionError, ValueError) as exc:
            raise PointwiseDomainError(n, str(exc) or "pointwise operation undefined") from exc
    return from_values(out, len(a[0]))


def add(a, b):
    return zip_(a, b, lambda x, y: x + y)


def sub(a, b):
    return zip_(a, b, lambda x, y: x - y)


def star(a, b):
    return zip_(a, b, lambda x, y: x * y)


def scalar_mul(c, a):
    return map_(a, lambda v: c * v)


def norm(a):
    return max(abs(v) for v in a[0] + a[1])


def invertible(a):
    n, v = min(enumerate(a[0] + a[1]), key=lambda kv: abs(kv[1]))
    if v == 0:
        raise NotInvertible(n, v)
    return abs(v), map_(a, lambda v: 1.0 / v)


def divide(f, g):
    pl, _, rows = joint_values(f, g)
    C = 0.0
    hvals = []
    for n, (uf, ug) in enumerate(rows):
        if ug == 0:
            if uf != 0:
                raise NotDivisible(n)
            hvals.append(0.0)
        else:
            C = max(C, abs(uf) / abs(ug))
            hvals.append(uf / ug)
    return C, from_values(hvals, pl)


def gcd(fs):
    pl, _, rows = joint_values(*fs)
    return from_values([max(abs(v) for v in row) for row in rows], pl)


def in_ideal(f, gens):
    pl, _, rows = joint_values(f, *gens)
    C = 0.0
    hvals = [[] for _ in gens]
    for n, row in enumerate(rows):
        uf, ugs = row[0], row[1:]
        s = sum(abs(v) for v in ugs)
        if s == 0.0:
            if uf != 0:
                raise NotInIdeal(n)
            for col in hvals:
                col.append(0.0)
            continue
        C = max(C, abs(uf) / s)
        denom = sum(v.conjugate() * v for v in ugs).real
        for col, v in zip(hvals, ugs):
            col.append(uf * v.conjugate() / denom)
    return C, [from_values(col, pl) for col in hvals]


def corona_solve(fs):
    pl, _, rows = joint_values(*fs)
    delta = math.inf
    gvals = [[] for _ in fs]
    for n, row in enumerate(rows):
        s = sum(abs(v) for v in row)
        if s == 0.0:
            raise CoronaFails(n)
        delta = min(delta, s)
        denom = sum(v.conjugate() * v for v in row).real
        for col, v in zip(gvals, row):
            col.append(v.conjugate() / denom)
    return delta, [from_values(col, pl) for col in gvals]


def approx_invertible(a, eps):
    return map_(a, lambda v: v if abs(v) > eps else complex(eps))


def is_idempotent(a):
    return all(v == 0 or v == 1 for v in a[0] + a[1])


def exp_el(a):
    return map_(a, cmath.exp)


def log_el(a):
    invertible(a)  # NotInvertible where inf |u| = 0
    return map_(a, cmath.log)


# ---------------------------------------------------------------------------
# The identities behind the pointwise quotients, checked exactly: invert
# (f f^-1 = 1), divide (h g = f), ideal-member (sum h_k g_k = f) and corona
# (sum g_i f_i = 1) are each sum_k h_k g_k = f at every position.

EPS = Fraction(1, 2 ** 53)     # the unit roundoff
ETA = Fraction(1, 2 ** 1074)   # the least subnormal


def _parts(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _size(re, im):
    """|re| + |im|, exact, and within a factor sqrt 2 of the modulus."""
    return abs(re) + abs(im)


def identity_error(hs, gs, f):
    """|sum_k h_k g_k - f| in units of sum_k (EPS |h_k| + ETA) |g_k|, all
    exact from the doubles: how many roundings per term the computed
    answers h_k of the identity cost (0 where it holds exactly)."""
    re = im = unit = Fraction(0)
    for h, g in zip(hs, gs):
        (hr, hi), (gr, gi) = _parts(h), _parts(g)
        re += hr * gr - hi * gi
        im += hr * gi + hi * gr
        unit += (EPS * _size(hr, hi) + ETA) * _size(gr, gi)
    fr, fi = _parts(f)
    residual = _size(re - fr, im - fi)
    return residual / unit if residual else 0


def least_squares(f, gs):
    """The exact h_k = f conj(g_k) / sum_j |g_j|^2 as (re, im) Fractions:
    the answer that invert (f = 1, one g), divide (one g), ideal-member and
    corona (f = 1) each round."""
    fr, fi = _parts(f)
    parts = [_parts(g) for g in gs]
    d = sum(r * r + i * i for r, i in parts)
    return [((fr * r + fi * i) / d, (fi * r - fr * i) / d) for r, i in parts]


def eval_at(w, a, z, tol):
    """The certified partial sum as a scan: every index from w.tail_start
    up is tried until sup|u| * tail_bound certifies tol, and each term calls
    log_p twice.  ``a`` is the (prefix, cycle) of the normalized
    coefficients; returns (value, error_bound, terms)."""
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    try:
        r = abs(z)
    except OverflowError:
        r = math.inf
    sup = norm(a)
    N = w.tail_start(r, algebra.MAX_EVAL_TERMS)
    while True:
        if N > algebra.MAX_EVAL_TERMS:
            raise BoundUnavailable(
                f"no truncation index up to {algebra.MAX_EVAL_TERMS} certifies "
                f"tolerance {tol} at |z| = {r}")
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
    t = cmath.exp(-w.log_p(0))
    for n in range(N + 1):
        s += value(a, n) * t
        t *= z * math.exp(w.log_p(n) - w.log_p(n + 1))
    if not cmath.isfinite(s):
        raise NumericalError(f"partial sum is not finite at |z| = {r}")
    return s, bound, N + 1


def matrix(w, rows):
    """The MatElement of rows of Elements of weight w, or of canonical
    sequences (EPSeqs or coeffseq.Canonicals) read as normalized
    coefficients: the shape is checked, then the weights, and each cell's
    take on the joint window is stacked into from_ustack."""
    rows = tuple(tuple(r) for r in rows)
    if not rows or not rows[0]:
        raise DimensionMismatch("matrix must be nonempty")
    if len(set(map(len, rows))) > 1:
        raise DimensionMismatch("ragged rows")
    m, n = len(rows), len(rows[0])
    for e in (e for r in rows for e in r if isinstance(e, algebra.Element)):
        if e.weight != w:
            raise WeightMismatch(f"{e.weight.name} entry in {w.name} matrix")
    cells = [e.u if isinstance(e, algebra.Element) else e for r in rows for e in r]
    pl, cl = joint_shape(*cells)
    stack = np.stack([_take(s, pl + cl) for s in cells], axis=1)
    return from_ustack(w, pl, stack.reshape(-1, m, n))


def mat_det(entries):
    """Plain cofactor expansion over the algebra: about e n! star/add pairs."""
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = None
        for j, e in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = algebra.star(e, det(minor))
            if j % 2:
                term = algebra.scalar_mul(-1.0, term)
            acc = term if acc is None else algebra.add(acc, term)
        return acc

    return det([list(r) for r in entries])


def memo_cofactor_det(rows, mul, add, neg):
    """Determinant of the square rows by cofactor expansion along the top
    row, with the ring operations mul, add and neg.

    The minor below row r depends only on the columns it keeps, so each of
    the 2^n column subsets is expanded once: n 2^(n-1) mul/add pairs in
    place of about e n!, with the same operations on each minor.
    """
    n = len(rows)
    memo: dict[tuple, object] = {}

    def det(cols: tuple):
        row = rows[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        if cols not in memo:
            acc = None
            for j, c in enumerate(cols):
                term = mul(row[c], det(cols[:j] + cols[j + 1:]))
                if j % 2:
                    term = neg(term)
                acc = term if acc is None else add(acc, term)
            memo[cols] = acc
        return memo[cols]

    return det(tuple(range(n)))


def exact_det(U):
    """The exact determinant of a square complex128 matrix, as a pair of
    Fractions (re, im): every part times the largest denominator D (a power
    of two) is an int, so Bareiss's fraction-free elimination over the
    Gaussian integers, whose every division is exact, gives D^n det U."""
    parts = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
             for row in np.asarray(U).tolist()]
    D = max(x.denominator for row in parts for z in row for x in z)
    M = [[(int(re * D), int(im * D)) for re, im in row] for row in parts]

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def divide(a, b):
        norm = b[0] ** 2 + b[1] ** 2
        re, im = mul(a, (b[0], -b[1]))
        if re % norm or im % norm:
            raise ArithmeticError("Bareiss division is not exact")
        return re // norm, im // norm

    n, sign, prev = len(M), 1, (1, 0)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if M[i][k] != (0, 0)), None)
        if pivot is None:
            return Fraction(0), Fraction(0)
        if pivot != k:
            M[k], M[pivot], sign = M[pivot], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a, b = mul(M[i][j], M[k][k]), mul(M[i][k], M[k][j])
                M[i][j] = divide((a[0] - b[0], a[1] - b[1]), prev)
        prev = M[k][k]
    re, im = M[n - 1][n - 1]
    return Fraction(sign * re, D ** n), Fraction(sign * im, D ** n)


def exact_rank(U):
    """The rank of a complex128 matrix as its doubles read, by Gaussian
    elimination over pairs (re, im) of Fractions: each row below a pivot
    loses its multiple by the exact complex quotient of the two entries."""
    M = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
         for row in np.asarray(U).tolist()]
    rank = 0
    for j in range(len(M[0])):
        pivot = next((i for i in range(rank, len(M)) if M[i][j] != (0, 0)), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        (a, b), norm = M[rank][j], M[rank][j][0] ** 2 + M[rank][j][1] ** 2
        for i in range(rank + 1, len(M)):
            c, d = M[i][j]
            q = ((c * a + d * b) / norm, (d * a - c * b) / norm)  # M[i][j] / M[rank][j]
            M[i] = [(x - q[0] * y + q[1] * w, v - q[0] * w - q[1] * y)
                    for (x, v), (y, w) in zip(M[i], M[rank])]
        rank += 1
    return rank


def inverse_frobenius_sq(V):
    """||V^-1||_F^2 of an invertible complex128 matrix as its doubles read, a
    Fraction: Gauss-Jordan elimination over Fractions on the real form
    [[Re V, -Im V], [Im V, Re V]], whose inverse is the real form of V^-1
    and so holds each of its parts twice."""
    R = np.block([[V.real, -V.imag], [V.imag, V.real]]).tolist()
    N = len(R)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(N)]
         for i, row in enumerate(R)]
    for j in range(N):
        pivot = next(i for i in range(j, N) if M[i][j] != 0)
        M[j], M[pivot] = M[pivot], M[j]
        M[j] = [x / M[j][j] for x in M[j]]
        for i in range(N):
            if i != j and M[i][j] != 0:
                M[i] = [x - M[i][j] * y for x, y in zip(M[i], M[j])]
    return sum(x * x for row in M for x in row[N:]) / 2


def mat_mul(a, b):
    """Product of matrices given as rows of (prefix, cycle) pairs, position
    by position: each entry is Python's complex sum of products from the
    k = 0 term.  Returns one canonical (prefix, cycle) of matrices, each a
    tuple of rows."""
    m, n, p = len(a), len(b), len(b[0])
    pl, _, rows = joint_values(*(s for r in a + b for s in r))
    out = []
    for vals in rows:
        A = [vals[i * n:(i + 1) * n] for i in range(m)]
        B = [vals[m * n + k * p:m * n + (k + 1) * p] for k in range(n)]
        out.append(tuple(tuple(functools.reduce(operator.add,
                                                (A[i][k] * B[k][j] for k in range(n)))
                               for j in range(p)) for i in range(m)))
    return canonical_items(tuple(out[:pl]), tuple(out[pl:]))


def branch_angle(eigs):
    """Midpoint of the largest angular gap between the arguments of one
    spectrum, over its distinct arguments; ties go to the smallest midpoint
    in [0, 2 pi).  One distinct argument puts the cut opposite it."""
    args = np.sort(np.unique(np.mod(np.angle(eigs), 2 * math.pi)))
    if len(args) == 1:
        return math.fmod(args[0] + math.pi, 2 * math.pi)
    gaps = np.diff(args, append=args[0] + 2 * math.pi)
    mids = np.mod(args + gaps / 2.0, 2 * math.pi)
    best = gaps.max()
    return min(float(m) for g, m in zip(gaps, mids) if g >= best - 1e-12)


def keyhole_pieces(theta, n, r, R):
    """The four smooth pieces of the keyhole-sector contour around a
    spectrum with moduli in [r, R] and no argument within pi/n of theta: big
    arc (CCW, radius R + 1), radial inward segment, small arc (CW, radius
    r/2), radial outward segment.  The radial segments sit at
    theta +- pi/(2n).  Each piece maps t in [0, 1] to (z, dz/dt)."""
    phi1 = theta + math.pi / (2 * n)
    phi2 = theta + 2 * math.pi - math.pi / (2 * n)
    rb, rs = R + 1.0, r / 2.0

    def arc(rad, a0, a1):
        def piece(t):
            z = rad * np.exp(1j * (a0 + t * (a1 - a0)))
            return z, 1j * (a1 - a0) * z
        return piece

    def radial(r0, r1, phi):
        e = np.exp(1j * phi)
        return lambda t: ((r0 + t * (r1 - r0)) * e, (r1 - r0) * e * np.ones_like(t))

    return [arc(rb, phi1, phi2), radial(rb, rs, phi2),
            arc(rs, phi2, phi1), radial(rs, rb, phi1)]


def graded(s, p=4):
    """Kress grading w(s) = s^p / (s^p + (1-s)^p) and its derivative: the
    derivatives vanish to high order at the endpoints, which keeps the
    trapezoid rule accurate on each open piece despite the corners."""
    a, b = s ** p, (1.0 - s) ** p
    denom = a + b
    return a / denom, p * (s ** (p - 1) * b + (1.0 - s) ** (p - 1) * a) / denom ** 2


def contour_log(U, theta, r, R, nodes):
    """log U on the branch theta as (1/2 pi i) times the integral of
    log(z) (zI - U)^-1 over the keyhole contour, by the trapezoid rule on
    the graded parametrization of each piece, with one dense np.linalg.inv
    per node.  The short pieces carry the sharpest integrand, so they get a
    fixed share of the nodes rather than one proportional to length."""
    n = U.shape[0]
    I = np.eye(n, dtype=complex)
    acc = np.zeros_like(U)
    for piece, share in zip(keyhole_pieces(theta, n, r, R), (0.4, 0.2, 0.2, 0.2)):
        m = max(8, int(round(nodes * share)))
        w, dw = graded(np.linspace(0.0, 1.0, m))
        z, dz = piece(w)
        weights = np.full(m, 1.0 / (m - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        # no node lies on the cut, the ray of argument theta
        logs = np.log(np.abs(z)) + 1j * (theta + np.mod(np.angle(z) - theta, 2 * math.pi))
        res = np.linalg.inv(z[:, None, None] * I[None, :, :] - U[None, :, :])
        acc += np.einsum("k,kij->ij", weights * logs * dz * dw, res)
    return acc / (2j * math.pi)


def eig_decomposition(stack):
    """What mat_log computes from one np.linalg.eig of the stack before its
    first verdict, as a dict: lam, V, thetas, the eig-path mask good (cond(V)
    below 1e10), Vg = V[good], X its computed inverse and inv, the bound on
    ||V^-1||_2 from it."""
    lam, V = np.linalg.eig(stack)
    cond = np.linalg.cond(V)
    good = np.isfinite(cond) & (cond < 1e10)
    X = np.linalg.inv(V[good])
    return dict(lam=lam, V=V, thetas=matalg._branch_angles(lam), good=good,
                Vg=V[good], X=X, inv=matalg._inv_bound(V[good], X))


def mat_log_screened(stack):
    """mat_log's rule before its eigendecomposition certified anything, on
    a canonical stack: the rank rule at every position (NotInGL), the
    logarithm by _eig_logs, the round trip relative to max |U(k)|
    (NumericalError), then the eigenvalues of every logarithm
    (OffBranch)."""
    k = matalg._first_rank(stack, False)
    if k is not None:
        raise NotInGL(k)
    d = eig_decomposition(stack)
    good, thetas = d["good"], d["thetas"]
    logs = matalg._log_on_branch(d["lam"][good], thetas[good, None])
    out = matalg._eig_logs(stack, good, d["Vg"], d["X"], logs, thetas)
    err = np.max(np.abs(matalg._expm(out) - stack), axis=(1, 2))
    bad = ~(err <= matalg._ROUNDTRIP_TOL * np.abs(stack).max(axis=(1, 2)))
    if bad.any():
        k = int(bad.argmax())
        raise NumericalError(
            f"logarithm round-trip error {err[k]:.3e} at position {k}")
    margin = matalg._branch_margin(out, thetas)
    bad = ~(margin > 0)
    if bad.any():
        k = int(bad.argmax())
        raise OffBranch(k, float(margin[k]))
    return out


# ---------------------------------------------------------------------------
# SL_n factorization


def _elementary(i, j, vals, pl, w):
    return i, j, algebra.Element(w, EPSeq.from_values(vals, pl))


def gauss_factors(stack, pl, w):
    """Gauss-Jordan elimination over one flat list of (row, column) pairs,
    forward then backward, with the column's pivot raised by the
    stable-rank-1 step before its first pair and checked before every pair;
    each factor becomes an (i, j, Element) triple as soon as it is found."""
    M = stack.copy()
    P, n, _ = M.shape
    factors = []
    order = [(i, j) for j in range(n) for i in range(j + 1, n)] + \
            [(i, j) for j in range(n - 1, -1, -1) for i in range(j - 1, -1, -1)]
    for i, j in order:
        if i == j + 1:  # before the first elimination in column j
            below = M[:, j + 1:, j]
            rho = np.linalg.norm(below, axis=1)
            low = np.abs(M[:, j, j]) < rho
            phase = np.exp(1j * np.angle(M[:, j, j]))
            t = np.where(low, phase / np.where(low, rho, 1.0), 0)[:, None] * below.conj()
            for r in range(j + 1, n):
                tr = t[:, r - j - 1]
                if tr.any():
                    M[:, j, :] += tr[:, None] * M[:, r, :]
                    factors.append(_elementary(j, r, -tr, pl, w))
        piv = np.abs(M[:, j, j])
        bad = ~(np.isfinite(piv) & (piv > 0))
        if bad.any():
            k = int(bad.argmax())
            raise NumericalError(f"pivot {piv[k]:.3e} at position {k}: "
                                 f"numerically singular", position=k)
        alpha = M[:, i, j] / M[:, j, j]
        if np.all(alpha == 0):
            continue
        M[:, i, :] -= alpha[:, None] * M[:, j, :]
        factors.append(_elementary(i, j, alpha, pl, w))
    return factors, M


def whitehead_factors(diag_stack, pl, w):
    """The five factors E12(c) E21(-1/c) E12(c-1) E21(1) E12(-1) of each
    block diag(c_j, c_j^-1), c_j = d_1 ... d_j, skipping blocks with
    c_j = 1 at every position."""
    P, n, _ = diag_stack.shape
    d = np.diagonal(diag_stack, axis1=1, axis2=2)
    factors = []
    one = np.ones(P, dtype=complex)
    c = one
    for j in range(n - 1):
        c = c * d[:, j]
        if np.all(c == 1):
            continue
        up, down = (j, j + 1), (j + 1, j)
        for (a, b), vals in ((up, c), (down, -(1.0 / c)), (up, c - 1.0),
                             (down, one), (up, -one)):
            factors.append(_elementary(a, b, vals, pl, w))
    return factors


def sl_factor(stack, pl, w, tol):
    """The factors of the stack and the largest entry deviation of their
    ordered product from it, without the determinant check; raises
    NumericalError where the deviation exceeds tol."""
    factors, M = gauss_factors(stack, pl, w)
    factors += whitehead_factors(M, pl, w)
    P, n, _ = stack.shape
    prod = np.broadcast_to(np.eye(n, dtype=complex), (P, n, n)).copy()
    for i, j, alpha in factors:
        prod[:, :, j] += alpha.u.take(P)[:, None] * prod[:, :, i]
    err = float(np.max(np.abs(prod - stack)))
    if not err <= tol:
        raise NumericalError(
            f"factor product deviates from the input by {err:.3e} > {tol:.3e}")
    return factors, err


# ---------------------------------------------------------------------------
# index orders


def krull_witness(n, horizon=1 << 14):
    """The normalized coefficients of the witness f_n as a GenSeq: u(m) = 0
    on the blocks {2^k + l : 0 <= l <= k^(n+1)}, found by a bisect over the
    merged runs of ideals._zero_runs, and u(m) = 1 elsewhere, the same for
    every weight."""
    los, his = ideals._zero_runs(n, horizon)

    def rule(m):
        i = bisect.bisect_right(los, m) - 1
        return 0.0 if i >= 0 and m <= his[i] else 1.0

    return GenSeq(rule=rule, horizon=horizon)


def run_length(u, k):
    """m(u, k): ideals.index_order for an EPSeq; a GenSeq is scanned up to
    its horizon, and a run still open there gives horizon - k + 1, a lower
    bound only."""
    if isinstance(u, EPSeq):
        return ideals.index_order(u, k).m
    if k > u.horizon:
        raise HorizonExceeded(k, u.horizon)
    for m in range(k, u.horizon + 1):
        if u.value(m) != 0:
            return m - k
    return u.horizon - k + 1


def growth_trajectory(u, n, horizon=1 << 14):
    """Ratios m(u, 2^k) / k^n for k >= 1 with 2^k <= horizon, for an EPSeq
    or a GenSeq such as the Krull witness.

    One pass over the indices: ``end`` is where the last scanned zero run
    stops (its first nonzero index, u.horizon + 1 when the run was open at
    the horizon, inf for an infinite run).  A scale 2^k < end lies inside
    that run, so m(f, 2^k) = end - 2^k without a scan.
    """
    out = []
    end = 0
    k = 1
    while (1 << k) <= horizon:
        start = 1 << k
        if start >= end:
            end = start + run_length(u, start)
        m = end - start
        out.append((k, math.inf if math.isinf(m) else m / (k ** n)))
        k += 1
    return out


def p1_p2_check(f, g, k):
    """m(f+g, k) >= min(m(f,k), m(g,k)) and m(f*g, k) >= max(m(f,k), m(g,k)),
    index orders of the coefficients of Elements f and g."""
    mf = ideals.index_order(f.u, k).m
    mg = ideals.index_order(g.u, k).m
    ms = ideals.index_order(algebra.add(f, g).u, k).m
    mp = ideals.index_order(algebra.star(f, g).u, k).m
    return ms >= min(mf, mg) and mp >= max(mf, mg)


# ---------------------------------------------------------------------------
# The canonical form one sequence at a time, and the matrix reader and writer
# that canonicalised each cell on its own: the column-wise form in
# ``hadalg.coeffseq._canonical`` must keep their representatives bit for bit.


def _prime_factors(n):
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


def primitive_cycle(cycle):
    """Shortest d dividing len(cycle) with cycle == cycle[:d] repeated."""
    d = len(cycle)
    for q in _prime_factors(d):
        while d % q == 0 and (cycle[d // q:] == cycle[:-(d // q)]).all():
            d //= q
    return cycle[:d]


def canonical_array(prefix, cycle):
    """(values, prefix length) of prefix + cycle, canonical along the first
    axis; a position's values are equal when all their entries are."""
    if not len(cycle):
        raise ValueError("cycle must be nonempty")
    cycle = primitive_cycle(cycle)
    if len(prefix) and (prefix[-1] == cycle[-1]).all():
        shadowed = np.resize(cycle[::-1], prefix.shape)
        hit = (prefix[::-1] == shadowed).reshape(len(prefix), -1).all(axis=1)
        t = len(prefix) if hit.all() else int(hit.argmin())
        prefix, cycle = prefix[:len(prefix) - t], np.roll(cycle, t, axis=0)
    return np.concatenate((prefix, cycle)), len(prefix)


def _json_values(cells):
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in cells],
                    dtype=np.complex128)


def matrix_from_json(obj):
    """(stack, prefix length) of a valid matrix document: each cell
    canonicalised on its own, the cells taken onto their joint window, and
    the stack canonicalised along its positions."""
    rows = [[canonical_array(_json_values(cell.get("prefix", [])),
                             _json_values(cell["cycle"])) for cell in row]
            for row in obj["entries"]]
    cells = [c for row in rows for c in row]
    pl = max(L for _, L in cells)
    cl = math.lcm(*(len(a) - L for a, L in cells))

    def take(a, L):
        return np.array([a[k if k < L else L + (k - L) % (len(a) - L)]
                         for k in range(pl + cl)])

    stack = np.stack([take(a, L) for a, L in cells], axis=1)
    stack = stack.reshape(pl + cl, len(rows), len(rows[0]))
    return canonical_array(stack[:pl], stack[pl:])


def matrix_to_json(weight, stack, pl):
    """The matrix document of a canonical stack, with lists for arrays:
    each entry's column canonicalised on its own."""
    def pairs(values):
        return [[v.real, v.imag] for v in values.tolist()]

    entries = []
    for i in range(stack.shape[1]):
        row = []
        for j in range(stack.shape[2]):
            rep, L = canonical_array(stack[:pl, i, j], stack[pl:, i, j])
            row.append({"prefix": pairs(rep[:L]), "cycle": pairs(rep[L:])})
        entries.append(row)
    return {"weight": weight, "rows": stack.shape[1], "cols": stack.shape[2],
            "entries": entries}


def pairs_array(lists):
    """The reader's pair conversion by numpy's type discovery: the value
    lists, one after another, flattened into one list of floats for
    np.array; None unless each holds only [re, im] pairs of numbers (bools,
    ints that numpy reads as int64 or uint64, floats) and every value is
    finite."""
    try:
        pairs = list(itertools.chain.from_iterable(lists))
        flat = np.array(list(itertools.chain.from_iterable(pairs)))
        if not (flat.ndim == 1 and flat.dtype.kind in "biuf"
                and set(map(len, pairs)) == {2}):
            return None
    except (TypeError, ValueError):
        return None
    values = flat.astype(np.float64).view(np.complex128)
    return values if np.isfinite(values).all() else None
