"""Matrices over the algebra: per-coefficient linear algebra.

A matrix A with EPSeq-backed entries is determined by finitely many complex
matrices U(k) = p(k) * Ahat(k) (the normalized coefficient matrices), indexed
over a joint representative window: prefix length L, cycle length c, with
position k >= L repeating mod c.  Matrix multiplication and determinants over
the algebra are pointwise matrix operations on the U-views, so solvability,
exponentials, logarithms and factorizations all reduce to uniformly bounded
families of finite-dimensional problems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# scipy.linalg (about 28 MB and 0.35 s to import) is imported inside the
# functions that call it, so operations that never do skip the import
from . import algebra
from .algebra import Element
from .coeffseq import (EPSeq, _abs, _canonical, _mul, _silent, _take,
                       joint_shape)
from .errors import (DimensionMismatch, Inconsistent, InvalidArgument, NotInGL,
                     NotSL, NumericalError, OffBranch, WeightMismatch)
from .weights import Weight

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, init=False, eq=False)
class MatElement:
    """m x n matrix of elements sharing one weight.

    The matrix is stored as its U-view: one read-only complex128 ``array``
    of shape (L + c, m, n) holding U(k) for k < L + c, with position
    k >= L reading U(L + (k - L) mod c), where L = ``period_start``.  The
    array is canonical along the position axis, exactly as an EPSeq is, so
    (L, c) is the joint window of the canonical entries.  ``entries``, the
    rows of Elements, is rebuilt from the array on first use.
    """

    weight: Weight
    array: np.ndarray
    period_start: int

    def __init__(self, weight: Weight, entries):
        """entries: rows of Elements of this weight, or of canonical
        sequences (EPSeqs or Canonicals) read as normalized coefficients."""
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must be nonempty")
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("ragged rows")
        els = [e for r in rows for e in r if isinstance(e, Element)]
        for e in els:
            if e.weight != weight:
                raise WeightMismatch(f"{e.weight.name} entry in {weight.name} matrix")
        cells = [e.u if isinstance(e, Element) else e for r in rows for e in r]
        pl, cl = joint_shape(*cells)
        stack = np.stack([_take(s, pl + cl) for s in cells], axis=1)
        self._store(weight, pl, stack.reshape(-1, len(rows), len(rows[0])))

    def _store(self, weight: Weight, pl: int, stack: np.ndarray) -> "MatElement":
        array, L = _canonical(stack[:pl], stack[pl:])
        vars(self).update(weight=weight, array=array, period_start=L)
        return self

    # the stack is indexed along its first axis exactly as an EPSeq's values
    take = _take

    @cached_property
    def entries(self) -> tuple:
        """Rows of Elements, each entry canonicalised on its own."""
        w, L = self.weight, self.period_start
        return tuple(tuple(algebra._element(w, self.array[:, i, j], L)
                           for j in range(self.n)) for i in range(self.m))

    def __eq__(self, other):
        if not isinstance(other, MatElement):
            return NotImplemented
        return (self.weight == other.weight
                and self.period_start == other.period_start
                and np.array_equal(self.array, other.array))

    @property
    def m(self) -> int:
        return self.array.shape[1]

    @property
    def n(self) -> int:
        return self.array.shape[2]

    # -- U-view ------------------------------------------------------------

    def shape_window(self) -> tuple[int, int]:
        """Joint (prefix length, cycle length) over all entries."""
        return self.period_start, len(self.array) - self.period_start

    def U(self, k: int) -> np.ndarray:
        """Normalized coefficient matrix at position k."""
        if k < 0:
            raise IndexError(k)
        L, c = self.shape_window()
        return self.array[k if k < L else L + (k - L) % c].copy()

    def ustack(self) -> tuple[int, int, np.ndarray]:
        """(L, c, stack of U(k) for k < L + c); the stack is read-only."""
        pl, cl = self.shape_window()
        return pl, cl, self.array


def from_ustack(w: Weight, pl: int, stack: np.ndarray) -> MatElement:
    """The matrix with U(k) = stack[k] for k < len(stack), positions from pl
    on repeating with period len(stack) - pl (canonicalised)."""
    stack = np.asarray(stack, dtype=np.complex128)
    return MatElement.__new__(MatElement)._store(w, pl, stack)


@dataclass(frozen=True)
class ElementaryFactor:
    """I + alpha * e_ij with i != j (zero-based indices)."""

    i: int
    j: int
    alpha: Element

    def __post_init__(self):
        if self.i == self.j:
            raise DimensionMismatch("elementary factor needs i != j")


# ---------------------------------------------------------------------------
# basic operations


@_silent
def mat_mul(A: MatElement, B: MatElement) -> MatElement:
    """Positionwise product.  Each entry is summed left to right from the
    k = 0 term with CPython's complex product, as star/add over the entries
    computes it; np.matmul would round differently."""
    if A.n != B.m:
        raise DimensionMismatch(f"{A.m}x{A.n} times {B.m}x{B.n}")
    if A.weight != B.weight:
        raise WeightMismatch(f"{A.weight.name} vs {B.weight.name}")
    pl, cl = joint_shape(A, B)
    a, b = A.take(pl + cl), B.take(pl + cl)
    acc = _mul(a[:, :, 0, None], b[:, None, 0, :])
    for k in range(1, A.n):
        acc = acc + _mul(a[:, :, k, None], b[:, None, k, :])
    return from_ustack(A.weight, pl, acc)


def _cofactor_det(rows, mul, add, neg):
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


def mat_det(A: MatElement) -> Element:
    """Determinant over the algebra (cofactor expansion with star/add)."""
    if A.m != A.n:
        raise DimensionMismatch("determinant needs a square matrix")
    return _cofactor_det(A.entries, algebra.star, algebra.add,
                         lambda t: algebra.scalar_mul(-1.0, t))


def mat_norm_bounds(A: MatElement) -> tuple[float, float]:
    """(S, n * max entry norm) with S = sup_k ||U(k)||_{2,2}, exact over the
    window.  S <= n * max ||a_ij|| always (membership bound)."""
    S = float(np.linalg.norm(A.array, 2, axis=(1, 2)).max())
    upper = max(A.m, A.n) * float(_abs(A.array).max())
    return S, upper


# ---------------------------------------------------------------------------
# Ax = b


def mat_solve(A: MatElement, b: MatElement,
              rtol: float = 1e-10) -> tuple[float, MatElement]:
    """Solve A * x = b over the algebra, positionwise by minimal-norm
    least squares (SVD with numerical-rank threshold rtol * sigma_max).

    Success requires every position to be consistent; then the assembled x
    is eventually periodic and delta = 1 / sup_k ||x_k||_2 certifies the
    Euclidean solvability condition.  Raises Inconsistent with the first bad
    position and a left-null certificate vector y.
    """
    if rtol <= 0:
        raise InvalidArgument("tol must be positive")
    if b.n != 1 or b.m != A.m:
        raise DimensionMismatch(f"b must be {A.m}x1, got {b.m}x{b.n}")
    if A.weight != b.weight:
        raise WeightMismatch(f"{A.weight.name} vs {b.weight.name}")
    pl, cl = joint_shape(A, b)
    As, bs = A.take(pl + cl), b.take(pl + cl)
    xs = []
    supx = 0.0
    for k, (U, v) in enumerate(zip(As, bs[:, :, 0])):
        uu, s, vh = np.linalg.svd(U, full_matrices=True)
        smax = s[0] if len(s) else 0.0
        tau = rtol * smax
        rank = int(np.sum(s > tau))
        coeff = uu.conj().T @ v
        x = vh.conj().T[:, :rank] @ (coeff[:rank] / s[:rank]) if rank else \
            np.zeros(A.n, dtype=complex)
        resid = v - U @ x
        rnorm = float(np.linalg.norm(resid))
        scale = max(1.0, float(np.linalg.norm(v)) + smax * float(np.linalg.norm(x)))
        if rnorm > rtol * scale:
            y = resid / rnorm
            raise Inconsistent(k, list(y))
        xs.append(x)
        supx = max(supx, float(np.linalg.norm(x)))
    delta = math.inf if supx == 0.0 else 1.0 / supx
    return delta, from_ustack(A.weight, pl, np.array(xs)[:, :, None])


# ---------------------------------------------------------------------------
# exponential and logarithm


def mat_exp(B: MatElement) -> MatElement:
    """Positionwise matrix exponential (scipy's Pade scaling-and-squaring)."""
    if B.m != B.n:
        raise DimensionMismatch("exponential needs a square matrix")
    import scipy.linalg
    return from_ustack(B.weight, B.period_start, scipy.linalg.expm(B.array))


def _branch_angle(eigs: np.ndarray) -> float:
    """Midpoint of the largest angular gap between eigenvalue arguments.

    An n x n invertible matrix has at most n distinct argument values, so the
    largest gap is at least 2 pi / n.  Ties are broken by the smallest
    midpoint in [0, 2 pi).
    """
    args = np.sort(np.unique(np.mod(np.angle(eigs), _TWO_PI)))
    if len(args) == 1:
        theta = math.fmod(args[0] + math.pi, _TWO_PI)
        return theta
    gaps = np.diff(args, append=args[0] + _TWO_PI)
    mids = np.mod(args + gaps / 2.0, _TWO_PI)
    best = gaps.max()
    cand = [float(m) for g, m in zip(gaps, mids) if g >= best - 1e-12]
    return min(cand)


def _log_on_branch(values: np.ndarray, theta: float) -> np.ndarray:
    """log with the branch cut along the ray of argument theta
    (arguments taken in (theta, theta + 2 pi))."""
    a = theta + np.mod(np.angle(values) - theta, _TWO_PI)
    # a point exactly on the cut maps to theta + 0; keep it at theta + 2 pi
    a = np.where(a == theta, theta + _TWO_PI, a)
    return np.log(np.abs(values)) + 1j * a


def _eig_log(U: np.ndarray, theta: float) -> np.ndarray:
    """Functional-calculus logarithm via eigendecomposition.  When the
    eigenvector basis is ill-conditioned (a Jordan block, say) it is the
    principal logm of U turned by e^{-i(theta + pi)}, which puts the cut on
    the negative axis, plus i(theta + pi) I.  logm's accuracy warnings are
    silenced: mat_log's round-trip and branch checks judge the result."""
    lam, V = np.linalg.eig(U)
    cond = np.linalg.cond(V)
    if math.isfinite(cond) and cond < 1e10:
        return V @ np.diag(_log_on_branch(lam, theta)) @ np.linalg.inv(V)
    import scipy.linalg
    turn = theta + math.pi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return scipy.linalg.logm(np.exp(-1j * turn) * U) + 1j * turn * np.eye(len(U))


def _exactly_singular(U: np.ndarray) -> bool:
    """Whether det U = 0 exactly, for U as its doubles read.  Every double
    is an integer over a power of two, so one power of two scales U to a
    matrix of Gaussian integers, expanded with Python ints."""
    n = len(U)
    ratios = [x.as_integer_ratio()
              for x in np.stack([U.real, U.imag], axis=-1).ravel().tolist()]
    scale = max(q for _, q in ratios)
    ints = [p * (scale // q) for p, q in ratios]
    cells = list(zip(ints[0::2], ints[1::2]))   # (re, im) of row-major entries
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    det = _cofactor_det(
        rows, lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
        lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda a: (-a[0], -a[1]))
    return det == (0, 0)


# a position whose smallest singular value is at most this many n eps
# sigma_max is decided singular or not by _exactly_singular; the exactly
# singular matrices with entries in {-1, 0, 1, 2} and integer rank-deficient
# products up to 7x7 stay under 0.7 of it
_SINGULAR_FLAG = 4.0
# largest entry deviation of exp(log A) from A that mat_log accepts
_ROUNDTRIP_TOL = 1e-9


def _branch_margin(logs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per position k, the least distance of an eigenvalue's imaginary part
    from the edges of the strip (thetas[k], thetas[k] + 2 pi): positive
    exactly when the whole spectrum of logs[k] lies inside, nan when it is
    not finite."""
    im = np.linalg.eigvals(logs).imag - thetas[:, None]
    return np.minimum(im, _TWO_PI - im).min(axis=1)


def mat_log(A: MatElement) -> MatElement:
    """Logarithm of an invertible matrix over the algebra.

    Per position: pick the branch cut theta through the largest angular gap
    of the spectrum of U(k) and compute B(k) = log U(k) by eigenvalue
    functional calculus (_eig_log).  Two checks certify B(k) as log U(k) on
    that branch: exp(B(k)) = U(k) within _ROUNDTRIP_TOL, and every eigenvalue
    of B(k) has imaginary part inside (theta, theta + 2 pi).  log_theta is
    the inverse of exp on that strip, and primary matrix functions compose,
    so B(k) = log_theta(exp(B(k))) = log_theta(U(k)).  The round trip
    catches a wrong B, the strip a wrong branch (B + 2 pi i I, say); the
    latter raises OffBranch at the first position whose margin to the strip
    edges is not positive.

    A position is refused as singular when an eigenvalue is exactly 0, or
    when its smallest singular value is within rounding of 0 and its exact
    determinant is 0.
    """
    if A.m != A.n:
        raise DimensionMismatch("logarithm needs a square matrix")
    pl, cl, stack = A.ustack()
    eigs = np.linalg.eigvals(stack)
    singular = np.abs(eigs).min(axis=1) == 0.0
    sv = np.linalg.svd(stack, compute_uv=False)
    eps = np.finfo(np.float64).eps
    flagged = sv[:, -1] <= _SINGULAR_FLAG * A.n * eps * sv[:, 0]
    for k in np.flatnonzero(flagged & ~singular):
        singular[k] = _exactly_singular(stack[k])
    if singular.any():
        raise NotInGL(int(singular.argmax()))
    import scipy.linalg
    thetas = np.array([_branch_angle(lam) for lam in eigs])
    out = np.array([_eig_log(U, theta) for U, theta in zip(stack, thetas)])
    err = np.max(np.abs(scipy.linalg.expm(out) - stack), axis=(1, 2))
    bad = ~(err <= _ROUNDTRIP_TOL)  # nan included
    if bad.any():
        k = int(bad.argmax())
        raise NumericalError(
            f"logarithm round-trip error {err[k]:.3e} at position {k}")
    # every B(k) is finite here: a nan or inf in it fails the round trip
    margin = _branch_margin(out, thetas)
    bad = ~(margin > 0)
    if bad.any():
        k = int(bad.argmax())
        raise OffBranch(k, float(margin[k]))
    return from_ustack(A.weight, pl, out)


# ---------------------------------------------------------------------------
# SL_n factorization into elementary matrices


def _elementary(i: int, j: int, vals: np.ndarray, pl: int, w: Weight
                ) -> ElementaryFactor:
    """I + alpha e_ij, alpha the sequence with window values vals, periodic
    from position pl on."""
    return ElementaryFactor(i, j, Element(w, EPSeq.from_values(vals, pl)))


def _gauss_factors(stack: np.ndarray, pl: int, w: Weight
                   ) -> tuple[list[ElementaryFactor], np.ndarray]:
    """Reduce each positionwise matrix to diagonal form by Gauss-Jordan
    elimination, recording the elementary factors so that
    input = product(factors) * diagonal.

    Column j's pivot is first raised by the stable-rank-1 step: where
    |M_jj| < rho = ||M_{j+1:, j}||, row j gains t_i * row i for each i > j,
    t_i = e^{i arg M_jj} conj(M_ij) / rho, so the pivot becomes
    e^{i arg M_jj} (|M_jj| + rho) and every multiplier is at most 1 in
    modulus.  Raises NumericalError naming the first position where a pivot
    is 0 or not finite."""
    M = stack.copy()
    P, n, _ = M.shape
    factors: list[ElementaryFactor] = []
    order = [(i, j) for j in range(n) for i in range(j + 1, n)] + \
            [(i, j) for j in range(n - 1, -1, -1) for i in range(j - 1, -1, -1)]
    for i, j in order:
        if i == j + 1:  # before the first elimination in column j
            below = M[:, j + 1:, j]
            rho = np.linalg.norm(below, axis=1)
            low = np.abs(M[:, j, j]) < rho
            phase = np.exp(1j * np.angle(M[:, j, j]))
            # t[k, r - j - 1] = t_r at position k, 0 where the pivot is not low
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


def _whitehead_factors(diag_stack: np.ndarray, pl: int, w: Weight
                       ) -> list[ElementaryFactor]:
    """Factor a diagonal matrix of determinant ~1 into elementary factors.

    diag(d_1, ..., d_n) telescopes into blocks diag(c_j, c_j^-1) on rows
    (j, j+1) with c_j = d_1 ... d_j; each block yields the five factors
    E12(c) E21(-1/c) E12(c-1) E21(1) E12(-1) (the classical commutator
    identity with the two middle shears merged)."""
    P, n, _ = diag_stack.shape
    d = np.diagonal(diag_stack, axis1=1, axis2=2)  # (P, n)
    factors: list[ElementaryFactor] = []
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


def _factor_stack(stack: np.ndarray, pl: int, w: Weight
                  ) -> list[ElementaryFactor]:
    factors, M = _gauss_factors(stack, pl, w)
    factors.extend(_whitehead_factors(M, pl, w))
    return factors


def _apply_factors(factors: Sequence[ElementaryFactor], P: int, n: int
                   ) -> np.ndarray:
    prod = np.broadcast_to(np.eye(n, dtype=complex), (P, n, n)).copy()
    for f in factors:
        vals = f.alpha.u.take(P)
        # right-multiply by I + alpha e_ij: column j gains alpha * column i
        prod[:, :, f.j] += vals[:, None] * prod[:, :, f.i]
    return prod


def _factor_error(factors: Sequence[ElementaryFactor], A: MatElement) -> float:
    """Largest entry deviation of the ordered product of factors from A over
    A's window."""
    pl, cl, stack = A.ustack()
    return float(np.max(np.abs(_apply_factors(factors, len(stack), A.n) - stack)))


def sl_factor(A: MatElement, tol: float = 1e-9
              ) -> tuple[list[ElementaryFactor], float]:
    """Factor a determinant-one matrix into elementary matrices.

    Gauss-Jordan elimination with each pivot raised by the paper's
    stable-rank-1 step (_gauss_factors), then Whitehead blocks for the
    diagonal that remains: at most n(n-1)/2 + n(n-1) + 5(n-1) factors
    however far A is from the identity.  The ordered product of the emitted
    factors reproduces A within tol per position (verified).  Returns the
    factors and that verified error, the largest entry deviation of their
    product from A over A's window.
    """
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    if A.m != A.n:
        raise DimensionMismatch("factorization needs a square matrix")
    pl, cl, stack = A.ustack()
    dets = np.linalg.det(stack)
    bad = np.argmax(np.abs(dets - 1.0))
    if abs(dets[bad] - 1.0) > tol:
        raise NotSL(int(bad), complex(dets[bad]))

    factors = _factor_stack(stack, pl, A.weight)
    err = _factor_error(factors, A)
    if not err <= tol:  # nan included
        raise NumericalError(
            f"factor product deviates from the input by {err:.3e} > {tol:.3e}")
    return factors, err
