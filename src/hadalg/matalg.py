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
import operator
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

# scipy.linalg (about 28 MB and 0.35 s to import) is loaded only by _eig_logs' logm
from . import algebra
from .algebra import Element
from .coeffseq import _abs, _canonical_form, _mul, _position, _take, joint_shape
from .errors import (DimensionMismatch, Inconsistent, InvalidArgument, NotInGL,
                     NotSL, NumericalError, OffBranch, WeightMismatch,
                     WindowTooLarge)
from .weights import Weight

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, init=False, eq=False)
class MatElement:
    """m x n matrix of elements sharing one weight.

    The matrix is stored as its U-view: one read-only complex128 ``array``
    of shape (L + c, m, n) holding U(k) for k < L + c, with position
    k >= L reading U(L + (k - L) mod c), where L = ``period_start``.  The
    array is canonical along the position axis, exactly as an EPSeq is, so
    (L, c) is the joint window of the canonical entries.  ``entries``, the
    rows of Elements, is rebuilt from the array on first use.  Every matrix
    is built by from_ustack.
    """

    weight: Weight
    array: np.ndarray
    period_start: int

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
        return self.array[_position(self, k)].copy()

    def ustack(self) -> tuple[int, int, np.ndarray]:
        """(L, c, stack of U(k) for k < L + c); the stack is read-only."""
        pl, cl = self.shape_window()
        return pl, cl, self.array


def from_ustack(w: Weight, pl: int, stack: np.ndarray) -> MatElement:
    """The matrix with U(k) = stack[k] for k < len(stack), positions from pl
    on repeating with period len(stack) - pl (canonicalised)."""
    stack = np.asarray(stack, dtype=np.complex128)
    array, L = _canonical_form(stack[:pl], stack[pl:])
    A = MatElement.__new__(MatElement)
    vars(A).update(weight=w, array=array, period_start=L)
    return A


# ---------------------------------------------------------------------------
# basic operations


def mat_mul(A: MatElement, B: MatElement) -> MatElement:
    """Positionwise product.  Each entry is summed left to right from the
    k = 0 term with CPython's complex product, as star/add over the entries
    computes it; np.matmul would round differently."""
    if A.n != B.m:
        raise DimensionMismatch(f"{A.m}x{A.n} times {B.m}x{B.n}")
    if A.weight != B.weight:
        raise WeightMismatch(f"{A.weight.name} vs {B.weight.name}")
    pl, cl = joint_shape(A, B, cells=max(A.m * A.n, B.m * B.n, A.m * B.n))
    a, b = A.take(pl + cl), B.take(pl + cl)
    acc = _mul(a[:, :, 0, None], b[:, None, 0, :])
    for k in range(1, A.n):
        acc = acc + _mul(a[:, :, k, None], b[:, None, k, :])
    return from_ustack(A.weight, pl, acc)


# the largest n whose determinant mat det expands: _minor_plan(n) holds all
# 2^n column subsets, and the time grows about 4.5-fold per two rows (n = 12
# takes 0.68 s on one position, n = 16 14 s)
MAX_DET_N = 12
# _first_rank reads this many matrix entries at a time, so _exact_ranks'
# Python ints number at most 4 times it
_RANK_CHUNK = 2 ** 14


@cache
def _minor_plan(n: int) -> tuple:
    """The cofactor expansion of an n x n matrix along its top row, one
    level per minor size s = 2..n.  The minor below row n - s depends only
    on the s columns it keeps, so each of the 2^n column subsets is expanded
    once.  Level s lists, for each j < s, the column that row n - s
    contributes to every s-column subset (in combinations order) and the
    index of the minor it multiplies among the (s - 1)-column subsets."""
    levels, prev = [], {(c,): c for c in range(n)}
    for s in range(2, n + 1):
        subsets = list(combinations(range(n), s))
        levels.append(tuple((np.array([S[j] for S in subsets]),
                             np.array([prev[S[:j] + S[j + 1:]] for S in subsets]))
                            for j in range(s)))
        prev = {S: i for i, S in enumerate(subsets)}
    return tuple(levels)


def _expand(rows: np.ndarray, mul, add, neg) -> np.ndarray:
    """Determinants of the square matrices on the last two axes of rows, by
    cofactor expansion along the top row with the ring operations mul, add
    and neg on arrays: every minor of one size at once (_minor_plan), terms
    in ascending column order, odd ones through neg, summed left to right.
    n 2^(n-1) mul/add pairs in place of about e n!."""
    n = rows.shape[-1]
    det = rows[..., n - 1, :]
    for s, level in enumerate(_minor_plan(n), start=2):
        row = rows[..., n - s, :]
        acc = None
        for j, (cols, minors) in enumerate(level):
            term = mul(row[..., cols], det[..., minors])
            if j % 2:
                term = neg(term)
            acc = term if acc is None else add(acc, term)
        det = acc
    return det[..., 0]


def mat_det(A: MatElement) -> Element:
    """Determinant over the algebra (cofactor expansion with star/add).

    The expansion runs on A's stack with CPython's complex *, + and the
    product by -1 that scalar_mul makes.  Star/add over the entries differ
    from it only where canonicalising a sequence picks the sign of a zero
    part, and such a sign reaches only output parts that are themselves
    zero.  So the stacked value is the answer when every real and imaginary
    part of it is finite and nonzero; otherwise star/add run over A.entries.

    That path alone can answer 0, and it raises NumericalError at the first
    position of A's window where the det is 0 in both parts while U(k) has
    full rank (_first_rank): there the determinant underflowed or cancelled
    to 0.

    n above MAX_DET_N is refused (WindowTooLarge) before any expansion.
    """
    if A.m != A.n:
        raise DimensionMismatch("determinant needs a square matrix")
    if A.n > MAX_DET_N:
        raise WindowTooLarge(f"determinant of a {A.n}x{A.n} matrix exceeds "
                             f"the budget of {MAX_DET_N} rows")
    det = _expand(A.array, _mul, operator.add,
                  lambda t: _mul(complex(-1.0), t))
    if np.isfinite(det).all() and det.real.all() and det.imag.all():
        return algebra._element(A.weight, det, A.period_start)
    rows = np.empty((A.n, A.n), dtype=object)
    rows[...] = A.entries
    det = _expand(rows, np.frompyfunc(algebra.star, 2, 1),
                  np.frompyfunc(algebra.add, 2, 1),
                  np.frompyfunc(lambda t: algebra.scalar_mul(-1.0, t), 1, 1))[()]
    zero_det = np.flatnonzero(_take(det.u, len(A.array)) == 0)
    k = _first_rank(A.array[zero_det], True)
    if k is not None:
        k = int(zero_det[k])
        raise NumericalError(f"determinant rounds to 0 at position {k}, "
                             "where the matrix has full rank", position=k)
    return det


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
    least squares (the reduced SVD, whose factors hold at most m * n values
    a position; numerical-rank threshold rtol * sigma_max).

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
    pl, cl = joint_shape(A, b, cells=A.m * A.n)
    As, bs = A.take(pl + cl), b.take(pl + cl)
    uu, s, vh = np.linalg.svd(As, full_matrices=False)
    smax = s[:, 0]
    rank = np.sum(s > (rtol * smax)[:, None], axis=1)
    coeff = np.swapaxes(uu.conj(), 1, 2) @ bs
    # the minimal-norm solution, one matmul per rank; 0 at rank 0
    xs = np.zeros((len(As), A.n, 1), dtype=complex)
    for r in np.unique(rank[rank > 0]):
        at = np.flatnonzero(rank == r)
        xs[at] = np.swapaxes(vh[at].conj(), 1, 2)[:, :, :r] @ (
            coeff[at, :r] / s[at, :r, None])
    # the test ||r|| > rtol (||b|| + smax ||x||) at each position, on 2^-e r,
    # 2^-e b (e the binary exponent of their largest part) and 2^-f x, so no
    # norm overflows; the scaling is exact wherever the unscaled norms neither
    # over- nor underflow
    e, rb = algebra._scaled(np.concatenate([bs - As @ xs, bs], axis=1)[..., 0].T)
    f, v = algebra._scaled(xs[..., 0].T)
    supx = 0.0
    for k in range(len(As)):
        rnorm, bnorm, xnorm = (float(np.linalg.norm(u))
                               for u in (rb[:A.m, k], rb[A.m:, k], v[:, k]))
        if not math.isfinite(xnorm):
            raise NumericalError(f"solution is not finite at position {k}",
                                 position=k)
        if rnorm > rtol * (bnorm + np.ldexp(smax[k] * xnorm, f[k] - e[k])):
            raise Inconsistent(k, list(rb[:A.m, k] / rnorm))
        supx = max(supx, float(np.ldexp(xnorm, f[k])))
    delta = math.inf if supx == 0.0 else 1.0 / supx
    return delta, from_ustack(A.weight, pl, xs)


# ---------------------------------------------------------------------------
# exponential and logarithm


# Higham (2005): exp(X) ~ q(X)/q(-X), q(X) = sum_j b_j X^j, for ||X||_1 <= theta13
_PADE13 = tuple(float(math.comb(13, j) * math.perm(26 - j, 13 - j)) for j in range(14))
_THETA13 = 5.371920351148152


def _expm(stack: np.ndarray) -> np.ndarray:
    """mat_exp at each matrix A of a (P, n, n) stack, nan where a part is not
    finite.  A is scaled by 2^-s, s = max(0, ceil(log2(||A||_1 / theta13))),
    the norm taken of 2^-e A (e the binary exponent of A's largest part) so
    it cannot overflow.  As in scipy.linalg.expm, a diagonal A gets np.exp of
    its diagonal and a triangular A +0.0 in its other strict triangle."""
    lower, upper = np.tril(stack, -1).any(axis=(1, 2)), np.triu(stack, 1).any(axis=(1, 2))
    out = np.full_like(stack, np.nan)
    out[~(lower | upper)] = np.exp(stack[~(lower | upper)])  # off-diagonal 1s zeroed below
    pade = (lower | upper) & np.isfinite(stack).all(axis=(1, 2))
    A = stack[pade].view(np.float64)
    e = np.frexp(np.abs(A).max(axis=(1, 2), initial=0.0))[1]
    norm = np.abs(np.ldexp(A, -e[:, None, None]).view(stack.dtype)).sum(1).max(1)
    s = np.maximum(np.ceil(np.log2(norm / _THETA13)) + e, 0).astype(int)
    X = np.ldexp(A, -s[:, None, None]).view(stack.dtype)
    b, I = _PADE13, np.eye(stack.shape[1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * I)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * I)
    R = np.linalg.solve(V - U, V + U)
    for j in range(s.max(initial=0)):
        R[s > j] = R[s > j] @ R[s > j]
    out[pade] = R
    below = np.tri(stack.shape[1], k=-1, dtype=bool)
    out[(~lower[:, None, None] & below) | (~upper[:, None, None] & below.T)] = 0.0
    return out


def mat_exp(B: MatElement) -> MatElement:
    """Positionwise exp by Higham's degree-13 Pade scaling and squaring (SIAM
    J. Matrix Anal. Appl. 26(4):1179-1193, 2005) over the stack (_expm).  On
    240 matrices (n = 2..5, half strongly non-normal) its largest entry error
    against mpmath, relative to max |exp A|, was 2.7e-15 (scipy.linalg.expm
    7.5e-15)."""
    if B.m != B.n:
        raise DimensionMismatch("exponential needs a square matrix")
    return from_ustack(B.weight, B.period_start, _expm(B.array))


def _branch_angles(eigs: np.ndarray) -> np.ndarray:
    """Per row of eigenvalues, the midpoint of the largest angular gap
    between their arguments.

    An n x n invertible matrix has at most n distinct argument values, so the
    largest gap is at least 2 pi / n.  Ties are broken by the smallest
    midpoint in [0, 2 pi).  A repeated argument leaves a zero gap, which is
    never the largest unless every argument is the same; then the cut is
    opposite that argument.
    """
    args = np.sort(np.mod(np.angle(eigs), _TWO_PI), axis=1)
    gaps = np.diff(args, axis=1, append=args[:, :1] + _TWO_PI)
    mids = np.mod(args + gaps / 2.0, _TWO_PI)
    best = gaps.max(axis=1, keepdims=True)
    thetas = np.where(gaps >= best - 1e-12, mids, np.inf).min(axis=1)
    one = args[:, 0] == args[:, -1]
    return np.where(one, np.fmod(args[:, 0] + math.pi, _TWO_PI), thetas)


def _log_on_branch(values: np.ndarray, theta) -> np.ndarray:
    """log with the branch cut along the ray of argument theta
    (arguments taken in (theta, theta + 2 pi))."""
    a = theta + np.mod(np.angle(values) - theta, _TWO_PI)
    # a point exactly on the cut maps to theta + 0; keep it at theta + 2 pi
    a = np.where(a == theta, theta + _TWO_PI, a)
    return np.log(np.abs(values)) + 1j * a


def _eig_logs(stack: np.ndarray, good: np.ndarray, Vg: np.ndarray,
              X: np.ndarray, logs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Logarithm of each U(k) on the branch thetas[k].  Where the eigenvector
    basis V of U(k) = V diag(lam) V^-1 is well conditioned (good), it is the
    functional calculus V diag(logs) X, with Vg = V[good], logs =
    log_theta lam and X the computed inverse of Vg.  Elsewhere (a Jordan
    block, say) it is the principal logm of U(k) turned by
    e^{-i(theta + pi)}, which puts the cut on the negative axis, plus
    i(theta + pi) I.  Where the binary exponent e of that matrix's largest
    entry exceeds 64 in modulus, logm takes it times 2^-e (exact for each
    part that stays normal) and e ln 2 I is added: near the double range
    logm's inverse scaling and squaring can run for minutes.  logm's
    accuracy warnings are silenced: mat_log's round-trip and branch checks
    judge the result.  logm (imported only then) estimates 1-norms from
    random vectors of numpy's global generator, so each position runs it
    from seed 0 and the generator's state is put back; a logm that fails
    raises NumericalError."""
    n = stack.shape[1]
    out = np.empty_like(stack)
    D = np.zeros_like(X)
    D[:, range(n), range(n)] = logs
    out[good] = Vg @ D @ X
    if good.all():
        return out
    import scipy.linalg
    state = np.random.get_state()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for k in np.flatnonzero(~good):
                turn = float(thetas[k]) + math.pi
                M, shift = np.exp(-1j * turn) * stack[k], 1j * turn
                e = math.frexp(float(np.abs(M).max()))[1]
                if abs(e) > 64:
                    M = np.ldexp(M.view(np.float64), -e).view(M.dtype)
                    shift += e * math.log(2.0)
                np.random.seed(0)
                out[k] = scipy.linalg.logm(M) + shift * np.eye(n)
        except ValueError as exc:
            raise NumericalError(f"logm failed at position {k}: {exc}",
                                 position=int(k)) from None
        finally:
            np.random.set_state(state)
    return out


def _exact_ranks(stack: np.ndarray) -> np.ndarray:
    """The rank of each matrix U on stack's last two axes as its doubles
    read, by Bareiss's fraction-free elimination (1968) on the real form
    [[Re U, -Im U], [Im U, Re U]] of twice U's rank, every matrix of the
    stack at once.  A double is an odd integer times a power of two, so each
    row scales to Python ints (less its common power of two) and every
    division is exact.  A pivot row takes the first nonzero entry of its
    column and is cleared by its own update, so the rows left keep their
    places; a column with no pivot leaves its matrix as it stands."""
    R = np.block([[stack.real, -stack.imag], [stack.imag, stack.real]])
    mant, e = np.frexp(R)
    m = (mant * 2.0 ** 53).astype(np.int64)
    tz = np.maximum(np.frexp((m & -m).astype(np.float64))[1] - 1, 0)
    m >>= tz
    e += tz
    e0 = np.where(m == 0, 1 << 20, e).min(axis=-1, keepdims=True)
    M = m.astype(object) << np.where(m == 0, 0, e - e0).astype(object)
    prev = np.ones(len(M), dtype=object)
    pivots = np.zeros(len(M), dtype=np.intp)
    for j in range(M.shape[-1]):
        nz = M[:, :, j] != 0
        at = np.flatnonzero(nz.any(axis=1))
        sub = M[at, :, j:]
        piv = sub[np.arange(len(at)), nz[at].argmax(axis=1)]
        M[at, :, j:] = (sub * piv[:, None, :1] - sub[:, :, :1] * piv[:, None, :]
                        ) // prev[at, None, None]
        prev[at] = piv[:, 0]
        pivots[at] += 1
    return pivots // 2


# a position whose smallest singular value is at most this many n eps sigma_max
# is singular iff _exact_ranks is below n; up to 7x7 the exactly singular ones with
# entries in {-1, 0, 1, 2}, and the rank fuzz's (to 2^+-1000), stay under 0.7
_SINGULAR_FLAG = 4.0


def _first_rank(stack: np.ndarray, full: bool) -> int | None:
    """The first k where stack[k] has full rank (full=True) or lacks it
    (full=False) as its doubles read, else None.  A zero row or column means
    singular, a clear SVD verdict (_SINGULAR_FLAG) stands, and _exact_ranks
    decides the flagged matrices before the first decided hit.  The stack is
    read _RANK_CHUNK entries at a time, up to the first chunk with a hit."""
    n = stack.shape[-1]
    tol = _SINGULAR_FLAG * n * _EPS
    step = max(1, _RANK_CHUNK // n ** 2)
    for s in range(0, len(stack), step):
        chunk = stack[s:s + step]
        line = ~(chunk.any(axis=-1).all(axis=-1) & chunk.any(axis=-2).all(axis=-1))
        sv = np.linalg.svd(chunk, compute_uv=False)
        ranked = ~line & (sv[:, -1] > tol * sv[:, 0])
        hit = (ranked | line) & (ranked == full)
        flagged = np.flatnonzero(~(ranked | line)[:hit.argmax() if hit.any() else None])
        if len(flagged):
            ranked[flagged] = _exact_ranks(chunk[flagged]) == n
        if (ranked == full).any():
            return s + int((ranked == full).argmax())
    return None


# largest entry deviation of exp(log U(k)) from U(k) that mat_log accepts,
# relative to max |U(k)|: doubles round in proportion to the entries, and
# scaling U by a power of two moves log U by a multiple of I
_ROUNDTRIP_TOL = 1e-9


def _branch_margin(logs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per position k, the least distance of an eigenvalue's imaginary part
    from the edges of the strip (thetas[k], thetas[k] + 2 pi): positive
    exactly when the whole spectrum of logs[k] lies inside, nan when it is
    not finite."""
    return _strip_margin(np.linalg.eigvals(logs), thetas)


def _strip_margin(values: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per row k, the least distance of an imaginary part of values[k] from
    the edges of the strip (thetas[k], thetas[k] + 2 pi)."""
    im = values.imag - thetas[:, None]
    return np.minimum(im, _TWO_PI - im).min(axis=1)


# covers the rounding of _strip_margin's two subtractions of imaginary parts
# below 4 pi, and of the double _TWO_PI against 2 pi
_STRIP_PAD = 8 * _EPS * _TWO_PI


def _fro(A: np.ndarray) -> np.ndarray:
    """An upper bound on the Frobenius norm of each matrix on A's last two
    axes: summed on the matrix times 2^-e, e the binary exponent of its
    largest modulus, so no square overflows and a square that underflows is
    below 2^-1022 of the sum, and rounded up by the sum's error; inf where
    the norm overflows."""
    a = np.abs(A)
    e = np.frexp(a.max(axis=(-2, -1)))[1]
    s = np.sqrt(np.square(np.ldexp(a, -e[:, None, None])).sum(axis=(-2, -1)))
    return np.ldexp(s, e) * (1 + (A.shape[-2] * A.shape[-1] + 4) * _EPS)


def _gamma(n: int) -> float:
    """A bound on the rounding error of a complex n x n matrix product
    relative to |A| |B|, entry by entry, that also covers one complex
    product and one subtraction after it."""
    return (2 * n + 8) * _EPS


def _inv_bound(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """An upper bound on ||V^-1||_2 for each V of a stack, from X, a computed
    inverse: with F = I - X V and ||F|| < 1, V^-1 = (I - F)^-1 X, so
    ||V^-1|| <= ||X|| / (1 - ||F||) (the Neumann series), Frobenius norms
    bounding 2-norms and ||F|| bounded above the computed F's by its
    rounding error; inf where that bound on ||F|| is not below 1."""
    g = _gamma(V.shape[-1])
    fx = _fro(X)
    F = (1 + g) * _fro(np.eye(V.shape[-1]) - X @ V) + g * fx * _fro(V)
    return np.where(F < 1, fx / (1 - F) * (1 + 4 * _EPS), np.inf)


def _eig_radius(M: np.ndarray, V: np.ndarray, values: np.ndarray,
                inv: np.ndarray) -> np.ndarray:
    """Per k, a radius rho such that every eigenvalue of M[k] lies within rho
    of some values[k, i], for any V[k] with ||V[k]^-1||_2 <= inv[k]: if
    M V = V diag(values) + R, then rho = ||V^-1|| ||R|| (Bauer and Fike,
    Numer. Math. 2:137-141, 1960).  ||R||_2 is bounded by the computed
    residual's Frobenius norm plus the residual's rounding error, and a
    few subnormal units for products that underflow; nan or inf where a
    part is not finite."""
    n = M.shape[-1]
    g = _gamma(n)
    fv = _fro(V)
    r = ((1 + g) * _fro(M @ V - V * values[:, None, :])
         + g * fv * (_fro(M) + np.abs(values).max(axis=1)) + n * n * 2.0 ** -1070)
    return inv * r * (1 + 4 * _EPS)


def _invertible(stack: np.ndarray, lam: np.ndarray, good: np.ndarray,
                Vg: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Per position k, True where U(k) = stack[k] is certified invertible:
    at a good position (Vg = V[good], inv >= ||V^-1||_2) every |lam_i|,
    rounded down, exceeds the Bauer-Fike radius about lam, so 0 is no
    eigenvalue of U(k)."""
    sure = np.zeros(len(stack), dtype=bool)
    sure[good] = (np.abs(lam[good]).min(axis=1) * (1 - 2 * _EPS)
                  > _eig_radius(stack[good], Vg, lam[good], inv))
    return sure


def _in_strip(logs_stack: np.ndarray, good: np.ndarray, Vg: np.ndarray,
              inv: np.ndarray, logs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per position k, True where every eigenvalue of B(k) = logs_stack[k] is
    certified inside the strip (thetas[k], thetas[k] + 2 pi): at a good
    position every logs_i is farther than the Bauer-Fike radius about logs
    (and _STRIP_PAD) from both edges."""
    sure = np.zeros(len(logs_stack), dtype=bool)
    sure[good] = (_strip_margin(logs, thetas[good])
                  > _eig_radius(logs_stack[good], Vg, logs, inv) + _STRIP_PAD)
    return sure


def mat_log(A: MatElement) -> MatElement:
    """Logarithm of an invertible matrix over the algebra.

    Per position: pick the branch cut theta through the largest angular gap
    of the spectrum lam of U(k) = V diag(lam) V^-1 (one np.linalg.eig of the
    stack) and compute B(k) = log U(k) by eigenvalue functional calculus
    (_eig_logs).  Two checks certify B(k) as log U(k) on that branch:
    exp(B(k)) = U(k) within _ROUNDTRIP_TOL max |U(k)|, and every eigenvalue
    of B(k) has imaginary part inside (theta, theta + 2 pi).  log_theta is
    the inverse of exp on that strip, and primary matrix functions compose,
    so B(k) = log_theta(exp(B(k))) = log_theta(U(k)).  The round trip
    catches a wrong B, the strip a wrong branch (B + 2 pi i I, say); the
    latter raises OffBranch at the first position whose margin to the strip
    edges is not positive.

    A position is refused as singular (NotInGL) only where its exact rank is
    below n; an eigenvalue that eig flushes to 0 is left to the round trip.

    At a position on the eig path (V well conditioned) the decomposition
    settles both questions by the Bauer-Fike theorem, with ||V^-1|| bounded
    from X, the computed inverse of V that the functional calculus uses
    (_inv_bound): U(k) is invertible where _invertible holds, and B(k)'s
    spectrum lies in the strip where _in_strip holds.  Only the positions
    that a certificate leaves open, those on the logm path among them, go
    to the rank rule (_first_rank) and to the eigenvalues of B(k)
    (_branch_margin), so the verdicts, positions and margins are theirs.
    """
    if A.m != A.n:
        raise DimensionMismatch("logarithm needs a square matrix")
    pl, cl, stack = A.ustack()
    lam, V = np.linalg.eig(stack)
    thetas = _branch_angles(lam)
    cond = np.linalg.cond(V)
    good = np.isfinite(cond) & (cond < 1e10)
    Vg = V[good]
    X = np.linalg.inv(Vg)
    inv = _inv_bound(Vg, X)
    open_ = np.flatnonzero(~_invertible(stack, lam, good, Vg, inv))
    k = _first_rank(stack[open_], False) if len(open_) else None
    if k is not None:
        raise NotInGL(int(open_[k]))
    logs = _log_on_branch(lam[good], thetas[good, None])
    out = _eig_logs(stack, good, Vg, X, logs, thetas)
    err = np.max(np.abs(_expm(out) - stack), axis=(1, 2))
    scale = np.abs(stack).max(axis=(1, 2))
    bad = ~(err <= _ROUNDTRIP_TOL * scale)  # nan included
    if bad.any():
        k = int(bad.argmax())
        raise NumericalError(
            f"logarithm round-trip error {err[k]:.3e} at position {k}")
    # every B(k) is finite here: a nan or inf in it fails the round trip
    open_ = np.flatnonzero(~_in_strip(out, good, Vg, inv, logs, thetas))
    if len(open_):
        margin = _branch_margin(out[open_], thetas[open_])
        bad = ~(margin > 0)
        if bad.any():
            k = int(bad.argmax())
            raise OffBranch(int(open_[k]), float(margin[k]))
    return from_ustack(A.weight, pl, out)


# ---------------------------------------------------------------------------
# SL_n factorization into elementary matrices


def _gauss_factors(stack: np.ndarray) -> tuple[list, np.ndarray]:
    """Reduce each positionwise matrix to diagonal form by Gauss-Jordan
    elimination, recording each row operation as an (i, j, values) triple
    so that input = product(I + values e_ij) * diagonal.

    The forward sweep takes the columns left to right.  Column j's pivot is
    first raised by the stable-rank-1 step (algebra.stable_rank_step):
    where |M_jj| < rho = ||M_{j+1:, j}||, row j gains t_i * row i for each
    i > j, so the pivot becomes e^{i arg M_jj} (|M_jj| + rho) and every
    multiplier is at most 1 in modulus; then the rows below are cleared.
    The backward sweep clears the rows above each pivot, right to left.
    Raises NumericalError naming the first position where a pivot is 0 or
    not finite."""
    M = stack.copy()
    n = M.shape[1]
    ops = []

    def clear(j, rows):
        piv = np.abs(M[:, j, j])
        bad = ~(np.isfinite(piv) & (piv > 0))
        if bad.any():
            k = int(bad.argmax())
            raise NumericalError(f"pivot {piv[k]:.3e} at position {k}: "
                                 f"numerically singular", position=k)
        for i in rows:
            alpha = M[:, i, j] / M[:, j, j]
            if alpha.any():
                M[:, i, :] -= alpha[:, None] * M[:, j, :]
                ops.append((i, j, alpha))

    for j in range(n - 1):
        # t[k, r - j - 1] = t_r at position k, 0 where the pivot is not low
        t = algebra.stable_rank_step(M[:, j, j], M[:, j + 1:, j])
        for r in range(j + 1, n):
            tr = t[:, r - j - 1]
            if tr.any():
                M[:, j, :] += tr[:, None] * M[:, r, :]
                ops.append((j, r, -tr))
        clear(j, range(j + 1, n))
    for j in range(n - 1, 0, -1):
        clear(j, range(j - 1, -1, -1))
    return ops, M


def _whitehead_factors(diag: np.ndarray) -> list:
    """Factor a diagonal matrix of determinant ~1 into elementary factors,
    (i, j, values) triples as _gauss_factors records them.

    diag(d_1, ..., d_n) telescopes into blocks diag(c_j, c_j^-1) on rows
    (j, j+1) with c_j = d_1 ... d_j; each block yields the five factors
    E12(c) E21(-1/c) E12(c-1) E21(1) E12(-1) (the classical commutator
    identity with the two middle shears merged)."""
    P, n, _ = diag.shape
    d = np.diagonal(diag, axis1=1, axis2=2)  # (P, n)
    ops = []
    one = np.ones(P, dtype=complex)
    c = one
    for j in range(n - 1):
        c = c * d[:, j]
        if np.all(c == 1):
            continue
        ops += [(j, j + 1, c), (j + 1, j, -(1.0 / c)), (j, j + 1, c - 1.0),
                (j + 1, j, one), (j, j + 1, -one)]
    return ops


def _apply_factors(factors: list, P: int, n: int) -> np.ndarray:
    """The ordered product of the factors I + values e_ij, (i, j, values)
    triples with values at P positions."""
    prod = np.broadcast_to(np.eye(n, dtype=complex), (P, n, n)).copy()
    for i, j, vals in factors:
        # right-multiply by I + alpha e_ij: column j gains alpha * column i
        prod[:, :, j] += vals[:, None] * prod[:, :, i]
    return prod


def sl_factor(A: MatElement, tol: float = 1e-9) -> tuple[list[tuple], float]:
    """Factor a determinant-one matrix into elementary matrices.

    Gauss-Jordan elimination with each pivot raised by the paper's
    stable-rank-1 step (_gauss_factors), then Whitehead blocks for the
    diagonal that remains: at most n(n-1)/2 + n(n-1) + 5(n-1) factors
    however far A is from the identity.  The ordered product of the emitted
    factors reproduces A within tol per position (verified).  Returns the
    factors, (i, j, values) triples for I + alpha e_ij with alpha's values
    on A's window (prefix length A.period_start), and that verified error,
    the largest entry deviation of their product from A over the window.
    """
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    if A.m != A.n:
        raise DimensionMismatch("factorization needs a square matrix")
    _, _, stack = A.ustack()
    # on the rows times 2^-e, scaled back: a row's scale can over- or underflow LU
    e, rows = algebra._scaled(stack.T)
    dets = algebra._ldexp(np.linalg.det(rows.T), e.sum(axis=0))
    bad = np.argmax(np.abs(dets - 1.0))
    if not abs(dets[bad] - 1.0) <= tol:
        raise NotSL(int(bad), complex(dets[bad]))

    ops, diag = _gauss_factors(stack)
    factors = ops + _whitehead_factors(diag)
    err = float(np.max(np.abs(_apply_factors(factors, len(stack), A.n) - stack)))
    if not err <= tol:  # nan included
        raise NumericalError(
            f"factor product deviates from the input by {err:.3e} > {tol:.3e}")
    return factors, err
