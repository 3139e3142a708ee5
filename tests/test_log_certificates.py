"""mat_log certifies from its one eigendecomposition.  At a position on the
eig path, Bauer-Fike bounds settle whether U(k) is invertible and whether
the spectrum of its logarithm lies inside the branch strip; the rank rule
and the eigenvalues of the logarithm run only where they do not.  The
certificates are sound on hostile draws, mat_log answers as the rule that
ran both screens everywhere (loop_reference.mat_log_screened), and its
round trip is relative to the entries, so scaling by a power of two keeps
every verdict."""

import contextlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hadalg import algebra as alg
from hadalg import matalg as ma
from hadalg.cli import run
from hadalg.errors import NotInGL, NumericalError, OffBranch
from hadalg.weights import FACTORIAL

import loop_reference as ref

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

KINDS = ("normal", "near-jordan", "row-scaled", "singular", "exponents")


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw(rng, n, kind):
    """An n x n matrix of one kind: "normal" (Q diag(lam) Q*, |lam| in
    [0.3, 3.3]), "near-jordan" (a Jordan block at a unit lam whose diagonal
    is spread by 10^-1..10^-13, conjugated by a well-conditioned W),
    "row-scaled" (a generic matrix with one row times 2^-10..2^-89),
    "singular" (a generic matrix with one row repeated: exact rank n - 1) or
    "exponents" (a generic matrix with each row times 2^-300 or 2^300)."""
    if kind == "normal":
        q = np.linalg.qr(cgauss(rng, n, n))[0]
        lam = np.exp(rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(0, 2 * math.pi, n))
        return q @ np.diag(lam) @ q.conj().T
    if kind == "near-jordan":
        W = np.eye(n) + 0.3 * cgauss(rng, n, n) / math.sqrt(n)
        J = np.exp(1j * rng.uniform(0, 2 * math.pi)) * np.eye(n) + np.diag(np.ones(n - 1), 1)
        J[np.diag_indices(n)] += 10.0 ** -rng.integers(1, 14) * np.arange(n)
        return W @ J @ np.linalg.inv(W)
    U = cgauss(rng, n, n)
    if kind == "row-scaled":
        U[rng.integers(n)] *= 2.0 ** -int(rng.integers(10, 90))
    elif kind == "singular":
        i, j = rng.choice(n, 2, replace=False)
        U[i] = U[j]
    else:
        U = alg._ldexp(U, rng.choice([-300, 300], (n, 1)))
    return U


def stacks():
    """Per n = 2..7 and kind, a seeded stack of 6 positions of that kind, and
    per n one stack of all five kinds mixed without the singular one."""
    rng = np.random.default_rng(36)
    for n in range(2, 8):
        for kind in KINDS:
            yield n, kind, np.array([draw(rng, n, kind) for _ in range(6)])
        mixed = [draw(rng, n, kind) for kind in KINDS if kind != "singular" for _ in range(3)]
        yield n, "mixed", np.array([mixed[i] for i in rng.permutation(len(mixed))])


STACKS = list(stacks())
IDS = [f"{n}-{kind}" for n, kind, _ in STACKS]


def log_of(stack, d):
    """The eig-path logarithms of the decomposition d of stack (0 at the
    other positions), and the logs of its eigenvalues."""
    good, thetas = d["good"], d["thetas"]
    logs = ma._log_on_branch(d["lam"][good], thetas[good, None])
    out = np.zeros_like(stack)
    out[good] = ma._eig_logs(stack[good], np.ones(good.sum(), dtype=bool), d["Vg"],
                             d["X"], logs, thetas[good])
    return out, logs


def outcome(log, stack):
    """The exception's type, message and position, or the answer's bits."""
    try:
        return "answer", log(stack).tobytes()
    except (NotInGL, NumericalError, OffBranch) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def mat_log_stack(stack):
    return ma.mat_log(ma.from_ustack(FACTORIAL, 0, stack)).array


@pytest.mark.parametrize("n, kind, stack", STACKS, ids=IDS)
def test_certificates_are_sound(n, kind, stack):
    """Wherever the invertibility certificate holds, elimination over
    Fractions finds full rank; wherever the branch certificate holds, the
    eigenvalues of the logarithm lie inside the strip."""
    d = ref.eig_decomposition(stack)
    sure = ma._invertible(stack, d["lam"], d["good"], d["Vg"], d["inv"])
    for k in np.flatnonzero(sure):
        assert ref.exact_rank(stack[k]) == n, k
    with np.errstate(all="ignore"):  # log 0 at a singular position
        out, logs = log_of(stack, d)
        inside = ma._in_strip(out, d["good"], d["Vg"], d["inv"], logs, d["thetas"])
    for k in np.flatnonzero(inside):
        assert ma._branch_margin(out[k:k + 1], d["thetas"][k:k + 1])[0] > 0, k
    if kind == "normal":  # the certificates are not vacuous
        assert sure.all() and inside.all()


@pytest.mark.parametrize("n, kind, stack", STACKS, ids=IDS)
def test_outcome_is_the_screened_rules(n, kind, stack):
    """The whole stack and each position alone: the same exception, position
    and message as the rule that screens every position, or the same bits."""
    canonical = ma.from_ustack(FACTORIAL, 0, stack).array
    with np.errstate(all="ignore"):
        assert outcome(mat_log_stack, canonical) == outcome(ref.mat_log_screened, canonical)
        for U in canonical:
            assert outcome(mat_log_stack, U[None]) == outcome(ref.mat_log_screened, U[None])


def test_singular_position_is_refused_where_the_rank_rule_refuses():
    rng = np.random.default_rng(3601)
    stack = np.array([draw(rng, 4, "normal") for _ in range(9)])
    stack[6] = draw(rng, 4, "singular")
    with pytest.raises(NotInGL) as ei:
        mat_log_stack(stack)
    assert ei.value.position == 6
    assert outcome(mat_log_stack, stack) == outcome(ref.mat_log_screened, stack)


@pytest.mark.parametrize("position", [0, 3, 5])
def test_wrong_branch_keeps_the_screened_margin(position, monkeypatch):
    """A logarithm moved by 2 pi i I at one position raises OffBranch there,
    with the margin that the eigenvalues of every logarithm give."""
    rng = np.random.default_rng(7)
    stack = np.array([draw(rng, 4, "normal") for _ in range(6)])
    eig_logs = ma._eig_logs

    def shifted(stack, *decomposition):
        B = eig_logs(stack, *decomposition)
        B[position] += 2j * math.pi * np.eye(stack.shape[1])
        return B

    monkeypatch.setattr(ma, "_eig_logs", shifted)
    got = outcome(mat_log_stack, stack)
    assert got[0] == "OffBranch" and got[2] == position
    assert got == outcome(ref.mat_log_screened, stack)


def test_inverse_bound_holds_for_near_singular_v():
    """_inv_bound is at least ||V^-1||_F / sqrt(n) <= ||V^-1||_2, with
    ||V^-1||_F exact, for rounded products of n x (n - 1) and (n - 1) x n
    matrices (invertible only through rounding, so np.linalg.inv returns a
    poor inverse), and within a factor 3 of it for well-conditioned V."""
    rng = np.random.default_rng(3602)
    under = 0
    for trial in range(60):
        n = 2 + trial % 3
        V = cgauss(rng, n, n - 1) @ cgauss(rng, n - 1, n)
        if trial % 4 == 0:
            V = np.eye(n) + 0.3 * cgauss(rng, n, n)
        try:
            X = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            continue
        exact = ref.inverse_frobenius_sq(V)
        bound = float(ma._inv_bound(V[None], X[None])[0])
        assert bound == math.inf or Fraction(bound) ** 2 * n >= exact, trial
        under += Fraction(float(np.linalg.norm(X))) ** 2 * n < exact
        if trial % 4 == 0:
            assert bound ** 2 <= 9 * float(exact)
    assert under >= 5  # X alone understates ||V^-1|| on these draws


def test_seed_1_mat_log_runs_one_spectral_pass(tmp_path, monkeypatch):
    """Every position of seed 1's mat log documents is certified, so neither
    the rank rule nor the eigenvalues of the logarithms run."""
    def refuse(*args):
        raise AssertionError("a second spectral pass ran")

    manifest = gen.generate("matrix-positions", 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ma, "_first_rank", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    logs = [req for req in manifest["requests"] if req["op"] == "mat log"]
    assert len(logs) == 6
    for req in logs:
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(req["argv"] + ["--out", str(tmp_path / "out.json")]) == 0


def triangular(n, k):
    """Upper triangular, diagonal 1..n, 1e6 above it, times 2^k."""
    U = np.triu(np.full((n, n), 1e6, dtype=complex), 1) + np.diag(np.arange(1.0, n + 1))
    return alg._ldexp(U, k)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("k", [-70, -300])
def test_small_non_normal_logarithms_are_refused(n, k, tmp_path):
    """Below unit scale the round trip is relative: exp(B) must reproduce
    U within 1e-9 max |U|, which these logarithms miss by far."""
    doc = tmp_path / "u.json"
    doc.write_text(json.dumps(ref.matrix_to_json("factorial", triangular(n, k)[None], 0)))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(["mat", "log", "--json", str(doc), "--out", str(tmp_path / "o.json")]) == 4
    assert "round-trip error" in err.getvalue()


def scaled_stacks():
    """Stacks whose entries, times 2^+-600, stay in the normal range: normal
    and non-normal positions, and the triangular ones above."""
    rng = np.random.default_rng(3603)
    for n in range(1, 8):
        yield np.array([draw(rng, n, "normal") for _ in range(4)])
        yield np.array([draw(rng, n, kind) for kind in ("row-scaled", "near-jordan")
                        for _ in range(2)]) if n > 1 else cgauss(rng, 3, 1, 1)
        yield triangular(n, 0)[None]


# (stack of scaled_stacks, k) where mat_log(2^k U) refuses what mat_log(U)
# answers.  The functional calculus adds k ln 2 to each log lam_i, and
# V (D + k ln 2 I) X rounds in proportion to |k| ln 2 cond(V): at the
# near-Jordan position 2 of stack 4 (cond(V) = 2.3e5) the round trip misses
# by 4e-9 at |k| = 600.  A pair leaves this set with the change that takes
# the logarithm of 2^-e U(k) and adds e ln 2 I, as the logm path does.
SCALE_REFUSALS = {(4, -600), (4, 600)}


def verdict(outcome):
    """"answer", or the exception's type and the position its message names."""
    if outcome[0] == "answer":
        return "answer"
    return outcome[0], re.search(r"at position (\d+)", outcome[1]).group(1)


@pytest.mark.parametrize("k", [-600, -70, 70, 600])
def test_log_answers_alike_at_every_power_of_two(k):
    """mat_log(2^k U) answers exactly where mat_log(U) does, with
    log U + k ln 2 I; a refusal is the same exception at the same position.
    The pairs of SCALE_REFUSALS, and only they, break the first rule."""
    answered, refused = 0, set()
    for i, stack in enumerate(scaled_stacks()):
        with np.errstate(all="ignore"):
            base, moved = (outcome(mat_log_stack, s) for s in (stack, alg._ldexp(stack, k)))
        if verdict(base) != verdict(moved):
            refused.add((i, k))
        elif base[0] == "answer":
            answered += 1
            B = np.frombuffer(base[1], dtype=complex).reshape(stack.shape)
            Bk = np.frombuffer(moved[1], dtype=complex).reshape(stack.shape)
            shift = k * math.log(2.0) * np.eye(stack.shape[1])
            assert np.abs(Bk - B - shift).max() <= 1e-8 * (np.abs(B).max() + abs(k))
    assert refused == {pair for pair in SCALE_REFUSALS if pair[1] == k}
    assert answered >= 10


@pytest.mark.parametrize("k", [-600, -70, 70, 600])
def test_det_scales_by_the_power_of_two_bit_for_bit(k):
    """mat_det(2^k U) = 2^(k n) det U wherever every product stays normal:
    the stacked expansion is products and sums, each exact under the
    scaling."""
    rng = np.random.default_rng(3604)
    checked = 0
    for n in range(1, 8):
        if abs(k) * n > 990:  # a product of n entries reaches about 2^23
            continue
        stack = cgauss(rng, 5, n, n)
        det = ma.mat_det(ma.from_ustack(FACTORIAL, 0, stack))
        moved = ma.mat_det(ma.from_ustack(FACTORIAL, 0, alg._ldexp(stack, k)))
        want = alg._ldexp(ma._take(det.u, 5), k * n)
        assert ma._take(moved.u, 5).tobytes() == want.tobytes()
        checked += 1
    assert checked >= (1 if abs(k) == 600 else 7)
