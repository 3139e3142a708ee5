"""mat_log's logarithm agrees with independent ones: the logarithm of a
known spectrum, and the keyhole-contour quadrature of tests/loop_reference.py
where the spectrum is only computed.  Its branch check catches a wrong
branch, and mat log documents keep their output bytes."""

import hashlib
import json
import math
import random

import numpy as np
import pytest
import scipy.linalg

from hadalg import matalg as ma
from hadalg import serialize
from hadalg.cli import run
from hadalg.errors import OffBranch
from hadalg.weights import FACTORIAL

import loop_reference as ref

NODES = 2048


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spectrum(rng, n):
    mods = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
    return mods * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))


def conjugated(rng, n, lam=None):
    """(Q diag(lam) Q*, Q, lam) for a random unitary Q and, unless given, a
    random spectrum lam."""
    lam = spectrum(rng, n) if lam is None else lam
    Q = unitary(rng, n)
    return Q @ np.diag(lam) @ Q.conj().T, Q, lam


def non_normal(rng, n):
    """V diag(lambda) V^-1 for a random, well-conditioned V."""
    V = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    return V @ np.diag(spectrum(rng, n)) @ np.linalg.inv(V)


def near_jordan(n):
    """A bidiagonal block at eigenvalue -1 whose eigenvalues are 1e-13
    apart: the eigenvector basis is too ill-conditioned for the eigenvalue
    path, so _eig_logs takes the turned-logm fallback."""
    U = -np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    U[np.diag_indices(n)] += 1e-13 * np.arange(n)
    return U


def conjugated_jordans(n, positions=17):
    """V J V^-1 at each position, J a Jordan block at a random eigenvalue
    with its diagonal moved by about 1e-9 and V = I + 0.3 G: every position
    takes the logm fallback.  The generator's seed is 1000 n + JORDAN_SEEDS[n]."""
    rng = np.random.default_rng(1000 * n + JORDAN_SEEDS[n])
    out = []
    for _ in range(positions):
        lam = np.exp(1j * rng.uniform(-3, 3)) * rng.uniform(0.5, 2)
        J = lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
        J[np.diag_indices(n)] += 1e-9 * rng.standard_normal(n)
        V = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
        out.append(V @ J @ np.linalg.inv(V))
    return np.array(out)


# seeds whose stacks logm answered differently after np.random.seed(0) and
# np.random.seed(1) while it drew from the caller's global generator
JORDAN_SEEDS = {5: 10, 6: 1}


def mat_log(stack):
    """mat_log of the matrix whose cycle is the stack, as a stack."""
    B = ma.mat_log(ma.from_ustack(FACTORIAL, 0, np.asarray(stack)))
    assert len(B.array) == len(stack)
    return B.array


def known_log(Q, lam):
    """Q diag(log lam) Q* on mat_log's branch for the spectrum lam."""
    return Q @ np.diag(ma._log_on_branch(lam, ref.branch_angle(lam))) @ Q.conj().T


def check_known(cases):
    """mat_log of each Q diag(lam) Q* against the logarithm of lam."""
    B = mat_log([U for U, _, _ in cases])
    for Bk, (_, Q, lam) in zip(B, cases):
        assert np.max(np.abs(Bk - known_log(Q, lam))) <= 1e-12


def check_quadrature(stack):
    """mat_log against the dense-inverse quadrature at every position, on
    the position's branch and with its spectral radii."""
    for U, Bk in zip(stack, mat_log(stack)):
        lam = np.linalg.eigvals(U)
        Bq = ref.contour_log(U, ref.branch_angle(lam),
                             np.abs(lam).min(), np.abs(lam).max(), NODES)
        assert np.max(np.abs(Bk - Bq)) <= 1e-9


class TestAgreesWithDenseInverse:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_unitary_conjugated_spectra(self, n):
        rng = np.random.default_rng(100 + n)
        check_known([conjugated(rng, n) for _ in range(3)])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_non_normal(self, n):
        rng = np.random.default_rng(200 + n)
        check_quadrature(np.array([non_normal(rng, n) for _ in range(3)]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_scalar_negative(self, n):
        check_known([(-np.eye(n, dtype=complex), np.eye(n), -np.ones(n, dtype=complex))])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_eigenvalues_at_the_global_radii(self, n):
        # position 0 holds both the smallest and the largest modulus over the
        # window
        rng = np.random.default_rng(300 + n)
        lam = spectrum(rng, n)
        lam[0], lam[-1] = 0.05 * np.exp(0.7j), 40.0 * np.exp(-2.1j)
        check_known([conjugated(rng, n, lam), conjugated(rng, n)])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_near_jordan_block(self, n):
        U = near_jordan(n)
        V = np.linalg.eig(U)[1]
        assert not np.linalg.cond(V) < 1e10      # _eig_logs falls back to logm
        check_quadrature(U[None])


@pytest.mark.parametrize("n", range(1, 8))
def test_branch_margin_is_at_least_pi_over_n(n):
    """The cut runs through the middle of the largest gap between eigenvalue
    arguments, which is at least 2 pi / n wide."""
    rng = np.random.default_rng(400 + n)
    stack = np.array([conjugated(rng, n)[0] for _ in range(20)]
                     + [non_normal(rng, n) for _ in range(20)])
    thetas = ma._branch_angles(np.linalg.eigvals(stack))
    assert np.all(ma._branch_margin(mat_log(stack), thetas) >= math.pi / n - 1e-9)


@pytest.mark.parametrize("position", [0, 3, 5])
def test_wrong_branch_at_one_position_is_caught(position, monkeypatch):
    """A logarithm off by 2 pi i I still exponentiates back to A, so only the
    branch check can tell it from the right one: every eigenvalue moves 2 pi
    up, past the strip's upper edge by at least pi / n."""
    rng = np.random.default_rng(7)
    stack = np.array([conjugated(rng, 4)[0] for _ in range(6)])
    A = ma.from_ustack(FACTORIAL, 0, stack)
    eig_logs = ma._eig_logs

    def shifted(stack, lam, V, thetas):
        B = eig_logs(stack, lam, V, thetas)
        B[position] += 2j * math.pi * np.eye(stack.shape[1])
        return B

    ma.mat_log(A)
    monkeypatch.setattr(ma, "_eig_logs", shifted)
    with pytest.raises(OffBranch) as ei:
        ma.mat_log(A)
    assert ei.value.position == position
    assert ei.value.margin <= -math.pi / 4 + 1e-9


@pytest.mark.parametrize("n", sorted(JORDAN_SEEDS))
def test_logm_fallback_neither_reads_nor_moves_the_global_generator(n):
    """logm's 1-norm estimates draw random vectors from numpy's global
    generator; mat_log runs them from a fixed seed and puts the caller's
    state back."""
    stack = conjugated_jordans(n)
    assert not np.any(np.linalg.cond(np.linalg.eig(stack)[1]) < 1e10)
    logs = []
    for seed in (0, 1):
        np.random.seed(seed)
        kind, keys, *rest = np.random.get_state()
        logs.append(mat_log(stack))
        after_kind, after_keys, *after_rest = np.random.get_state()
        assert (after_kind, after_rest) == (kind, rest)
        assert np.array_equal(after_keys, keys)
    assert logs[0].tobytes() == logs[1].tobytes()


@pytest.mark.parametrize("lam, n", [(2, 2), (-1, 2), (1j, 3)])
def test_mat_log_answers_exact_jordan_blocks(lam, n, tmp_path):
    """lam I + N with N the shift: log = log(lam) I + N / lam - N^2 / (2 lam^2),
    with log(lam) on mat_log's branch."""
    U = lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    B = run_log(U[None], tmp_path)[0]
    theta = ref.branch_angle(np.array([lam]))
    want = (ma._log_on_branch(np.array([lam]), theta)[0] * np.eye(n)
            + np.diag(np.full(n - 1, 1 / lam), 1)
            - np.diag(np.full(n - 2, 1 / (2 * lam ** 2)), 2))
    assert np.max(np.abs(B - want)) <= 1e-14
    assert np.max(np.abs(scipy.linalg.expm(B) - U)) <= 1e-15


# -- `mat log` documents -------------------------------------------------------


def matrix_doc(stack):
    """Every position in the cycle; entry (i, j) is the sequence of U(k)[i, j]."""
    m, n = stack.shape[1:]
    return {"weight": "factorial",
            "entries": [[{"prefix": [], "cycle": [[v.real, v.imag] for v in stack[:, i, j]]}
                         for j in range(n)] for i in range(m)]}


def run_log(stack, tmp_path):
    """`mat log` on the matrix whose cycle is the stack; its log as a stack."""
    doc, out = tmp_path / "a.json", tmp_path / "log.json"
    doc.write_text(json.dumps(matrix_doc(stack)))
    assert run(["mat", "log", "--json", str(doc), "--out", str(out)]) == 0
    _, _, B = serialize.matrix_from_json(json.loads(out.read_text())["log"]).ustack()
    assert len(B) == len(stack)
    return B


def test_constants_at_every_scale(tmp_path):
    """[[m]] from 1e-3 to 1e3 has log m + 2 pi i on mat_log's branch, whose
    cut for a positive spectrum is the negative axis with arguments in
    (pi, 3 pi)."""
    for m in np.geomspace(1e-3, 1e3, 61):
        B = run_log(np.array([[[m]]], dtype=complex), tmp_path)
        assert abs(B[0, 0, 0] - complex(math.log(m), 2 * math.pi)) <= 1e-12, m


@pytest.mark.parametrize("m", [3e6, 1e300])
def test_large_constants_pass_the_scaled_round_trip(m, tmp_path):
    """exp(log m) misses m by rounding alone: by 2.4e-9 at 3e6 and 2.4e286
    at 1e300, about 1e-14 of m and over an absolute 1e-9.  The round trip's
    bound grows with max |U(k)|, so both answer log m + 2 pi i."""
    B = run_log(np.array([[[m]]], dtype=complex), tmp_path)
    want = complex(math.log(m), 2 * math.pi)
    assert abs(B[0, 0, 0] - want) <= 1e-15 * abs(want)
    assert abs(scipy.linalg.expm(B[0])[0, 0] - m) <= 1e-13 * m


@pytest.mark.parametrize("n", range(1, 8))
def test_normal_with_moduli_from_005_to_40(n, tmp_path):
    rng = np.random.default_rng(500 + n)
    mods = np.geomspace(40.0, 0.05, n) if n > 1 else np.array([40.0])
    cases = [conjugated(rng, n, mods * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
             for _ in range(2)]
    B = run_log(np.array([U for U, _, _ in cases]), tmp_path)
    for Bk, (_, Q, lam) in zip(B, cases):
        assert np.max(np.abs(Bk - known_log(Q, lam))) <= 1e-12


def seven_by_seven():
    """u_k (3 I + N_k / 8) with small Gaussian-integer N_k and a unit u_k, so
    every input value is exact in the document."""
    rng = random.Random(6)
    units = [1, -1, 1j, -1j, (1 + 1j) / 2]
    stack = [units[k] * (3 * np.eye(7) + np.array(
        [[complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 8 for _ in range(7)]
         for _ in range(7)])) for k in range(5)]
    return np.array(stack)


def jordan_like():
    """Two 2x2 blocks [[lam, 1], [0, lam + 2^-10]]: non-normal with close
    eigenvalues, on the eigenvalue path."""
    d = 2.0 ** -10
    return np.array([[[2, 1], [0, 2 + d]], [[-1j, 1], [0, -1j + d]]], dtype=complex)


@pytest.mark.parametrize("stack, digest", [
    (seven_by_seven(), "fcb1faa0e3ed9858a910ce270ab85e215649a5bbc4c4d0b15ae23b940ff736e9"),
    (jordan_like(), "3b8b982c800755e12c916455c4dbf25fd145a56d056af60c3c560ac0b436f3f1"),
], ids=["7x7-5-positions", "2x2-jordan-like"])
def test_mat_log_output_bytes(stack, digest, tmp_path):
    doc, out = tmp_path / "a.json", tmp_path / "log.json"
    doc.write_text(json.dumps(matrix_doc(stack)))
    assert run(["mat", "log", "--json", str(doc), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
