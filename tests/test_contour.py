"""The mat_log cross-check: the contour quadrature on the Schur form agrees
with the dense-inverse quadrature, still catches a wrong branch, and mat log
documents keep their output bytes."""

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
from hadalg.errors import QuadratureDisagreement
from hadalg.weights import FACTORIAL

import loop_reference as ref

NODES = 2048


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spectrum(rng, n):
    mods = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
    return mods * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))


def conjugated(rng, n):
    """Q diag(lambda) Q* for a random unitary Q and a random spectrum."""
    Q = unitary(rng, n)
    return Q @ np.diag(spectrum(rng, n)) @ Q.conj().T


def non_normal(rng, n):
    """V diag(lambda) V^-1 for a random, well-conditioned V."""
    V = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    return V @ np.diag(spectrum(rng, n)) @ np.linalg.inv(V)


def near_jordan(n):
    """A bidiagonal block at eigenvalue -1 whose eigenvalues are 1e-13
    apart: the eigenvector basis is too ill-conditioned for the eigenvalue
    path, so _eig_log takes the turned-logm fallback."""
    U = -np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    U[np.diag_indices(n)] += 1e-13 * np.arange(n)
    return U


def check(stack):
    """Both quadratures at every position, with mat_log's branch and radii."""
    eigs = np.linalg.eigvals(stack)
    r, R = float(np.abs(eigs).min()), float(np.abs(eigs).max())
    grid, out = ma._contour_grid(NODES), []
    for U, lam in zip(stack, eigs):
        theta = ma._branch_angle(lam)
        Bq = ma._contour_log(U, theta, r, R, grid)
        assert np.max(np.abs(Bq - ref.contour_log(U, theta, r, R, NODES))) <= 1e-12
        out.append((U, theta, Bq))
    return out


class TestAgreesWithDenseInverse:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_unitary_conjugated_spectra(self, n):
        rng = np.random.default_rng(100 + n)
        stack = np.array([conjugated(rng, n) for _ in range(3)])
        for U, theta, Bq in check(stack):
            assert np.linalg.norm(Bq - ma._eig_log(U, theta), 2) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 8))
    def test_non_normal(self, n):
        rng = np.random.default_rng(200 + n)
        check(np.array([non_normal(rng, n) for _ in range(3)]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_scalar_negative(self, n):
        (_, _, Bq), = check(-np.eye(n, dtype=complex)[None])
        assert np.max(np.abs(Bq - 1j * math.pi * np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 8))
    def test_eigenvalues_at_the_global_radii(self, n):
        # position 0 holds both the smallest and the largest modulus over the
        # window, so the contour passes r / 2 and 1 away from its spectrum
        rng = np.random.default_rng(300 + n)
        lam = spectrum(rng, n)
        lam[0], lam[-1] = 0.05 * np.exp(0.7j), 40.0 * np.exp(-2.1j)
        Q = unitary(rng, n)
        stack = np.array([Q @ np.diag(lam) @ Q.conj().T, conjugated(rng, n)])
        check(stack)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_near_jordan_block(self, n):
        U = near_jordan(n)
        V = np.linalg.eig(U)[1]
        assert not np.linalg.cond(V) < 1e10      # _eig_log falls back to logm
        (_, theta, Bq), = check(U[None])
        assert np.linalg.norm(Bq - ma._eig_log(U, theta), 2) <= 1e-9


@pytest.mark.parametrize("position", [0, 3, 5])
def test_wrong_branch_at_one_position_is_caught(position, monkeypatch):
    """A logarithm off by 2 pi i I still exponentiates back to A, so only the
    quadrature can tell it from the right one."""
    rng = np.random.default_rng(7)
    stack = np.array([conjugated(rng, 4) for _ in range(6)])
    A = ma.from_ustack(FACTORIAL, 0, stack)
    eig_log, calls = ma._eig_log, []

    def shifted(U, theta):
        calls.append(None)
        B = eig_log(U, theta)
        return B + 2j * math.pi * np.eye(len(U)) if len(calls) == position + 1 else B

    ma.mat_log(A)
    monkeypatch.setattr(ma, "_eig_log", shifted)
    with pytest.raises(QuadratureDisagreement) as ei:
        ma.mat_log(A)
    assert ei.value.position == position
    assert abs(ei.value.deviation - 2 * math.pi) < 1e-6
    assert "node count" not in str(ei.value)     # no flag sets one


@pytest.mark.parametrize("lam, n", [(2, 2), (-1, 2), (1j, 3)])
def test_mat_log_answers_exact_jordan_blocks(lam, n, tmp_path):
    """lam I + N with N the shift: log = log(lam) I + N / lam - N^2 / (2 lam^2),
    with log(lam) on mat_log's branch."""
    U = lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
    doc, out = tmp_path / "a.json", tmp_path / "log.json"
    doc.write_text(json.dumps(matrix_doc(U[None])))
    assert run(["mat", "log", "--json", str(doc), "--out", str(out)]) == 0
    B = serialize.matrix_from_json(json.loads(out.read_text())["log"]).U(0)
    theta = ma._branch_angle(np.array([lam]))
    want = (ma._log_on_branch(np.array([lam]), theta)[0] * np.eye(n)
            + np.diag(np.full(n - 1, 1 / lam), 1)
            - np.diag(np.full(n - 2, 1 / (2 * lam ** 2)), 2))
    assert np.max(np.abs(B - want)) <= 1e-14
    assert np.max(np.abs(scipy.linalg.expm(B) - U)) <= 1e-15


# -- golden output bytes of `mat log` ------------------------------------------


def matrix_doc(stack):
    """Every position in the cycle; entry (i, j) is the sequence of U(k)[i, j]."""
    m, n = stack.shape[1:]
    return {"weight": "factorial",
            "entries": [[{"prefix": [], "cycle": [[v.real, v.imag] for v in stack[:, i, j]]}
                         for j in range(n)] for i in range(m)]}


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
