"""`mat solve` on non-square systems, through cli.run, against numpy
references computed here per position: a wide system's x is the
minimal-norm solution pinv(A) b, a tall consistent one answers, and a tall
inconsistent one exits 2 with a left-null certificate.  Each document is
also judged by the benchmark's independent checker, perfbench/verify.py,
as a fixed manifest of reproducers."""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hadalg import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import verify  # noqa: E402


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def matrix(stack):
    """The purely periodic matrix document whose cycle is the stack."""
    return {"weight": "factorial",
            "entries": [[{"cycle": [[z.real, z.imag] for z in stack[:, i, j]]}
                         for j in range(stack.shape[2])]
                        for i in range(stack.shape[1])]}


def solve(tmp_path, A, b, **expect):
    """Run `mat solve` on A x = b; (exit code, the answer or None), after
    verify.check has passed the outcome as a request whose expect is
    expect (planted_position k marks an inconsistent position k)."""
    (tmp_path / "in.json").write_text(json.dumps({"A": matrix(A), "b": matrix(b)}))
    out = tmp_path / "out.json"
    code = cli.run(["mat", "solve", "--json", str(tmp_path / "in.json"),
                    "--out", str(out)])
    req = {"id": 0, "op": "mat solve", "doc": "in.json", "expect": expect}
    assert verify.check(req, code, tmp_path, out) == ("ok", None, "")
    return code, (json.loads(out.read_text()) if out.exists() else None)


def answer_x(out):
    return verify.stacks(out["x"])[0]


@pytest.mark.parametrize("m, n", [(1, 2), (1, 4), (2, 3), (2, 5), (3, 7)])
def test_wide_system_gives_the_minimal_norm_solution(m, n, tmp_path):
    rng = np.random.default_rng(100 * m + n)
    A, b = gaussian(rng, 5, m, n), gaussian(rng, 5, m, 1)
    code, out = solve(tmp_path, A, b)
    assert code == 0
    x = answer_x(out)
    ref = np.array([np.linalg.pinv(Ak) @ bk for Ak, bk in zip(A, b)])
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # pinv(A) b lies in the row space of A: x is orthogonal to the null
    # space, which the last n - m rows of vh span (conjugated)
    for Ak, xk in zip(A, x):
        vh = np.linalg.svd(Ak)[2]
        assert np.linalg.norm(vh[m:] @ xk) <= 1e-12 * np.linalg.norm(xk)


@pytest.mark.parametrize("m, n", [(2, 1), (4, 1), (3, 2), (5, 3), (7, 4)])
def test_tall_consistent_system_answers(m, n, tmp_path):
    rng = np.random.default_rng(200 + 100 * m + n)
    A, x0 = gaussian(rng, 5, m, n), gaussian(rng, 5, n, 1)
    b = A @ x0
    code, out = solve(tmp_path, A, b)
    assert code == 0
    ref = np.array([np.linalg.lstsq(Ak, bk, rcond=None)[0] for Ak, bk in zip(A, b)])
    np.testing.assert_allclose(answer_x(out), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(ref, x0, rtol=0, atol=1e-12 * np.abs(x0).max())


@pytest.mark.parametrize("m, n, k", [(2, 1, 0), (4, 1, 3), (3, 2, 1), (5, 3, 4), (7, 4, 2)])
def test_tall_inconsistent_system_exits_2_with_a_certificate(m, n, k, tmp_path):
    rng = np.random.default_rng(300 + 100 * m + n)
    A = gaussian(rng, 5, m, n)
    b = A @ gaussian(rng, 5, n, 1)
    b[k] += gaussian(rng, m, 1)     # off the range of A(k), which has rank n < m
    code, out = solve(tmp_path, A, b, planted_position=k)
    assert code == 2
    assert out["witness"]["position"] == k
    y = np.array([complex(*v) for v in out["witness"]["y"]])
    assert np.linalg.norm(y.conj() @ A[k]) <= 1e-12 * np.linalg.norm(A[k])
    assert abs(y.conj() @ b[k, :, 0]) > 1e-3 * np.linalg.norm(b[k])


def test_a_tall_column_system_answers_in_little_memory(tmp_path):
    # 300 x 1 at 50 positions: 15,000 values, where a full SVD would hold
    # 300 x 300 values a position (4.5 million) and be refused by the budget
    rng = np.random.default_rng(400)
    A, x0 = gaussian(rng, 50, 300, 1), gaussian(rng, 50, 1, 1)
    b = A @ x0
    tracemalloc.start()
    try:
        code, out = solve(tmp_path, A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 8 * 2 ** 20
    assert np.abs(answer_x(out) - x0).max() <= 1e-14


def test_a_system_over_the_budget_is_refused_before_its_svd(tmp_path, capsys,
                                                            monkeypatch):
    # A's five entries have cycles 3, 5, 7, 11 and 13 (15,015 positions,
    # 75,075 values); b's cycle of 16 joins them at 240,240 positions, whose
    # 5 values each exceed MAX_WINDOW
    rng = np.random.default_rng(500)
    A = {"weight": "factorial",
         "entries": [[{"cycle": [[v, 0.0] for v in rng.standard_normal(c)]}]
                     for c in (3, 5, 7, 11, 13)]}
    b = matrix(gaussian(rng, 16, 5, 1))
    (tmp_path / "in.json").write_text(json.dumps({"A": A, "b": b}))

    def svd(*args, **kwargs):
        raise AssertionError("SVD ran")

    monkeypatch.setattr(np.linalg, "svd", svd)
    out = tmp_path / "out.json"
    assert cli.run(["mat", "solve", "--json", str(tmp_path / "in.json"),
                    "--out", str(out)]) == 4
    assert not out.exists()
    assert capsys.readouterr().err == (
        "numerical failure: joint window of 240240 positions of 5 entries "
        "exceeds the budget of 1048576\n")
