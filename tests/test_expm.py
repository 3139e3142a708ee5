"""matalg._expm, the batched degree-13 Pade scaling and squaring behind
`mat exp` and `mat log`'s round trip, against scipy.linalg.expm (a test
oracle only), and `mat exp`'s refusal of an exponential that overflows."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from hadalg.cli import run
from hadalg.matalg import _expm

NORMS = (1e-8, 1e-4, 1e-2, 0.3, 1.0, 5.0, 20.0, 50.0)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def jordan_like(rng, P, n):
    """lam I + 10 N + 1e-3 G (N the shift): strongly non-normal."""
    lam = gaussian(rng, P)[:, None, None]
    return lam * np.eye(n) + 10 * np.eye(n, k=1) + 1e-3 * gaussian(rng, P, n, n)


KINDS = {
    "gaussian": lambda rng, P, n: gaussian(rng, P, n, n),
    "upper": lambda rng, P, n: np.triu(gaussian(rng, P, n, n)),
    "lower": lambda rng, P, n: np.tril(gaussian(rng, P, n, n)),
    "jordan-like": jordan_like,
}


def with_norms(stack):
    """stack[k] scaled to 1-norm NORMS[k % len(NORMS)]."""
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    want = np.resize(NORMS, len(stack))
    return stack * (want / norms)[:, None, None]


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 8))
def test_agrees_with_scipy(kind, n):
    rng = np.random.default_rng(100 * n + list(KINDS).index(kind))
    stack = with_norms(KINDS[kind](rng, 3 * len(NORMS), n))
    E = _expm(stack)
    for k, A in enumerate(stack):
        S = scipy.linalg.expm(A)
        assert np.abs(E[k] - S).max() <= 1e-12 * max(1.0, np.abs(S).max()), k


def test_diagonal_and_zero_positions_are_exp_of_the_diagonal():
    """Off-diagonal zeros of either sign give +0.0, as scipy's rule does."""
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        stack = np.zeros((4, n, n), dtype=complex)
        stack[1:, range(n), range(n)] = 30 * gaussian(rng, 3, n)
        stack[2][~np.eye(n, dtype=bool)] = complex(-0.0, -0.0)
        E = _expm(stack)
        want = np.zeros_like(stack)
        want[:, range(n), range(n)] = np.exp(stack[:, range(n), range(n)])
        assert bits(E) == bits(want)
        assert bits(E) == bits(scipy.linalg.expm(stack))


def test_triangular_positions_have_positive_zeros_in_the_other_triangle():
    rng = np.random.default_rng(6)
    for n in range(2, 8):
        stack = 10 * gaussian(rng, 2, n, n)
        stack[0][np.tril_indices(n, -1)] = complex(-0.0, -0.0)
        stack[1][np.triu_indices(n, 1)] = complex(-0.0, -0.0)
        E = _expm(stack)
        for other in (np.tril(E[0], -1), np.triu(E[1], 1)):
            assert bits(other) == bits(np.zeros((n, n), dtype=complex))


def test_mixed_stack_equals_its_positions_one_at_a_time():
    """Diagonal, triangular and generic positions whose scalings s(k) run
    from 0 to 8 in one stack."""
    rng = np.random.default_rng(7)
    n = 4
    stack = gaussian(rng, 8, n, n)
    stack[[0, 4]] = np.diag(gaussian(rng, n))
    stack[[1, 5]] = np.triu(stack[[1, 5]])
    stack[[2, 6]] = np.tril(stack[[2, 6]])
    stack *= np.array([1e-3, 0.5, 3.0, 40.0, 2.0, 100.0, 200.0, 1e-6])[:, None, None]
    E = _expm(stack)
    assert np.isfinite(E).all()
    for k in range(len(stack)):
        assert bits(E[k]) == bits(_expm(stack[k:k + 1])[0]), k


@pytest.mark.parametrize("A", [
    [[1e308, 1e308], [1e308, 1e308]],
    [[1e308 + 1e308j, 1e308j], [1e308, 1e308 + 1e308j]],
    [[1e300, 1.0], [1.0, 1e300]],
    [[710.0, 1.0], [0.0, 1.0]],
], ids=["norm-overflows", "complex-norm-overflows", "near-max", "triangular"])
def test_an_exponential_past_the_double_range_is_not_finite(A):
    """exp A is past the double range, even where ||A||_1 is too."""
    E = _expm(np.array([np.eye(2), A], dtype=complex))
    assert np.isfinite(E[0]).all()
    assert not np.isfinite(E[1]).all()


@pytest.mark.parametrize("A", [
    [[-1e308, 1e308], [0.0, -1e308]],
    [[-1e308, 1e308], [1e300, -1e308]],
    [[-1e308, 1e308j], [-1e308, -1e308]],
], ids=["triangular", "real", "complex"])
def test_a_norm_past_the_double_range_still_sets_the_scaling(A):
    """Their 1-norms overflow and every eigenvalue has real part below
    -2e307, so exp A underflows to 0 (scipy.linalg.expm answers nan)."""
    E = _expm(np.array([A], dtype=complex))
    assert np.array_equal(E, np.zeros_like(E))


def matrix_doc(stack):
    m, n = stack.shape[1:]
    return {"weight": "factorial", "entries": [[
        {"cycle": [[v.real, v.imag] for v in stack[:, i, j]]}
        for j in range(n)] for i in range(m)]}


@pytest.mark.parametrize("stack, position", [
    ([[[800.0]]], 0),
    ([[[1e300, 1.0], [1.0, 1e300]]], 0),
    ([[[1e308, 1e308], [1e308, 1e308]]], 0),
    ([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
      [[709.0, 5.0], [5.0, 709.0]]], 2),
], ids=["800", "near-max", "norm-overflows", "third-of-three"])
def test_mat_exp_that_overflows_exits_4_naming_the_position(stack, position,
                                                           tmp_path, capsys):
    doc = tmp_path / "a.json"
    doc.write_text(json.dumps(matrix_doc(np.array(stack, dtype=complex))))
    argv = ["mat", "exp", "--json", str(doc), "--out", str(tmp_path / "out.json")]
    # outside pytest a warning prints to stderr, so none may be raised
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 4
    assert [str(w.message) for w in caught] == []
    # the answer is refused where it is written, at the first entry's cycle
    # (these documents have no prefix) and the first position not finite
    err = capsys.readouterr().err
    assert err == ("numerical failure: exp.entries[0][0].cycle is not finite "
                   f"at index {position}\n")
    assert not (tmp_path / "out.json").exists()
