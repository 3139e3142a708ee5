"""`mat det`, `mat log`, `mat solve` and `mat sl-factor` keep their output
bytes.

Each document is built here from its own numpy seed: n = 2..7 (det-edge
from n = 1), windows of up to 129 positions, entries whose windows differ
in length.  A det whose stacked value has a zero or non-finite part (the
real-valued and det-edge documents) takes the expansion over the entries,
and one solve per size is inconsistent at one position, so its exit 2
witness is pinned too.  Every sl-factor document has one position whose
pivots are all 0, so each of its columns boosts, and every position of a
log-jordan document takes the logm fallback.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy.linalg

from hadalg.cli import run

from test_contour import conjugated_jordans


def cells(values, pl):
    return {"prefix": [[v.real, v.imag] for v in values[:pl]],
            "cycle": [[v.real, v.imag] for v in values[pl:]]}


def stack_doc(stack, pl=1):
    """Entry (i, j) is the sequence of stack[:, i, j], periodic from pl on."""
    m, n = stack.shape[1:]
    return {"weight": "factorial",
            "entries": [[cells(stack[:, i, j], pl) for j in range(n)]
                        for i in range(m)]}


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def det_doc(n, real):
    """Entry (i, j) with prefix length 0 or 1 and a cycle of 2^e values,
    e <= n; entry (0, 0) has both the prefix and the full cycle, so the
    joint window has 1 + 2^n positions."""
    rng = np.random.default_rng(700 + 10 * n + real)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            pl = 1 if i == j == 0 else int(rng.integers(0, 2))
            cl = 2 ** (n if i == j == 0 else int(rng.integers(0, n + 1)))
            if real:
                vals = rng.integers(-3, 4, pl + cl).astype(complex)
            else:
                vals = gaussian(rng, pl + cl)
            row.append(cells(vals, pl))
        rows.append(row)
    return {"weight": "factorial", "entries": rows}


def det_edge_doc(n):
    """Entry (i, j) has a prefix of 0..3 and a cycle of 1..3 values, real
    parts in {-1, 0, 1} and imaginary parts 0, every zero of either sign;
    about one value in 4 n^2 is a Gaussian scaled by 10^100..10^300
    (products overflow) and as many by 10^-320..10^-200 (products
    underflow).  The seeds put both kinds in every document, and for n >= 2
    make the expansion over the entries differ from the stacked one in the
    sign of a zero part."""
    rng = np.random.default_rng(DET_EDGE_SEEDS[n])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            pl, cl = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            size = pl + cl
            vals = np.empty(size, dtype=complex)
            vals.real = np.copysign(rng.choice([-1, 0, 0, 0, 1], size),
                                    rng.choice([1.0, -1.0], size))
            vals.imag = rng.choice([0.0, -0.0], size)
            kind = rng.integers(0, 4 * n * n, size)
            big = gaussian(rng, size) * 10.0 ** rng.integers(100, 301, size)
            tiny = gaussian(rng, size) * 10.0 ** -rng.integers(200, 321, size)
            vals = np.where(kind == 0, big, np.where(kind == 1, tiny, vals))
            row.append(cells(vals, pl))
        rows.append(row)
    return {"weight": "factorial", "entries": rows}


DET_EDGE_SEEDS = {1: 1201, 2: 1306, 3: 1444, 4: 1599, 5: 1731, 6: 1965, 7: 12529}


def log_doc(n):
    """exp of a random matrix at each of 1 + 2^n positions."""
    rng = np.random.default_rng(800 + n)
    return stack_doc(scipy.linalg.expm(0.8 * gaussian(rng, 1 + 2 ** n, n, n)))


def solve_doc(n, consistent):
    """A x = b at 1 + 2^n positions; every third position of A has rank
    n - 1, and b = A x for a random x, moved off the range of A at
    position 3 when not consistent."""
    rng = np.random.default_rng(900 + 10 * n + consistent)
    P = 1 + 2 ** n
    A = gaussian(rng, P, n, n)
    A[::3] = gaussian(rng, len(A[::3]), n, n - 1) @ gaussian(rng, len(A[::3]), n - 1, n)
    b = A @ gaussian(rng, P, n, 1)
    if not consistent:
        b[3] += gaussian(rng, n, 1)
    return {"A": stack_doc(A), "b": stack_doc(b)}


def sl_doc(n):
    """exp of a traceless random matrix at n - 1 + 2^(n-1) positions,
    periodic from position n - 1 on; one position is the cyclic shift times
    unit phases of product (-1)^(n-1), determinant one with every pivot 0."""
    rng = np.random.default_rng(1000 + n)
    P = n - 1 + 2 ** (n - 1)
    X = 0.8 * gaussian(rng, P, n, n)
    X -= (np.trace(X, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    stack = scipy.linalg.expm(X)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    phases[-1] = (-1) ** (n - 1) / np.prod(phases[:-1])
    stack[rng.integers(P)] = np.roll(np.eye(n), 1, axis=0) * phases
    return stack_doc(stack, pl=n - 1)


DOCS = {
    "det": lambda n: det_doc(n, real=False),
    "det-real": lambda n: det_doc(n, real=True),
    "det-edge": det_edge_doc,
    "log": log_doc,
    "solve": lambda n: solve_doc(n, consistent=True),
    "solve-inconsistent": lambda n: solve_doc(n, consistent=False),
    "sl-factor": sl_doc,
    "log-jordan": lambda n: stack_doc(conjugated_jordans(n)),
}

# (exit code, sha256 of the --out file)
DIGESTS = {
    ("det", 2): (0, "85276e696fa5e0e80869015e8bcc826ac926d261a536aaeaceb8ea82c90be460"),
    ("det", 3): (0, "df7be22d3a263b1bd63277acd8cd5377de7561769d62a7cd0b46f7298f84c57b"),
    ("det", 4): (0, "35fb884a690e041b84eda9df9e7f7370364291f4559a0b734981270635cac431"),
    ("det", 5): (0, "5b0f188ebc43fa08769b44f130f198850c84b1c933ff1f35a429d1becbc2b404"),
    ("det", 6): (0, "43846ca96c4dc2555130cfa6eb95814c8de8d15fa03e50d915e5422fcccd0827"),
    ("det", 7): (0, "09d64e409c5c5830bcc77ec9ee7ae62548b228ea31fd7ab69c992f94467484f3"),
    ("det-real", 2): (0, "693c1a2c962c9ed8fa879056e1cec3fdb6c7025352a44c1aabf62d20498dfccb"),
    ("det-real", 3): (0, "9ae433828db74bd1eb1ac276fcf793a67c7279783acf8fcb43b37fb33c7d3c5d"),
    ("det-real", 4): (0, "ac9b0ed264de75f9ff9ce97f95d979b21d66201d3ec17e73cb1220b9591c0b4d"),
    ("det-real", 5): (0, "c2461591408bd64fb5570a40b8c445d211eb74ea2488af7c35f35e08ff907aa0"),
    ("det-real", 6): (0, "3f2e06d41b4cd47489ed9711dd1c1edd7212fd4a6a4cf8765df925a3ac5a7447"),
    ("det-real", 7): (0, "4deee9d14d6cbe6c8fa873a8bbc3086e15b0baf23ed6e137e1ae9a6a7b457e70"),
    ("det-edge", 1): (0, "770405327df8cadf24cbbe2a45c91f000f88affe854194464c8342266f05c5d6"),
    ("det-edge", 2): (0, "b934addad08d3df6bdc98e7fd2538702e7f69ee78cb05d78aa2dab998eb6983d"),
    ("det-edge", 3): (0, "08733105f3919f76a675a9caea21f53c47060b9238e2ebf7d48da3f3bebf53eb"),
    ("det-edge", 4): (0, "63e041c8c34d442ac571bc3a5c1150ded4acd99845d9b0ffc6aeda23ee2ae9fd"),
    ("det-edge", 5): (0, "d36a28088193a9e3d6b9b11e395c3d6daccfdc67e76029a1b2d3a18702726026"),
    ("det-edge", 6): (0, "ee18d8852821bf3c1c075ee5b2df8fad40f66bccbc30e1da003c9011db407052"),
    ("det-edge", 7): (0, "a93578fb451e9e03e9ea696461a3ca564ffdb7b00086ecc0a261af79722fdd8e"),
    ("log", 2): (0, "e2b58e96480c197df0516ab5873821ff472c46f8acdcc4b5eef1a1084fdb8fc5"),
    ("log", 3): (0, "803fdb71bbe83a0b1f58429de144f86ce0069fb073861a243197dc7a14700005"),
    ("log", 4): (0, "ba8909c9463b53e9663802fa707a512f0eac86d90ca6076e3a154f640a975e7e"),
    ("log", 5): (0, "106297e282a5153b081397f3bd85a3d06f972c8407d8406f732e2a24c3ffbcee"),
    ("log", 6): (0, "6b0badf4625b22f60f8c4eb941867612b67c9326765747abd2f5122c42b357a2"),
    ("log", 7): (0, "21978df031b79013b3628d544413bafca16ce62e3e8bb30d28b7fbda5e3a3dfc"),
    ("solve", 2): (0, "d4c7570199493046dc1405efda03f94bba658e6d76f17b39c132a8d505979bab"),
    ("solve", 3): (0, "cbeb98aa99ec71b6d8e8780c41d5bcda571ef0ae22aba2509a33218f83020f42"),
    ("solve", 4): (0, "76eb50a1105fb22e47d1ad2cf4448f3a5bec465c9c2405919c6d03f2f5913c0d"),
    ("solve", 5): (0, "44de24d8beda995065e92b24a038a556718b6b2dfcc4589189337fe13fc2a5eb"),
    ("solve", 6): (0, "ed4f2da5b35309b9cfe9870cc501fd08a8021c781fea385382e980e92a49eb24"),
    ("solve", 7): (0, "df7ebf432343cde517ca3a252f507747de651a9ccd751bbb99e2536cb2a21bfa"),
    ("solve-inconsistent", 2): (2, "0923a00fb7bdf4534f8c006295031ce77fbee259e181427eb9e1d7e6e567789c"),
    ("solve-inconsistent", 3): (2, "323fe8fa1c74829ef5da390b17e1eefac7f6972491f9fc8274370f8d9c87096c"),
    ("solve-inconsistent", 4): (2, "a1dfe689b08161874e11b6acfe1eab114968049ed95358bdf13402b622f71ede"),
    ("solve-inconsistent", 5): (2, "211393ef0da321d7e716cf5d9ed84b0c271c3e70f8e29224d12a990c885d241b"),
    ("solve-inconsistent", 6): (2, "adc15c699fa55774f24a572eba48d0f13d6712e7d83ca89a32842194eb7acdc5"),
    ("solve-inconsistent", 7): (2, "e74be142a10af7556e8e480af2eb6308d836bb0062c577a599b451a19f7f2c0b"),
    ("sl-factor", 2): (0, "40cf9e244e135ad53ee06fc7ac96ab046af2d954fa834ab659eda2cd75cfdfae"),
    ("sl-factor", 3): (0, "62f25d9c58abbafe9e7e9a942c3035b4434c7b2d3241ca18f9ed0c8ec0b31f8f"),
    ("sl-factor", 4): (0, "633394aba5b84720dacac948bfde95010d45c43570a70a37514b346d74ee82dc"),
    ("sl-factor", 5): (0, "2dafbf6f037fbfdb25c32a19a60b94972590ee88a0cf4477d98ce4fbc488e43d"),
    ("sl-factor", 6): (0, "fcb35f165f689085cd27250216a8fe0b5b61fe81e0ac5ece88a3661ee7a91136"),
    ("sl-factor", 7): (0, "f7982bec1490f6723cc499f78a22d66ab9f2f1a194a467d3bc7ace403721c2e5"),
    ("log-jordan", 5): (0, "7b62ca4e4f4116e6f124dc111306a73d40a4ae62da93be8c8cd06b896079986d"),
    ("log-jordan", 6): (0, "426522e0df16c707565fee4931e4dabb6a8d37937b9ca898a076588524126993"),
}


@pytest.mark.parametrize("kind, n", list(DIGESTS), ids=[f"{k}-{n}" for k, n in DIGESTS])
def test_output_bytes(kind, n, tmp_path):
    code, digest = DIGESTS[kind, n]
    doc, out = tmp_path / "doc.json", tmp_path / "out.json"
    doc.write_text(json.dumps(DOCS[kind](n)))
    op = "sl-factor" if kind == "sl-factor" else kind.split("-")[0]
    assert run(["mat", op, "--json", str(doc), "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
