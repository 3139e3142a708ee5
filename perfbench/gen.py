"""Seeded input documents for the benchmark workloads.

Run as a script, in its own process, before the worker starts:

    python3 perfbench/gen.py --workload scalar-window --seed 1 --dir RUNDIR

It writes RUNDIR/docs/<i>.json and RUNDIR/manifest.json.  The manifest lists
one *round*: every request of the workload once, with the CLI argv (paths
relative to RUNDIR), the document size, and what the generator planted (a
zero, a singular position, ...), which the verifier cross-checks.

Sizes follow a stratified design: each (operation, stratum) cell of a round is
fixed, and the seed draws the values, the exact size within the stratum, the
cycle factorisation, the planted positions and the request order.  Two seeds
therefore load the program alike while giving it different documents.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
from pathlib import Path

import numpy as np

from verify import expm

WORKLOADS = ("scalar-window", "matrix-positions", "series-horizon")
GAUSS_UNITS = [1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
SUPEREXP = "superexp:b=2,q=2"


def _pair(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def _epseq(prefix, cycle) -> dict:
    return {"prefix": [_pair(v) for v in prefix],
            "cycle": [_pair(v) for v in cycle]}


def _element(prefix, cycle, weight="factorial") -> dict:
    return {"weight": weight, "normalized": _epseq(prefix, cycle)}


# ---------------------------------------------------------------------------
# value draws: the three kinds tests/conftest.py uses


def gauss(rng, zero_ok=False) -> complex:
    while True:
        v = complex(rng.randint(-4, 4), rng.randint(-4, 4))
        if v or zero_ok:
            return v


def exact_divisor(rng) -> complex:
    """s * 2^e with |s|^2 a power of two: division by it is exact."""
    return rng.choice(GAUSS_UNITS) * 2.0 ** rng.randint(-3, 3)


def generic(rng) -> complex:
    return complex(rng.uniform(-4, 4), rng.uniform(-4, 4))


DRAW = {"exact": exact_divisor, "float": generic}


def coprime_cycles(rng, total: int, k: int) -> list[int]:
    """k pairwise coprime cycle lengths whose product is close to total:
    the closest of 64 seeded candidates."""
    if k == 1:
        return [max(1, total)]
    best, best_err = None, math.inf
    for _ in range(64):
        cycles: list[int] = []
        rest = float(total)
        for i in range(k):
            left = k - i
            target = rest if left == 1 else rest ** (1.0 / left) * rng.uniform(0.7, 1.4)
            c = max(2, round(target))
            while any(math.gcd(c, d) != 1 for d in cycles):
                c += 1
            cycles.append(c)
            rest /= c
        err = abs(math.log(math.prod(cycles) / total))
        if err < best_err:
            best, best_err = cycles, err
    return best


def _mid(lo: float, hi: float) -> float:
    """The log-midpoint of the stratum [lo, hi].

    Sizes are fixed per stratum, so that every seed loads the program alike;
    the strata, not the seed, spread the sizes log-uniformly.
    """
    return math.sqrt(lo * hi)


def _strata(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    edges = [lo * (hi / lo) ** (s / count) for s in range(count + 1)]
    return list(zip(edges, edges[1:]))


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        (root / "docs").mkdir(parents=True, exist_ok=True)
        self.requests: list[dict] = []

    def add(self, op: str, argv: list[str], doc=None, **expect) -> None:
        i = len(self.requests)
        entry = {"id": i, "op": op, "argv": list(argv), "doc": None,
                 "bytes_in": 0, "expect": expect}
        if doc is not None:
            rel = f"docs/{i}.json"
            text = json.dumps(doc)
            (self.root / rel).write_text(text)
            entry["doc"] = rel
            entry["bytes_in"] = len(text)
            entry["argv"] += ["--json", rel]
        self.requests.append(entry)


# ---------------------------------------------------------------------------
# scalar-window: few requests over windows of 10^2 .. 10^5 positions

SCALAR_OPS = ("corona", "ideal-member", "gcd", "divide", "invert", "log",
              "exp", "approx-invert", "idempotent", "norm")
WITNESS_OPS = ("corona", "ideal-member", "divide", "invert", "log")


def _seq(rng, kind: str, cycle_len: int, prefix_len: int, zero_ok=False):
    def draw():
        return gauss(rng, zero_ok) if kind == "gauss" else DRAW[kind](rng)

    return [draw() for _ in range(prefix_len)], [draw() for _ in range(cycle_len)]


def _plant(seqs, n0: int) -> None:
    """Zero every listed sequence at index n0 (n0 lies past all prefixes)."""
    for prefix, cycle in seqs:
        cycle[(n0 - len(prefix)) % len(cycle)] = 0j


def gen_scalar(w: _Writer, rng, tiny: bool) -> None:
    strata = _strata(100, 100_000, 5)
    if tiny:
        strata = _strata(10, 300, 2)
    # (operation index among WITNESS_OPS, stratum) cells that plant a zero:
    # 6 of the 50 requests of a round, about one in eight
    planted = {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (0, 3)}
    for j, op in enumerate(SCALAR_OPS):
        for s, (lo, hi) in enumerate(strata):
            window = max(2, round(_mid(lo, hi)))
            kind = ("gauss", "exact", "float")[(s + 2 * j) % 3]
            k = 1 + (s + j) % 4          # elements in the request, 1..4
            plant = op in WITNESS_OPS and (WITNESS_OPS.index(op), s) in planted
            argv = ["elem", op]
            expect = {"kind": kind}
            if op in ("corona", "gcd", "ideal-member", "divide"):
                if op == "ideal-member":
                    k = max(k, 2)
                if op == "divide":
                    k = 2
                prefix_lens = [rng.randint(0, 3) for _ in range(k)]
                L = max(prefix_lens)
                cycles = coprime_cycles(rng, max(k, window - L), k)
                kinds = [kind] * k
                if op == "divide" and kind != "float":
                    kinds = ["gauss", "exact"]      # quotient is exact
                seqs = [_seq(rng, kinds[i], cycles[i], prefix_lens[i])
                        for i in range(k)]
                c = math.prod(cycles)
                if plant:
                    # corona zeroes every element, the others the divisor or
                    # the generators; n0 is then their only common zero
                    # before the zeroed sequences' joint period repeats
                    zeroed = seqs if op == "corona" else seqs[1:]
                    cz = math.lcm(*(len(cy) for _, cy in zeroed))
                    n0 = (max(len(p) for p, _ in zeroed)
                          + int(cz * rng.uniform(0.45, 0.55)))
                    _plant(zeroed, n0)
                    expect["planted_index"] = n0
                els = [_element(p, cyc) for p, cyc in seqs]
                if op == "divide":
                    doc = {"f": els[0], "g": els[1]}
                    expect["kind"] = "exact" if kind != "float" else "float"
                elif op == "ideal-member":
                    doc = {"f": els[0], "generators": els[1:]}
                else:
                    doc = {"elements": els}
            else:
                if op == "invert" and kind == "gauss":
                    kind = "exact"   # 1/v is exact only for exact divisors
                    expect["kind"] = kind
                L = rng.randint(0, 3)
                c = max(1, window - L)
                if op == "idempotent" and (s + j) % 2 == 0:
                    seq = ([float(rng.random() < 0.5) + 0j for _ in range(L)],
                           [float(rng.random() < 0.5) + 0j for _ in range(c)])
                    expect["kind"] = "mask"
                else:
                    seq = _seq(rng, kind, c, L, zero_ok=(op == "approx-invert"))
                if plant:
                    n0 = L + int(c * rng.uniform(0.45, 0.55))
                    _plant([seq], n0)
                    expect["planted_index"] = n0
                if op == "approx-invert":
                    argv += ["--eps", "0.5"]
                doc = _element(*seq)
            w.add(f"elem {op}", argv, doc, **expect)


# ---------------------------------------------------------------------------
# matrix-positions: many small per-position problems, n = 2..7

MATRIX_OPS = ("mul", "det", "solve", "exp", "log", "sl-factor", "norm-bounds")


def _matrix(stack: np.ndarray, L: int) -> dict:
    P, m, n = stack.shape
    return {"weight": "factorial", "rows": m, "cols": n,
            "entries": [[_epseq(stack[:L, i, j], stack[L:, i, j])
                         for j in range(n)] for i in range(m)]}


def _cgauss(nrng, *shape) -> np.ndarray:
    return nrng.standard_normal(shape) + 1j * nrng.standard_normal(shape)


def gen_matrix(w: _Writer, rng, nrng, tiny: bool) -> None:
    strata = _strata(1, 200, 6)
    sizes = range(2, 8)
    if tiny:
        strata = [(1, 3)] * 6
        sizes = (2, 3, 4)
    for j, op in enumerate(MATRIX_OPS):
        for n in sizes:
            lo, hi = strata[(j + n) % 6]
            P = max(1, round(_mid(lo, hi)))
            L = rng.randint(0, min(2, P - 1))
            expect: dict = {}
            if op == "mul":
                A = _cgauss(nrng, P, n, n) / math.sqrt(n)
                B = _cgauss(nrng, P, n, n) / math.sqrt(n)
                doc = {"A": _matrix(A, L), "B": _matrix(B, L)}
            elif op == "det":
                doc = _matrix(_cgauss(nrng, P, n, n), L)
            elif op == "solve":
                A = _cgauss(nrng, P, n, n)
                b = _cgauss(nrng, P, n, 1)
                if n == 4:   # one solve in six is inconsistent
                    k0 = rng.randrange(P)
                    v = _cgauss(nrng, n)
                    v /= np.linalg.norm(v)
                    A[k0] -= np.outer(A[k0] @ v, v.conj())
                    expect["planted_position"] = k0
                doc = {"A": _matrix(A, L), "b": _matrix(b, L)}
            elif op == "exp":
                doc = _matrix(0.5 * _cgauss(nrng, P, n, n) / math.sqrt(n), L)
            elif op == "log":
                B = 0.5 * _cgauss(nrng, P, n, n) / math.sqrt(n)
                doc = _matrix(np.array([expm(b) for b in B]), L)
            elif op == "sl-factor":
                B = 0.3 * _cgauss(nrng, P, n, n) / math.sqrt(n)
                B -= (np.trace(B, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
                rotation = n in (2, 3, 7)
                if rotation:
                    # rotations in the (0, 1) plane, one of them a quarter
                    # turn: its zero pivot makes direct elimination fail, so
                    # the connecting-path fallback runs over every position
                    B *= 0.3
                    theta = nrng.uniform(-1.0, 1.0, P)
                    B[:, 0, 1] -= theta
                    B[:, 1, 0] += theta
                A = np.array([expm(b) for b in B])
                if rotation:
                    k1 = rng.randrange(P)
                    A[k1] = np.eye(n)
                    A[k1, :2, :2] = [[0, -1], [1, 0]]
                dets = np.linalg.det(A)
                A /= (dets ** (1.0 / n))[:, None, None]
                doc = _matrix(A, L)
            else:
                doc = _matrix(_cgauss(nrng, P, n, n), L)
            w.add(f"mat {op}", ["mat", op], doc, **expect)


# ---------------------------------------------------------------------------
# series-horizon: index scans over horizons and tail-bound searches


def _small_element(rng, weight: str) -> dict:
    kind = rng.choice(("gauss", "float"))
    prefix, cycle = _seq(rng, kind, rng.randint(1, 4), rng.randint(0, 2))
    return _element(prefix, cycle, weight)


def gen_series(w: _Writer, rng, tiny: bool) -> None:
    n_eval = 4 if tiny else 20
    for weight in ("factorial", SUPEREXP):
        # radii log-uniform over [0.1, 2000]; for factorial the two top strata
        # lie past |z| = 710 (value overflows) and |z| = 1164 (tail bound
        # overflows), the two known eval defects
        for lo, hi in _strata(0.1, 2000, n_eval):
            r = _mid(lo, hi)
            z = cmath.rect(r, rng.uniform(0, 2 * math.pi))
            zt = repr(z).strip("()")
            w.add("elem eval", ["elem", "eval", f"--z={zt}"],
                  _small_element(rng, weight), z=zt)
    horizons = _strata(2 ** 10, 2 ** 12, 2) if tiny else _strata(2 ** 14, 2 ** 17, 4)
    for n in (1, 2, 3):
        # eight n = 2 scans (20-40 ms each) surround the 90th percentile
        strata = horizons if n != 2 or tiny else _strata(2 ** 14, 2 ** 17, 8)
        for lo, hi in strata:
            h = round(_mid(lo, hi))
            w.add("ideal trajectory", ["ideal", "trajectory", "--n", str(n),
                                       "--horizon", str(h)],
                  n=n, horizon=h)
    for n in (1, 2, 3):
        lo, hi = horizons[n % len(horizons)]
        h = round(_mid(lo, hi))
        w.add("ideal krull-family", ["ideal", "krull-family", "--n", str(n),
                                     "--horizon", str(h)],
              n=n, horizon=h)
    # p(deg) overflows a double past 170! (factorial) and 2^(31^2) (superexp)
    chains = [("noetherian", "factorial", 75),
              ("noetherian", "factorial", 290),
              ("artinian", "factorial", 75),
              ("artinian", SUPEREXP, 15),
              ("artinian", SUPEREXP, 57),
              ("noetherian", SUPEREXP, 15)]
    for kind, weight, n in chains:
        w.add("ideal chain", ["ideal", "chain", "--kind", kind, "--n", str(n),
                              "--weight", weight],
              kind=kind, n=n, weight=weight)
    for i in range(4):
        # zero runs of varied length; the last document's cycle is all zero
        L, c = 1 + i, 2 + 2 * i
        prefix = [0j if rng.random() < 0.6 else gauss(rng) for _ in range(L)]
        cycle = [0j if rng.random() < 0.6 else gauss(rng) for _ in range(c)]
        if i == 3:
            cycle = [0j] * c
        elif not any(cycle):
            cycle[-1] = gauss(rng)
        k = rng.randint(0, L + 2 * c)
        w.add("ideal index-order", ["ideal", "index-order", "--k", str(k)],
              _element(prefix, cycle), k=k)
    for i in range(4):
        L, c = i, 2 + i
        prefix = [gauss(rng) for _ in range(L)]
        cycle = [gauss(rng, zero_ok=True) for _ in range(c)]
        start = rng.randint(0, 5)
        if i % 2 == 0:      # one cycle residue: an exact verdict
            ks = [start + c * t for t in range(6 + 6 * i)]
        else:
            ks = sorted(rng.sample(range(start, start + 200), 6 + 6 * i))
        w.add("ideal trajectory", ["ideal", "trajectory", "--ks",
                                   ",".join(map(str, ks))],
              _element(prefix, cycle), ks=ks)


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, root: Path, tiny: bool = False) -> dict:
    # str seeds hash deterministically (random.Random uses sha512 for str)
    rng = random.Random(f"{workload}:{seed}")
    nrng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(root)
    if workload == "scalar-window":
        gen_scalar(w, rng, tiny)
    elif workload == "matrix-positions":
        gen_matrix(w, rng, nrng, tiny)
    else:
        gen_series(w, rng, tiny)
    order = list(range(len(w.requests)))
    rng.shuffle(order)
    # warm up on the smallest document of each operation
    cheapest: dict[str, dict] = {}
    for r in w.requests:
        if r["op"] not in cheapest or r["bytes_in"] < cheapest[r["op"]]["bytes_in"]:
            cheapest[r["op"]] = r
    manifest = {"workload": workload, "seed": seed, "order": order,
                "warmup": sorted(r["id"] for r in cheapest.values()),
                "requests": w.requests}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.dir), args.tiny)


if __name__ == "__main__":
    main()
