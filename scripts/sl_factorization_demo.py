#!/usr/bin/env python3
"""Factor random determinant-one matrices into elementary factors.

Builds determinant-normalized exponentials positionwise, runs the
factorization, and reports factor counts and reconstruction error, including
rotation-like inputs whose pivots vanish until the stable-rank-1 step raises
them.
"""

import argparse

import numpy as np
import scipy.linalg

from hadalg import matalg as ma
from hadalg.weights import FACTORIAL


def random_sl(rng, n, cycles, scale):
    raw = (rng.standard_normal((cycles, n, n))
           + 1j * rng.standard_normal((cycles, n, n))) * scale
    stack = []
    for k in range(cycles):
        U = scipy.linalg.expm(raw[k])
        stack.append(U / np.linalg.det(U) ** (1.0 / n))
    return ma.from_ustack(FACTORIAL, 0, np.array(stack))


def report(tag, A):
    factors, err = ma.sl_factor(A)
    print(f"{tag}: {len(factors):3d} factors, reconstruction error {err:.3e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--size", type=int, default=3)
    ap.add_argument("--cycles", type=int, default=2)
    ap.add_argument("--scale", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        A = random_sl(rng, args.size, args.cycles, args.scale)
        report(f"random SL_{args.size} #{trial}", A)

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    report("rotation (pivot vanishes)",
           ma.from_ustack(FACTORIAL, 0, rot[None, :, :].astype(complex)))
    diag = np.diag([3.0 + 1.0j, 1.0 / (3.0 + 1.0j)])
    report("diag(d, 1/d) shortcut",
           ma.from_ustack(FACTORIAL, 0, diag[None, :, :]))


if __name__ == "__main__":
    main()
