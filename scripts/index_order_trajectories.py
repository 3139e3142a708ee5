#!/usr/bin/env python3
"""Print the vanishing-run trajectories of the block-zero witness family.

For each n the witness has zeros on the blocks [2^k, 2^k + k^(n+1)]; the
ratio m(f_n, 2^k) / k^(n+1) tends to 1 along the dyadic scales.  Early
scales merge into neighboring blocks, which shows up as inflated ratios.
"""

import argparse

from hadalg import ideals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--horizon", type=int, default=1 << 14)
    args = ap.parse_args()

    for n in range(1, args.max_n + 1):
        traj = ideals.krull_trajectory(n, horizon=args.horizon)
        print(f"witness n = {n} (runs measured against k^{n + 1}):")
        for k, ratio in traj:
            print(f"  k = {k:2d}  m(f,2^k)/k^{n + 1} = {ratio:.4f}")
        print()


if __name__ == "__main__":
    main()
