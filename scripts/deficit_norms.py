#!/usr/bin/env python3
"""Correlation-deficit norms of the shell-calibrated scattering problem.

For each particle number `calibrate_shell` returns the shell's C and the
solved shell problem, whose scattering length is zero to round-off; the
deficit g = 1 - f is then compactly supported and its norms fall with N.
The fitted power of the L1 norm is reported, not asserted (-3 at
beta = 1, where the whole problem is scale-similar and C is the same for
every N).

Usage: python scripts/deficit_norms.py [--amp 2] [--radius 1] [--beta 1] [--n 8 16 32 64]
"""

import argparse

import numpy as np

from becmix.scattering import calibrate_shell, g_norms, scattering_length, square_barrier


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amp", type=float, default=2.0)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--n", type=int, nargs="+", default=[8, 16, 32, 64])
    args = ap.parse_args()

    V = square_barrier(args.amp, args.radius)
    a = scattering_length(V).scattering_length
    print(f"a(V) = {a:.9f}")
    print(f"{'N':>4} {'C':>12} {'residual':>11} {'L1':>11} {'L2':>11} {'Linf':>8}")
    l1s = []
    for N in args.n:
        C, res = calibrate_shell(V, N, args.beta)
        l1, l2, linf = g_norms(res)
        l1s.append(l1)
        print(f"{N:>4} {C:>12.9f} {res.scattering_length:>11.2e} "
              f"{l1:>11.4e} {l2:>11.4e} {linf:>8.4f}")
    if len(args.n) >= 2:
        power = np.polyfit(np.log(args.n), np.log(l1s), 1)[0]
        print(f"fitted power of ||g||_1 vs N: {power:+.3f}")


if __name__ == "__main__":
    main()
