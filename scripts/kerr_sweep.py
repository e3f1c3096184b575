#!/usr/bin/env python3
"""Sweep the rotation parameter and confirm Ricci-flatness of the Kerr
family numerically, then probe the interior region's fold structure.
Exits 1 if any alpha has max |Ric| >= 1e-9 on its exterior samples.

Usage: python scripts/kerr_sweep.py [n_alpha]
"""

import sys
import time
from fractions import Fraction as F

import numpy as np

from ambitoric import FramePoint, KerrParams, curvature, kerr, validate
from ambitoric.special import INTERIOR

RICCI_BOUND = 1e-9


def exterior_ricci(alpha: F) -> float:
    spec = kerr(KerrParams(1, alpha))
    comp = validate(spec)[0]
    worst = 0.0
    for x, y in comp.sample_points(5):
        pack = curvature(spec, spec.metric, FramePoint(x, y))
        worst = max(worst, float(np.max(np.abs(pack.ricci))))
    return worst


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    alphas = [F(k, 2 * n) for k in range(1, n + 1)]   # (0, 1/2]
    print("alpha      max|Ric| (exterior)   time")
    failed = []
    for a in alphas:
        t0 = time.perf_counter()
        worst = exterior_ricci(a)
        dt = time.perf_counter() - t0
        print(f"{str(a):8s}   {worst:.3e}             {dt:5.2f}s")
        if not worst < RICCI_BOUND:
            failed.append(a)

    print("\ninterior sign components (M=1, alpha=3/4):")
    spec = kerr(KerrParams(1, F(3, 4)), INTERIOR)
    for c in validate(spec):
        print(f"  sign(x-y)={c.sign_xy:+d}  sign(q)={c.sign_q:+d}  "
              f"box {c.x_range} x {c.y_range}")
    if failed:
        print(f"max |Ric| >= {RICCI_BOUND:g} at alpha = {', '.join(map(str, failed))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
