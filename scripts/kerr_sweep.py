#!/usr/bin/env python3
"""Sweep the rotation parameter and confirm Ricci-flatness of the Kerr
family numerically, on the exterior and on the interior, then probe the
interior region's fold structure.

On the exterior the bound is on max |Ric| itself.  Next to the folds of the
interior the curvature grows without bound (max |R| reaches 9e8 on these
samples, and max |Ric| 0.1), so there each Ric_bd = g^ac R_abcd is
measured against the size of the terms it sums: the relative value is
max |Ric| / max_bd sum_ac |g^ac R_abcd| over the interior samples that
float `curvature` admits, printed beside max |Ric|.  Exits 1 if any alpha
has max |Ric| >= 1e-9 on its exterior samples or a relative value
>= 1e-9 on its interior samples.

Usage: python scripts/kerr_sweep.py [n_alpha]
"""

import sys
import time
from fractions import Fraction as F

import numpy as np

from ambitoric import FramePoint, KerrParams, curvature, kerr, validate
from ambitoric.special import INTERIOR
from ambitoric.tensors import SingularEvaluation, metric_components

RICCI_BOUND = 1e-9


def exterior_ricci(alpha: F) -> float:
    spec = kerr(KerrParams(1, alpha))
    comp = validate(spec)[0]
    worst = 0.0
    for x, y in comp.sample_points(5):
        pack = curvature(spec, spec.metric, FramePoint(x, y))
        worst = max(worst, float(np.max(np.abs(pack.ricci))))
    return worst


def interior_ricci(alpha: F):
    """(max |Ric|, max relative |Ric|, points refused, points) over the
    sample_points(5) of every interior cell."""
    spec = kerr(KerrParams(1, alpha), INTERIOR)
    worst = relative = 0.0
    refused = total = 0
    for comp in validate(spec):
        for x, y in comp.sample_points(5):
            total += 1
            try:
                pack = curvature(spec, spec.metric, FramePoint(x, y))
            except SingularEvaluation:
                refused += 1
                continue
            ginv = np.abs(np.linalg.inv(np.array(metric_components(spec, spec.metric, x, y))))
            terms = np.einsum("ac,abcd->bd", ginv, np.abs(pack.riemann))
            ric = float(np.max(np.abs(pack.ricci)))
            worst = max(worst, ric)
            relative = max(relative, ric / float(np.max(terms)))
    return worst, relative, refused, total


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

    print("\nalpha      max|Ric| (interior)   relative    refused   time")
    for a in alphas:
        t0 = time.perf_counter()
        worst, relative, refused, total = interior_ricci(a)
        dt = time.perf_counter() - t0
        print(f"{str(a):8s}   {worst:.3e}             {relative:.3e}   {refused:3d}/{total:<3d}   {dt:5.2f}s")
        if not relative < RICCI_BOUND and a not in failed:
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
