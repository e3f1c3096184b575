#!/usr/bin/env python3
"""Float against exact curvature: the measurement behind `MIN_FIBRE_SINE`.

The points: for every cell of the 8 goldens and of the Kerr exterior and
interior (M = 1, alpha = 1/2), its sample_points(8), the same points pushed
20% further from the cell's witness, and for Kerr its sample_points(3);
then the lines (x0, -x0 -+ delta) next to the fold x + y = 0 of case1, for
x0 = 1.2, 1.5, 1.8 and delta from 1e-4 to 1e-2.  At each point, under g0,
g+, g- and the spec's metric, float `curvature` (with the fibre-sine guard
off, the root guard on) is compared with the exact curvature at the same
rational point, as the max-norm relative error of R.  Prints, for each set
and each band of the fibre sine s, the number of points and the worst
error.  Exits 1 when a sample-point evaluation that the guard admits
(s >= MIN_FIBRE_SINE) is off by more than TOLERANCE; the lines next to the
fold are a report only.

Usage: PYTHONPATH=src python scripts/curvature_sweep.py   (about 40 s)
"""

import json
import math
import pathlib
import sys
from fractions import Fraction as F

import numpy as np

import ambitoric.tensors as T
from ambitoric import AnsatzSpec, FramePoint, KerrParams, kerr, validate
from ambitoric.ansatz import METRIC_G0, METRIC_GMINUS, METRIC_GPLUS
from ambitoric.special import INTERIOR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
BANDS = (0, 1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.02, math.inf)
#: the worst admitted sample point is at 2.0e-10 (`tensors` docstring)
TOLERANCE = 1e-9


def fibre_sine(spec, x, y) -> float:
    u = [t.value(x) for t in spec.tau_basis]
    v = [t.value(y) for t in spec.tau_basis]
    return abs(u[0] * v[1] - u[1] * v[0]) / (math.hypot(*u) * math.hypot(*v))


def errors(spec, points):
    """(s, relative error of R) at each point and metric where float and
    exact curvature both exist."""
    metrics = dict.fromkeys((METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, spec.metric))
    for x, y in dict.fromkeys(points):
        s = fibre_sine(spec, x, y)
        for metric in metrics:
            try:
                R = T.curvature(spec, metric, FramePoint(x, y)).riemann
                E = T.curvature(spec, metric, FramePoint(F(x), F(y))).riemann.astype(float)
            except T.SingularEvaluation:
                continue
            yield s, float(np.max(np.abs(R - E)) / np.max(np.abs(E)))


def report(title, rows):
    print(f"{title}: {len(rows)} evaluations")
    print("  s in            n      worst error")
    for lo, hi in zip(BANDS, BANDS[1:]):
        band = [e for s, e in rows if lo <= s < hi]
        if band:
            print(f"  [{lo:<6g}, {hi:<6g})  {len(band):5d}  {max(band):.1e}")


def main():
    specs = {p.stem: AnsatzSpec.from_dict(json.loads(p.read_text())["spec"])
             for p in sorted(GOLDEN_DIR.glob("*.json"))}
    specs["kerr-exterior"] = kerr(KerrParams(1, F(1, 2)))
    specs["kerr-interior"] = kerr(KerrParams(1, F(1, 2)), INTERIOR)
    guard, T.MIN_FIBRE_SINE = T.MIN_FIBRE_SINE, 0.0
    rows = []
    for name, spec in specs.items():
        for comp in validate(spec):
            wx, wy = (float(v) for v in comp.witness)
            pts = comp.sample_points(8)
            pts += [(wx + 1.2 * (x - wx), wy + 1.2 * (y - wy)) for x, y in pts]
            if name.startswith("kerr"):
                pts += comp.sample_points(3)
            rows += errors(spec, pts)
    report("sample points", rows)
    case1 = specs["case1_proper_fold"]
    deltas = [10 ** (-4 + k / 10) for k in range(21)]
    line = [(x0, -x0 + e * d) for x0 in (1.2, 1.5, 1.8) for d in deltas for e in (1, -1)]
    report("lines next to the fold of case1", list(errors(case1, line)))
    print(f"MIN_FIBRE_SINE = {guard:g}")
    bad = [e for s, e in rows if s >= guard and e > TOLERANCE]
    if bad:
        print(f"FAIL: {len(bad)} admitted sample points off by more than "
              f"{TOLERANCE:g}, worst {max(bad):.1e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
