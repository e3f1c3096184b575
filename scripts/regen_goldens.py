#!/usr/bin/env python3
"""Regenerate the golden classification files in tests/golden/.

Each file stores the spec together with the full verdict dictionaries for
every sign component.  Run from the repo root after any intentional change
to the classification rules, then eyeball the diff.
"""

import json
import pathlib
import sys
from fractions import Fraction as F

from ambitoric import (
    AnsatzSpec,
    Interval,
    KerrParams,
    Poly,
    Quadratic,
    classify,
    kerr,
)
from ambitoric.ansatz import METRIC_G0, METRIC_GMINUS, metric_gp

I2 = ((F(1), F(0)), (F(0), F(1)))
KERR = kerr(KerrParams(1, F(3, 4)))


def box(q, A, B, xr, yr, metric, lattice=I2):
    return AnsatzSpec(q=q, A=Poly(A), B=Poly(B),
                      x_interval=Interval(*xr), y_interval=Interval(*yr),
                      lattice=lattice, metric=metric)


HYP = Quadratic(0, 1, 0)
PAR = Quadratic(0, 0, 1)

CASES = {
    # proper fold: x + y changes sign across the box interior
    "case1_proper_fold": box(HYP, [-2, 3, -1], [0, -3, -1],
                             (1, 2), (-3, 0), METRIC_G0),
    # parabolic fold-edge at infinity, barycentric metric: rule iii fires
    "case2_fold_edge_g0": box(PAR, [-1, 1, -1, 1], [-2, -3, -1],
                              (1, None), (-2, -1), METRIC_G0),
    # corner sitting on q = 0, barycentric metric: rule iv fires
    "case3_fold_corner_g0": box(HYP, [-3, 4, -1], [0, -1, -1],
                                (1, 3), (-1, 0), METRIC_G0),
    # all four edges are double roots: everything infinitely distant
    "case4_double_root_edges": box(HYP, [4, -12, 13, -6, 1],
                                   [36, 60, 37, 10, 1],
                                   (1, 2), (-3, -2), METRIC_G0),
    # plain accepting box with integer normals
    "case5_accept": box(HYP, [-12, 10, -2], [0, -2, -2],
                        (2, 3), (-1, 0), METRIC_G0),
    # Kerr exterior with exact horizon roots; lattice spanned by the
    # compatible edge normals
    "case6_kerr_exterior": AnsatzSpec(
        q=KERR.q, A=KERR.A, B=KERR.B, x_interval=KERR.x_interval,
        y_interval=KERR.y_interval, metric=KERR.metric, tau_basis=KERR.tau_basis,
        lattice=((F(81, 20), F(3, 4)), (F(-4, 5), F(-4, 3)))),
    # gp metric with the P-locus through the corner (2, -1): rule iv fires
    "case7_p_corner_gp": box(HYP, [-2, 3, -1], [0, -1, -1],
                             (1, 2), (-1, 0), metric_gp(Quadratic(1, 0, 2))),
    # the case-3 geometry under g-: completable but the fold corner stays
    # at finite distance, so it does not extend
    "case8_fold_corner_gminus": box(HYP, [-3, 4, -1], [0, -1, -1],
                                    (1, 3), (-1, 0), METRIC_GMINUS),
}


def main():
    outdir = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec in CASES.items():
        verdicts = []
        for comp, v in classify(spec):
            d = v.to_dict()
            d["component"] = {"sign_xy": comp.sign_xy, "sign_q": comp.sign_q}
            verdicts.append(d)
        payload = {"name": name, "spec": spec.to_dict(), "verdicts": verdicts}
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        flags = [(d["completable"], d["extends_ambitoric"]) for d in verdicts]
        print(f"{name:28s} {flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
