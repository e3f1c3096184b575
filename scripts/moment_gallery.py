#!/usr/bin/env python3
"""Render moment-map images with their fold conics for the three normal
forms, plus the strongly non-convex Kerr interior image.

Writes SVG files into the directory given as the first argument
(default: ./gallery).  Exits 1 when any `moment` call fails.
"""

import json
import pathlib
import sys
from fractions import Fraction as F

from ambitoric import AnsatzSpec, Interval, KerrParams, Poly, Quadratic, kerr
from ambitoric.ansatz import METRIC_G0
from ambitoric.cli import main as cli_main
from ambitoric.special import INTERIOR

I2 = ((F(1), F(0)), (F(0), F(1)))


def spec_of(q, A, B, xr, yr):
    return AnsatzSpec(q=q, A=Poly(A), B=Poly(B),
                      x_interval=Interval(*xr), y_interval=Interval(*yr),
                      lattice=I2, metric=METRIC_G0)


GALLERY = {
    "hyperbolic": spec_of(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                          (2, 3), (-1, 0)),
    "parabolic": spec_of(Quadratic(0, 0, 1), [-2, 3, -1], [0, -3, -1],
                         (1, 2), (-3, -2)),
    "elliptic": spec_of(Quadratic(1, 0, 1), [-2, 3, -1], [0, 1, -1],
                        (1, 2), (0, 1)),
    "kerr_interior": kerr(KerrParams(1, F(3, 4)), INTERIOR),
}


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, spec in GALLERY.items():
        sf = outdir / f"{name}.spec.json"
        sf.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        for sign, tag in (("-", "minus"), ("+", "plus")):
            svg = outdir / f"{name}.mu_{tag}.svg"
            rep = outdir / f"{name}.mu_{tag}.report.json"
            code = cli_main(["moment", str(sf), "--sign", sign,
                             "--grid", "20", "--svg", str(svg),
                             "--out", str(rep)])
            failed += code != 0
            status = "ok" if code == 0 else f"exit {code}"
            print(f"{name:14s} mu^{sign}: {svg.name} [{status}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
