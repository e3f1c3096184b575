"""Shared fixtures: normal-form specs on nice positivity boxes."""

import json
import pathlib
from fractions import Fraction as F

import pytest

from ambitoric import AnsatzSpec, Interval, KerrParams, Poly, Quadratic, kerr
from ambitoric.ansatz import METRIC_G0
from ambitoric.special import INTERIOR

I2 = ((F(1), F(0)), (F(0), F(1)))
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def make_spec(q, A, B, xr, yr, metric=METRIC_G0, lattice=I2):
    return AnsatzSpec(q=q, A=Poly(A), B=Poly(B),
                      x_interval=Interval(*xr), y_interval=Interval(*yr),
                      lattice=lattice, metric=metric)


def geometry_specs():
    """{name: spec} of the 8 goldens and the Kerr exterior (an infinite x
    end) and interior, M = 1, alpha = 1/2."""
    specs = {p.stem: AnsatzSpec.from_dict(json.loads(p.read_text())["spec"])
             for p in sorted(GOLDEN_DIR.glob("*.json"))}
    specs["kerr-exterior"] = kerr(KerrParams(1, F(1, 2)))
    specs["kerr-interior"] = kerr(KerrParams(1, F(1, 2)), INTERIOR)
    return specs


def fold_points(q, sign, xs):
    """Rational points of Z+ = {x = y}, or of Z- = {q(x, y) = 0} off x = y:
    the graph y = -(c1 x + c2)/(c0 x + c1) and its mirror image."""
    if sign == "+":
        return [(x, x) for x in xs]
    pts = []
    for x in xs:
        den = q.c0 * x + q.c1
        if den != 0:
            y = -(q.c1 * x + q.c2) / den
            if x != y:
                pts += [(x, y), (y, x)]
    return pts


@pytest.fixture
def hyperbolic_spec():
    # q(x,y) = x + y > 0 on (2,3) x (-1,0), A,B positive with simple roots
    return make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 3), (-1, 0))


@pytest.fixture
def parabolic_spec():
    return make_spec(Quadratic(0, 0, 1), [-2, 3, -1], [0, -3, -1],
                     (1, 2), (-3, -2))


@pytest.fixture
def elliptic_spec():
    # q(x,y) = xy + 1 > 0 on (1,2) x (0,1) minus nothing; x > y throughout
    return make_spec(Quadratic(1, 0, 1), [-2, 3, -1], [0, 1, -1],
                     (1, 2), (0, 1))


@pytest.fixture(params=["hyperbolic", "parabolic", "elliptic"])
def any_spec(request, hyperbolic_spec, parabolic_spec, elliptic_spec):
    return {"hyperbolic": hyperbolic_spec,
            "parabolic": parabolic_spec,
            "elliptic": elliptic_spec}[request.param]
