"""Shared fixtures: normal-form specs on nice positivity boxes."""

import json
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, settings
from hypothesis import strategies as st

from ambitoric import (
    OO,
    AnsatzSpec,
    Interval,
    KerrParams,
    Mobius,
    Poly,
    Quadratic,
    kerr,
    mobius_transport,
)
from ambitoric.ansatz import METRIC_G0
from ambitoric.moment import delzant_check
from ambitoric.special import INTERIOR

#: `pytest --hypothesis-profile=ci`: every example, but a failure is reported
#: as found, since shrinking a failing example over Fractions takes minutes
settings.register_profile("ci", phases=[p for p in Phase if p is not Phase.shrink])

I2 = ((F(1), F(0)), (F(0), F(1)))
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def make_spec(q, A, B, xr, yr, metric=METRIC_G0, lattice=I2, tau_basis=None):
    return AnsatzSpec(q=q, A=Poly(A), B=Poly(B),
                      x_interval=Interval(*xr), y_interval=Interval(*yr),
                      lattice=lattice, metric=metric, tau_basis=tau_basis)


#: q = z^2, whose {q = 0} is the line pair x = 0, y = 0, and its torus basis
#: {z^2, 2z}; gp with p = lambda q is g+ / lambda^2
Z2 = Quadratic(1, 0, 0)
Z2_TAU = (Z2, Quadratic(0, 1, 0))


def z2_spec(A, xr, B=(-2, 3, -1), yr=(1, 2)):
    """q = z^2 on xr x yr, by default with B = (y - 1)(2 - y) on (1, 2)."""
    return make_spec(Z2, A, B, xr, yr, tau_basis=Z2_TAU)


def respec(spec, **changes):
    """A new AnsatzSpec with the fields of `spec`, except `changes`."""
    fields = {name: getattr(spec, name) for name in AnsatzSpec.__annotations__}
    return AnsatzSpec(**{**fields, **changes})


def geometry_specs():
    """{name: spec} of the 8 goldens and the Kerr exterior (an infinite x
    end) and interior, M = 1, alpha = 1/2."""
    specs = {p.stem: AnsatzSpec.from_dict(json.loads(p.read_text())["spec"])
             for p in sorted(GOLDEN_DIR.glob("*.json"))}
    specs["kerr-exterior"] = kerr(KerrParams(1, F(1, 2)))
    specs["kerr-interior"] = kerr(KerrParams(1, F(1, 2)), INTERIOR)
    return specs


def assert_standard_polygon(vertices, normals, lattice):
    """Each normal is orthogonal to its edge (to 1e-9 of its length) and
    points inward, and every corner determinant is +-1: a Delzant polygon.
    Edge i runs from vertex i to vertex i+1."""
    n = len(vertices)
    assert n == len(normals) >= 3
    cx, cy = (sum(v[i] for v in vertices) / n for i in (0, 1))
    for i, (nx, ny) in enumerate(normals):
        (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % n]
        nx, ny = float(nx), float(ny)
        assert abs(nx * (bx - ax) + ny * (by - ay)) <= 1e-9 * max(1.0, math.hypot(bx - ax, by - ay))
        assert nx * (cx - ax) + ny * (cy - ay) > 0
    assert [abs(d) for d in delzant_check(normals, lattice)] == [1] * n


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


_CANONICAL_Q = {
    "Hyperbolic": Quadratic(0, 1, 0),
    "Elliptic": Quadratic(1, 0, 1),
    "Parabolic": Quadratic(0, 0, 1),
}
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _positive_between(lo, hi, m_lo, m_hi):
    """(z - lo)^m_lo (hi - z)^m_hi, positive on (lo, hi)."""
    P = Poly([1])
    for factor in [Poly([-lo, 1])] * m_lo + [Poly([hi, -1])] * m_hi:
        P = P * factor
    return P


@st.composite
def canonical_boxes(draw, multiplicities=st.just(1),
                    conics=st.sampled_from(sorted(_CANONICAL_Q))):
    """A canonical box of a drawn conic type ("Elliptic", "Hyperbolic" or
    "Parabolic"), with A and B vanishing at its ends to the drawn
    multiplicities."""
    q = _CANONICAL_Q[draw(conics)]
    a, c = draw(small), draw(small)
    b = a + draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    d = c + draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    A, B = (_positive_between(lo, hi, draw(multiplicities), draw(multiplicities)).coeffs
            for lo, hi in ((a, b), (c, d)))
    return make_spec(q, A, B, (a, b), (c, d))


@st.composite
def boxes_and_transports(draw):
    """(spec, m): a canonical box with simple roots of A and B at its ends,
    and a Mobius map whose pole lies outside both closed intervals."""
    spec = draw(canonical_boxes())
    m = draw(st.tuples(*[st.integers(-3, 3)] * 4)
             .filter(lambda e: e[0] * e[3] != e[1] * e[2]).map(lambda e: Mobius(*e)))
    pole = m.pole()
    assume(pole is OO or not any(iv.lo <= pole <= iv.hi
                                 for iv in (spec.x_interval, spec.y_interval)))
    return spec, m


@st.composite
def boxes_and_pole_transports(draw):
    """(spec, m): a canonical box with roots of multiplicity 1 or 2 of A and
    B at its ends, and a Mobius map z -> (a z + b)/(z - e) sending one of
    its endpoints e to OO, with e not inside the other interval."""
    spec = draw(canonical_boxes(st.integers(1, 2)))
    e = draw(st.sampled_from([v for iv in (spec.x_interval, spec.y_interval)
                              for v in (iv.lo, iv.hi)]))
    assume(not any(iv.lo < e < iv.hi for iv in (spec.x_interval, spec.y_interval)))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    assume(a * e + b != 0)
    return spec, Mobius(a, b, 1, -e)


def transported_boxes():
    """The box of `boxes_and_transports`, moved by its Mobius map."""
    return boxes_and_transports().map(lambda sm: mobius_transport(*sm))


@pytest.fixture
def sliver_spec():
    """The fold {x + y = 0} cuts a sliver of width 1/100 off the corner
    (2, -201/100) of the box."""
    return make_spec(Quadratic(0, 1, 0), [-6, 5, -1],
                     [F(-201, 100), F(-301, 100), -1], (2, 3), (F(-201, 100), -1))


@pytest.fixture
def merged_spec():
    """q = z^2 - 1 on (-3, 3)^2: the folds {x = y} and {xy = 1} cut the box
    into six cells with four sign pairs."""
    return AnsatzSpec(q=Quadratic(1, 0, -1), A=Poly([9, 0, -1]), B=Poly([9, 0, -1]),
                      x_interval=Interval(-3, 3), y_interval=Interval(-3, 3),
                      lattice=I2, tau_basis=(Quadratic(1, 0, 1), Quadratic(0, 1, 0)))


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
