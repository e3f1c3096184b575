import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitoric import (
    CSCData,
    FramePoint,
    Interval,
    KerrParams,
    Poly,
    Quadratic,
    ValidationError,
    classify,
    csc_construct,
    curvature,
    kerr,
    scalar_closed_form,
    standard_polygon,
    validate,
)
from ambitoric.ansatz import METRIC_GMINUS, METRIC_GPLUS, SingularEvaluation
from ambitoric.quadratics import inner, transvectant2
from ambitoric.special import EXTERIOR, INTERIOR
from ambitoric.tensors import metric_components

from conftest import assert_standard_polygon, geometry_specs


def test_kerr_params_validation():
    with pytest.raises(ValidationError):
        KerrParams(1, 1)
    with pytest.raises(ValidationError):
        KerrParams(0, 0)


def test_kerr_exact_horizon_roots():
    p = KerrParams(1, F(3, 4))    # M^2 + alpha^2 = 25/16
    xm, xp, exact = p.horizon_roots()
    assert exact
    assert (xm, xp) == (F(-1, 4), F(9, 4))


def test_kerr_approx_roots_bracket():
    p = KerrParams(1, F(1, 2))
    xm, xp, exact = p.horizon_roots()
    assert not exact
    A = Poly([-F(1, 4), -2, 1])
    assert A(xm) > 0 and A(xp) > 0    # bracketed outward into positivity
    assert float(xp - xm) == pytest.approx(2 * math.sqrt(1.25), abs=1e-6)


@st.composite
def pythagorean_kerr(draw):
    """(M, alpha, h): a Pythagorean triple (legs, hypotenuse h) times a
    rational scale, M the longer leg and alpha the shorter, of either sign,
    so that M^2 + alpha^2 = h^2."""
    p = draw(st.integers(2, 12))
    q = draw(st.integers(1, p - 1))
    scale = F(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    legs = sorted((p * p - q * q, 2 * p * q))
    sign = draw(st.sampled_from((1, -1)))
    return legs[1] * scale, sign * legs[0] * scale, (p * p + q * q) * scale


@settings(max_examples=60, deadline=None)
@given(params=pythagorean_kerr())
def test_kerr_exterior_is_the_smooth_euclidean_instanton(params):
    """With r+ rational, the horizon edge's compatible normal is
    (1/kappa)(d_tau + Omega d_phi), kappa = (r+ - M)/(r+^2 - alpha^2) and
    Omega = alpha/(r+^2 - alpha^2), the axis edges' normals are +-d_phi,
    d_tau = (1, 0) and d_phi = (alpha, -1/alpha); both lie in the lattice
    `kerr` emits, and the exterior is completable."""
    M, alpha, h = params
    rp = M + h
    kappa, omega = (rp - M) / (rp * rp - alpha * alpha), alpha / (rp * rp - alpha * alpha)
    horizon = ((1 + omega * alpha) / kappa, -omega / alpha / kappa)
    axis = (alpha, -1 / alpha)
    (_, verdict), = classify(kerr(KerrParams(M, alpha)))
    assert verdict.completable
    normals = {(r.component.axis, r.component.gamma): r.status.compatible_normal
               for r in verdict.reports
               if r.component.kind == "Edge" and r.status.compatible_normal}
    assert normals[("X", rp)] == (horizon, True)
    for y in (alpha, -alpha):
        n, member = normals[("Y", y)]
        assert member and n in (axis, tuple(-c for c in axis))


def test_kerr_interior_has_fold_components():
    spec = kerr(KerrParams(1, F(3, 4)), INTERIOR)
    comps = validate(spec)
    assert len(comps) >= 2
    assert {(c.sign_xy, c.sign_q) for c in comps} == \
        {(-1, -1), (-1, 1), (1, -1)}


@pytest.mark.parametrize("region", [EXTERIOR, INTERIOR])
def test_kerr_rejects_alpha_zero(region):
    # alpha = 0 leaves the y box (-|alpha|, |alpha|) empty; kerr used to fail
    # with "empty interval (0, 0)" or "interior box empty for these
    # parameters", naming neither alpha nor the y box
    params = KerrParams(1, 0)           # a valid record all the same
    with pytest.raises(ValidationError, match="non-zero alpha"):
        kerr(params, region)


def test_csc_orthogonality_enforced():
    with pytest.raises(ValidationError):
        csc_construct(CSCData(q=Quadratic(0, 1, 0), p=Quadratic(0, 1, 0),
                              rho=Quadratic(0, 0, 1),
                              R=Poly([1, 0, 0, 0, 0])))


def test_csc_construct_rejects_a_quintic_R():
    data = CSCData(q=Quadratic(0, 1, 0), p=Quadratic(1, 0, -4),
                   rho=Quadratic(1, 1, 4), R=Poly([1, 4, 0, 1, 1, 1]))
    with pytest.raises(ValidationError, match="degree 5"):
        csc_construct(data)


def test_csc_polynomials_split_exactly():
    data = CSCData(q=Quadratic(0, 1, 0), p=Quadratic(1, 0, -4),
                   rho=Quadratic(1, 1, 4), R=Poly([1, 4, 0, 1, 1]))
    assert inner(data.p, data.q) == 0
    assert inner(data.rho, data.p) == 0
    assert inner(transvectant2(data.q, data.R), data.p) == 0
    spec, report = csc_construct(data)
    prho = data.p.as_poly() * data.rho.as_poly()
    assert (spec.A + spec.B).coeffs == (prho + prho).coeffs
    assert (spec.A - spec.B).coeffs == \
        (data.R + data.R).coeffs
    assert not report.einstein


def test_einstein_case_is_einstein():
    # rho = 2q gives Ric = lambda g
    data = CSCData(q=Quadratic(0, 1, 0), p=Quadratic(1, 0, -4),
                   rho=Quadratic(0, 2, 0), R=Poly([1, 0, 1, 0, 1]))
    spec, report = csc_construct(
        data, x_interval=Interval(-7, -1),
        y_interval=Interval(F(-43, 32), F(-13, 32)))
    assert report.einstein
    comp = validate(spec)[0]
    x, y = comp.witness
    pack = curvature(spec, spec.metric, FramePoint(float(x), float(y)))
    g = np.asarray(metric_components(spec, spec.metric, float(x), float(y)))
    lam = pack.scalar / 4.0
    assert np.max(np.abs(pack.ricci - lam * g)) < 1e-4 * max(1.0, abs(lam))


def test_einstein_case_is_exactly_einstein():
    data = CSCData(q=Quadratic(0, 1, 0), p=Quadratic(1, 0, -4),
                   rho=Quadratic(0, 2, 0), R=Poly([1, 0, 1, 0, 1]))
    spec, _ = csc_construct(
        data, x_interval=Interval(-7, -1),
        y_interval=Interval(F(-43, 32), F(-13, 32)))
    x, y = validate(spec)[0].witness
    pack = curvature(spec, spec.metric, FramePoint(x, y))
    g = np.asarray(metric_components(spec, spec.metric, x, y))
    assert pack.scalar != 0
    assert all(v == 0 for v in (pack.ricci - pack.scalar / 4 * g).flat)


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_exact_scalar_curvature_equals_closed_form(name):
    spec = geometry_specs()[name]
    for comp in validate(spec):
        x, y = comp.witness
        for sign, metric in (("+", METRIC_GPLUS), ("-", METRIC_GMINUS)):
            s = curvature(spec, metric, FramePoint(x, y)).scalar
            assert s == scalar_closed_form(spec, sign, x, y)


def test_scalar_closed_form_pole_guard(hyperbolic_spec):
    # on both folds, x = y and q(x, y) = x + y = 0, as every field evaluator
    for x, y in ((2.5, 2.5), (2.5, -2.5)):
        with pytest.raises(SingularEvaluation, match="pole on the folds"):
            scalar_closed_form(hyperbolic_spec, "-", x, y)


def test_scalar_closed_form_constant_coefficients():
    # constant A, B: s_- reduces to -12 (A + B) / ((x - y) q(x, y))
    from conftest import make_spec
    spec = make_spec(Quadratic(0, 1, 0), [5], [3], (2, 3), (-1, 0))
    v = scalar_closed_form(spec, "-", 2.5, -0.5)
    assert v == pytest.approx(-12.0 * 8 / (3.0 * 2.0))


def test_cp2_polygon():
    assert_standard_polygon(*standard_polygon("cp2"))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hirzebruch_polygons(k):
    vertices, n, lattice = standard_polygon(f"hirzebruch:{k}")
    assert_standard_polygon(vertices, n, lattice)
    # lower, right, upper, left
    assert tuple(a + b for a, b in zip(n[3], n[1])) == tuple(k * c for c in n[0])


@pytest.mark.parametrize("k", [1, 5, 10 ** 6, 2 ** 53 - 1])
def test_hirzebruch_short_edge_vertex_is_a_closed_form(k):
    # vertex 1 is (s - k, s - k - 1), s = sqrt(k (k + 1)), and s - k tends
    # to 1/2; formed as a float difference it read 0 at k = 2^53 - 1
    x, y = standard_polygon(f"hirzebruch:{k}")[0][1]
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (Decimal(k) * (k + 1)).sqrt() - k
    assert abs(Decimal(x) - exact) <= Decimal(1e-15) * exact and y == x - 1


def test_unknown_polygon_kind():
    with pytest.raises(ValueError):
        standard_polygon("dP3")
