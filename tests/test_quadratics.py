import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambitoric.ansatz import (
    METRIC_GPLUS,
    Interval,
    ValidationError,
    _positivity_check,
    sigma_from_tau,
)
from ambitoric.gauge import Mobius, poly_transport, transport_quadratic
from ambitoric.moment import fold_conic, moment_map
from ambitoric.quadratics import (
    OO,
    Poly,
    Quadratic,
    _divide,
    _null_ints,
    _over_common,
    _polar_ints,
    compatible_coordinates,
    conic_type,
    coordinates,
    cross,
    dual_frame,
    inner,
    is_exact,
    proj_eq,
    proj_ints,
    rat,
    to_float,
    transvectant2,
    transversal,
)
from ambitoric.special import KerrParams, kerr, scalar_closed_form
from ambitoric.tensors import (
    FramePoint,
    curvature,
    eval_field,
    metric_components,
    moment_differential,
)

import quadratics_reference
from moment_reference import evaluate

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12)


def test_rat_accepts_strings_and_ints():
    assert rat("3/4") == F(3, 4)
    assert rat(2) == F(2)
    assert rat(F(1, 3)) == F(1, 3)


@pytest.mark.parametrize("value, want", [
    (F(1, 10 ** 320), 1e-320), (F(-1, 10 ** 320), -1e-320), (F(0), 0.0), (0, 0.0),
    (F(3, 4), 0.75), (-7, -7.0), (math.inf, math.inf),
])
def test_to_float_keeps_what_a_float_holds(value, want):
    """Subnormals, zero and a float already out of range pass unchanged."""
    got = to_float(value)
    assert type(got) is float and got == want


@pytest.mark.parametrize("value, near", [
    (F(10 ** 999), "1e999"), (-(10 ** 999), "-1e999"),
    (F(1, 10 ** 330), "1e-330"), (F(-1, 10 ** 330), "-1e-330"), (F(3, 10 ** 400), "1e-400"),
])
def test_to_float_refuses_what_no_float_holds(value, near):
    """Too large, or non-zero and rounding to 0.0: one message for both."""
    with pytest.raises(ValueError) as err:
        to_float(value, "q")
    assert str(err.value) == f"q near {near} does not fit in a float"


def test_quadratic_value_and_polarization():
    q = Quadratic(1, 2, 3)          # z^2 + 4z + 3
    assert q.value(F(2)) == 4 + 8 + 3
    # polarization restricted to the diagonal is the quadratic itself
    for z in (F(0), F(1), F(-5, 2)):
        assert q.polarize(z, z) == q.value(z)
    assert q.polarize(F(1), F(2)) == 1 * 2 + 2 * 3 + 3


_KERR = kerr(KerrParams(1, F(1, 2)))

#: every evaluator of the package at a point (x, y) of the Kerr exterior; a
#: one-variable evaluator is read at y, whose point is that one coordinate
_EVALUATORS = {
    "Poly.__call__": lambda x, y: _KERR.B(y),
    "Quadratic.value": lambda x, y: _KERR.tau_basis[0].value(y),
    "Quadratic.polarize": lambda x, y: _KERR.q.polarize(x, y),
    "Mobius.apply": lambda x, y: Mobius(1, 1, 1, 2).apply(y),
    "moment_map": lambda x, y: moment_map(_KERR, "+", x, y),
    "moment_differential": lambda x, y: moment_differential(_KERR, "-", (F(1), F(2)), x, y),
    "metric_components": lambda x, y: metric_components(_KERR, _KERR.metric, x, y),
    "eval_field": lambda x, y: tuple(eval_field(_KERR, f, FramePoint(x, y))
                                     for f in ("g0", "g+", "g-", "gp", "omega+", "omega-", "J+", "J-")),
    "curvature.scalar": lambda x, y: curvature(_KERR, METRIC_GPLUS, FramePoint(x, y)).scalar,
    "Conic.evaluate": lambda x, y: evaluate(fold_conic(_KERR, "+"), x, y),
    "scalar_closed_form": lambda x, y: scalar_closed_form(_KERR, "+", x, y),
}


def _entries(v):
    return [u for w in v for u in _entries(w)] if isinstance(v, tuple) else [v]


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("point, kind", [((F(3), F(1, 4)), F), ((3.0, 0.25), float),
                                         ((F(3), 0.25), float), ((3, 0), float)],
                         ids=["fractions", "floats", "mixed", "ints"])
def test_one_number_domain_rule(name, point, kind):
    """is_exact: a point is exact iff every coordinate is a Fraction, and an
    int counts as float.  Every evaluator returns Fractions at exact points
    and floats at all others."""
    assert is_exact(*point) == (kind is F)
    assert {type(v) for v in _entries(_EVALUATORS[name](*point))} == {kind}


def test_conic_types_of_normal_forms():
    assert conic_type(Quadratic(0, 0, 1)) == "Parabolic"
    assert conic_type(Quadratic(0, 1, 0)) == "Hyperbolic"
    assert conic_type(Quadratic(1, 0, 1)) == "Elliptic"


def test_double_roots():
    assert Quadratic(1, -1, 1).double_root() == F(1)      # (z-1)^2
    assert Quadratic(0, 1, 0).double_root() is None       # roots 0 and oo
    assert Quadratic(1, 0, 0).double_root() == F(0)
    # as a binary form a nonzero constant is W^2: double root at infinity
    assert Quadratic(0, 0, 5).double_root() is OO


def test_inner_signature():
    # <q, q> = 2(c1^2 - c0 c2), twice the discriminant
    q = Quadratic(1, 3, -2)
    assert inner(q, q) == 2 * (9 + 2)
    assert inner(Quadratic(0, 1, 0), Quadratic(0, 1, 0)) == 2
    assert inner(Quadratic(1, 0, 1), Quadratic(1, 0, 1)) == -2


@given(st.tuples(rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals))
def test_inner_symmetric_bilinear(a, b):
    p, q = Quadratic(*a), Quadratic(*b)
    assert inner(p, q) == inner(q, p)
    assert inner(p.scaled(3), q) == 3 * inner(p, q)


quadratics = st.builds(Quadratic, rationals, rationals, rationals)


@st.composite
def _nonzero_q(draw):
    """A nonzero quadratic; half of them null, s (a z - b)^2."""
    if draw(st.booleans()):
        a, b, s = draw(rationals), draw(rationals), draw(rationals)
        q = Quadratic(a * a, -a * b, b * b).scaled(s)
    else:
        q = draw(quadratics)
    assume(not q.is_zero())
    return q


def _det(a, b, c):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a.coeffs(), b.coeffs(), c.coeffs()
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def _combo(vs, bs):
    out = Quadratic(0, 0, 0)
    for v, b in zip(vs, bs):
        out = quadratics_reference.plus(out, b.scaled(v))
    return out


@given(quadratics, quadratics, quadratics)
@settings(max_examples=60, deadline=None)
def test_cross_product_identities(a, b, c):
    assert inner(cross(a, b), c) == -_det(a, b, c)
    lhs = cross(cross(a, b), c)
    rhs = quadratics_reference.plus(b.scaled(inner(a, c)), a.scaled(-inner(b, c))).scaled(F(-1, 2))
    assert lhs == rhs
    assert cross(a, b).is_zero() == (a.is_multiple_of(b) or b.is_multiple_of(a))


@given(_nonzero_q(), quadratics, quadratics)
@settings(max_examples=60, deadline=None)
def test_sigma_solves_the_cross_product_equation_in_its_gauge(q, r, u):
    tau = cross(q, r)                   # any quadratic orthogonal to q
    sigma = sigma_from_tau(tau, q)
    assert cross(sigma, q) == tau.scaled(-1)
    if inner(q, q) != 0:
        assert inner(sigma, q) == 0
    else:
        j = next(i for i, c in enumerate(q.coeffs()) if c != 0)
        assert sigma.coeffs()[j] == 0
    if inner(u, q) != 0:
        with pytest.raises(ValueError):
            sigma_from_tau(u, q)


@given(quadratics, quadratics, quadratics, quadratics)
@settings(max_examples=60, deadline=None)
def test_coordinates_rebuild_p(b1, b2, b3, p):
    frame = dual_frame(b1, b2, b3)
    if _det(b1, b2, b3) == 0:
        assert frame is None
    else:
        assert _combo(coordinates(p, frame), (b1, b2, b3)) == p


@given(_nonzero_q(), quadratics, quadratics, st.tuples(rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_coordinates_in_q_perp_against_a_transversal(q, r1, r2, v):
    # two independent quadratics of q-perp and a p between them; for null q
    # the triple (t1, t2, q) is degenerate and a transversal replaces q
    t1, t2 = cross(q, r1), cross(q, r2)
    assume(not cross(t1, t2).is_zero())
    p = _combo(v, (t1, t2))
    assert coordinates(p, dual_frame(t1, t2, transversal(q))) == (*v, 0)


def _compatible(q, gamma):
    """The compatible quadratic (W z - X)^2 x q of gamma = (X : W) in lowest
    terms, summed
    from the coordinates `compatible_coordinates` reads in the dual frame of
    a q-perp basis (t1, t2), built as `AnsatzSpec.tau_dual` builds it; None
    where it reports the zero product."""
    ts = [cross(q, u) for u in (Quadratic(0, 0, 1), Quadratic(0, 1, 0), Quadratic(1, 0, 0))]
    t1, t2 = next((a, b) for i, a in enumerate(ts) for b in ts[i + 1:]
                  if not cross(a, b).is_zero())
    dual = dual_frame(t1, t2, q) or dual_frame(t1, t2, transversal(q))
    uk = compatible_coordinates(q, dual, *proj_ints(gamma))
    if uk is None:
        return None
    u1, u2, k = uk
    return _combo((F(u1, k), F(u2, k)), (t1, t2))


@given(_nonzero_q(), rationals)
@settings(max_examples=60, deadline=None)
def test_compatible_quadratic_is_orthogonal_and_vanishes_at_gamma(q, g):
    r = q.double_root()
    X, W = g.numerator, g.denominator
    for gamma, null in ((g, Quadratic(W * W, -X * W, X * X)), (OO, Quadratic(0, 0, 1))):
        want = cross(null, q)
        p = _compatible(q, gamma)
        # None exactly where gamma is the double root of q
        assert (p is None) == want.is_zero() == (r is not None and proj_eq(r, gamma))
        if p is None:
            continue
        assert inner(p, q) == 0
        assert p == want
        if gamma is OO:
            # p(OO) is the leading coefficient c0
            assert p.c0 == 0
        else:
            assert p.polarize(g, g) == 0


def test_poly_root_multiplicity():
    P = Poly([0, 0, 1, 1])          # x^2 (x + 1)
    assert P.root_multiplicity(F(0)) == 2
    assert P.root_multiplicity(F(-1)) == 1
    assert P.root_multiplicity(F(7)) == 0
    # at infinity: 4 - degree, weight-2 convention
    assert P.root_multiplicity(OO) == 1
    assert Poly([1]).root_multiplicity(OO) == 4


# A Sturm sign-change difference V(lo) - V(hi) taken without first
# dividing out the endpoint roots miscounts these.
@pytest.mark.parametrize("coeffs, lo, hi, inside", [
    ([1, 5, 9, 7, 2], F(-1), None, 1),      # (z+1)^3 (2z+1): zero at -1/2
    ([8, -18, 12, -2], F(-1), F(1), 0),     # -2 (z-1)^2 (z-4)
    ([-1, 0, 2, 0, -1], F(-1), None, 1),    # -(z^2-1)^2: zero at 1
])
def test_count_roots_with_endpoint_roots(coeffs, lo, hi, inside):
    P = Poly(coeffs)
    assert P.count_roots(lo, hi) == inside
    if inside:
        with pytest.raises(ValidationError):
            _positivity_check(P, Interval(lo, hi), "A")
    else:
        _positivity_check(P, Interval(lo, hi), "A")


@st.composite
def _factored_polys(draw):
    """(P, lo, hi, roots, sign): P = sign * prod (z - r)^m * Q with Q = 1 or a
    positive-definite quadratic; some roots sit at the finite endpoints."""
    ends = draw(st.lists(rationals, min_size=2, max_size=2, unique=True))
    lo, hi = sorted(ends)
    lo = draw(st.sampled_from([lo, None]))
    hi = draw(st.sampled_from([hi, None]))
    point = st.one_of(rationals, st.sampled_from([e for e in (lo, hi)
                                                  if e is not None] or [F(0)]))
    roots = draw(st.dictionaries(point, st.integers(1, 3), max_size=3))
    sign = draw(st.sampled_from([-2, -1, 1, 3]))
    P = Poly([sign])
    for r, m in roots.items():
        for _ in range(m):
            P = P * Poly([-r, 1])
    if draw(st.booleans()):
        a = draw(rationals)
        b = draw(st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12))
        P = P * Poly([a * a + b, -2 * a, 1])          # (z - a)^2 + b
    return P, lo, hi, roots, sign


@given(_factored_polys())
@settings(max_examples=150, deadline=None)
def test_count_roots_and_positivity_match_construction(case):
    P, lo, hi, roots, sign = case
    inside = [r for r in roots
              if (lo is None or r > lo) and (hi is None or r < hi)]
    assert P.count_roots(lo, hi) == len(inside)
    # with no root inside, each factor has one sign on the interval:
    # (z - r)^m is positive for r <= lo and has sign (-1)^m for r >= hi
    flips = sum(m for r, m in roots.items() if hi is not None and r >= hi)
    positive = not inside and sign * (-1) ** flips > 0
    if positive:
        _positivity_check(P, Interval(lo, hi), "A")
    else:
        with pytest.raises(ValidationError):
            _positivity_check(P, Interval(lo, hi), "A")


def test_poly_transport_quartic_inversion():
    A = Poly([1, 0, 0, 0, 1])       # x^4 + 1
    m = Mobius(0, -1, 1, 0)         # x -> -1/x
    assert poly_transport(A, m, 2).coeffs == A.coeffs


def _compose(m1, m2):
    """m1 after m2, from the product of their matrices."""
    return Mobius(m1.a * m2.a + m1.b * m2.c, m1.a * m2.b + m1.b * m2.d,
                  m1.c * m2.a + m1.d * m2.c, m1.c * m2.b + m1.d * m2.d)


def test_mobius_group_laws():
    m1 = Mobius(1, 2, 3, 5)
    m2 = Mobius(0, 1, 1, 0)
    z = F(7, 3)
    assert _compose(m1, m2).apply(z) == m1.apply(m2.apply(z))
    assert proj_eq(m1.inverse().apply(m1.apply(z)), z)
    assert m1.apply(m1.pole()) is OO


@given(st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=60)
def test_mobius_inverse_roundtrip(abcd):
    a, b, c, d = abcd
    if a * d - b * c == 0:
        return
    m = Mobius(a, b, c, d)
    for z in (F(0), F(1), F(-3, 2)):
        assert proj_eq(m.inverse().apply(m.apply(z)), z)


def test_transport_quadratic_weight_one():
    q = Quadratic(0, F(1, 2), 0)    # q(z) = z
    m = Mobius(1, 1, 0, 1)          # z -> z + 1
    qt = transport_quadratic(q, m)
    # root moves from 0 to 1
    assert qt.value(F(1)) == 0
    assert qt.value(F(0)) != 0


def test_transvectant_is_quadratic_and_bilinear():
    p = Quadratic(1, 0, -4)
    R = Poly([1, 4, 0, 1, 1])
    t = transvectant2(p, R)
    assert isinstance(t, Quadratic)
    t2 = transvectant2(p, Poly([2, 8, 0, 2, 2]))
    assert t2.coeffs() == tuple(2 * c for c in t.coeffs())


def test_transvectant_of_q_with_powers():
    # (q, z^4)^(2) for q = 2z: q R'' - 3 q' R' + 6 q'' R with q'' = 0
    q = Quadratic(0, 1, 0)
    t = transvectant2(q, Poly([0, 0, 0, 0, 1]))
    # 2z * 12 z^2 - 3 * 2 * 4 z^3 = 0
    assert t.is_zero()


def test_transvectant_refuses_a_quintic():
    with pytest.raises(ValueError, match="needs a quartic, got degree 5"):
        transvectant2(Quadratic(1, 0, 1), Poly([0, 0, 0, 0, 0, 1]))


#: coefficients with zeros, signs and denominators up to 10^30
_wide = st.one_of(st.just(F(0)), st.integers(-6, 6).map(F),
                  st.fractions(min_value=-8, max_value=8, max_denominator=12),
                  st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
_wide_quadratics = st.builds(Quadratic, _wide, _wide, _wide)


@settings(max_examples=200, deadline=None)
@given(p=_wide_quadratics, R=st.lists(_wide, max_size=5).map(Poly))
def test_transvectant_closed_form_equals_its_poly_products(p, R):
    """The closed form against the Poly products it replaced, for R of every
    degree up to 4 (the empty list is the zero polynomial)."""
    t = transvectant2(p, R)
    assert t == quadratics_reference.reference_transvectant2(p, R)
    assert {type(c) for c in t.coeffs()} == {F}


def _is_fraction_quadratic(q):
    """q holds Fractions, and its numerators over d > 0 give them back."""
    *ns, d = q.numerators
    return (isinstance(q, Quadratic) and all(type(c) is F for c in q.coeffs())
            and d > 0 and all(F(n, d) == c for n, c in zip(ns, q.coeffs())))


@given(_wide_quadratics, _wide_quadratics, _wide_quadratics, _wide_quadratics,
       st.lists(_wide, min_size=4, max_size=4), st.one_of(st.just(OO), _wide))
@settings(max_examples=200, deadline=None)
def test_quadratic_kernels_equal_their_fraction_references(a, b, c, p, xwyv, gamma):
    """inner, cross, coordinates, the null quadratic `_null_ints` and
    `compatible_coordinates` on integer numerators equal the plain Fraction
    formulas exactly, and every Fraction-valued result is a Fraction: an
    int would read as a float to `is_exact`.  The integer polarization
    `_polar_ints` at integer representatives, over their denominators, is
    the Fraction one, and proj_ints is the lowest-terms integer
    representative of proj_rep's point."""
    v = inner(a, b)
    assert v == quadratics_reference.inner(a, b) and type(v) is F
    ab = cross(a, b)
    assert ab == quadratics_reference.cross(a, b) and _is_fraction_quadratic(ab)
    # at the integer representative (g0 : g1) of gamma the null and the
    # compatible quadratic are g1^2 times the reference's
    g0, g1 = proj_ints(gamma)
    null = quadratics_reference.null_quadratic(gamma)
    assert Quadratic(*_null_ints(g0, g1)) == null.scaled(g1 * g1 or 1)
    pg = quadratics_reference.compatible_quadratic(p, gamma).scaled(g1 * g1 or 1)
    frame = dual_frame(a, b, c)
    want = quadratics_reference.coordinates(p, a, b, c)
    if want is None:
        assert frame is None
    else:
        got = coordinates(p, frame)
        assert got == want and all(type(w) is F for w in got)
        uk = compatible_coordinates(p, frame, g0, g1)
        if pg.is_zero():
            assert uk is None
        else:
            u1, u2, k = uk
            assert all(type(v) is int for v in uk) and k != 0
            assert (F(u1, k), F(u2, k)) == quadratics_reference.coordinates(pg, a, b, c)[:2]
    (X, W), e = _over_common(xwyv[:2])
    (Y, V), f = _over_common(xwyv[2:])
    h = F(_polar_ints(p.numerators, X, W, Y, V), p.numerators[3] * e * f)
    assert h == quadratics_reference.polarize_hom(p, *xwyv)
    (a, b), (X, W) = proj_ints(gamma), quadratics_reference.proj_rep(gamma)
    assert a * W == b * X and b >= 0 and math.gcd(a, b) == 1


@given(st.lists(_wide, min_size=1, max_size=5), _wide, st.integers(0, 3), _wide)
@settings(max_examples=200, deadline=None)
def test_poly_kernels_equal_their_fraction_references(cs, g, k, z):
    """Poly.jet at a rational point, and the root multiplicity and quotient
    of repeated synthetic division, equal the Fraction Horner scheme
    exactly, as Fractions; P carries the root g k extra times."""
    P = Poly(cs)
    for _ in range(k):
        P = P * Poly([-g, 1])
    for n in (1, 2, 3):
        got = P.jet(z, n)
        assert got == quadratics_reference.poly_jet(P.coeffs, z, n)
        assert all(type(w) is F for w in got)
    assert P.jet(g, 1)[0] == P(g) and type(P(g)) is F
    if P.is_zero():
        return
    ns, d = P.numerators
    m, qs = _divide(ns, g.numerator, g.denominator)
    want_m, want_q = quadratics_reference.deflate(P.coeffs, g)
    # P = (b z - a)^m qs / d = (z - g)^m Q with Q = b^m qs / d
    assert m == want_m and m >= k
    assert Poly([F(c * g.denominator ** m, d) for c in qs]) == Poly(want_q)
    assert P.root_multiplicity(g) == m


@st.composite
def _wide_polys(draw):
    """(P, lo, hi): P of degree 0 to 4 with coefficients whose denominators
    reach 10^30, often carrying a multiple root or a root at either end;
    None is an infinite end."""
    ends = sorted(draw(st.lists(_wide, min_size=2, max_size=2, unique=True)))
    lo = draw(st.sampled_from([ends[0], None]))
    hi = draw(st.sampled_from([ends[1], None]))
    roots = draw(st.lists(st.one_of(_wide, st.sampled_from(ends)), max_size=4))
    P = Poly([draw(_wide.filter(bool))])
    for r in roots:
        P = P * Poly([-r, 1])
    rest = draw(st.lists(_wide, max_size=5 - len(P.coeffs)))
    if rest and rest[-1] != 0:
        P = P * Poly(rest)
    return P, lo, hi


@given(_wide_polys(), _wide)
@settings(max_examples=300, deadline=None)
def test_count_roots_equals_its_fraction_reference(case, z):
    """The Sturm count on integer pseudo-remainders equals the Sturm count
    on Fraction remainders (`Poly.__mod__` before it was removed), for
    degrees 0 to 4, multiple roots and roots at either end; and the sign
    that `Poly.sign` reads by homogeneous Horner is the sign of P(z)."""
    P, lo, hi = case
    assert P.degree <= 4
    assert P.count_roots(lo, hi) == quadratics_reference.count_roots(P, lo, hi)
    v = P(z)
    assert P.sign(z) == (v > 0) - (v < 0)
