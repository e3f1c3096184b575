import collections
import json
import math
import pathlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambitoric import (
    OO,
    AnsatzSpec,
    Conic,
    Interval,
    KerrParams,
    Mobius,
    MomentError,
    MomentPoint,
    Quadratic,
    convexity_check,
    delzant_check,
    fold_conic,
    identify_t,
    kerr,
    level_set_line,
    mobius_transport,
    moment_map,
    validate,
)
from ambitoric import moment
from ambitoric.ansatz import SignCells
from ambitoric.moment import TangencyCertificate
from ambitoric.classify import classify
from ambitoric.quadratics import _over_common, coordinates, cross
from ambitoric.special import INTERIOR
from ambitoric.invariants import relative_residual
from ambitoric.tensors import FramePoint, eval_field, moment_differential

import quadratics_reference
from conftest import (
    I2,
    assert_standard_polygon,
    boxes_and_pole_transports,
    canonical_boxes,
    fold_points,
    geometry_specs,
    make_spec,
    respec,
    small,
    transported_boxes,
    z2_spec,
)
from moment_reference import (
    cramer,
    evaluate,
    reference_convexity_check,
    reference_coordinates,
    reference_edge_line,
    reference_fold_conic,
    reference_moment_map,
    reference_tangency,
)


def test_moment_map_exact_on_rationals(hyperbolic_spec):
    mp = moment_map(hyperbolic_spec, "-", F(5, 2), F(-1, 2))
    assert isinstance(mp.mu1, F) and isinstance(mp.mu2, F)
    # tau = {1, z^2}: mu- = (-1/(x-y), -xy/(x-y))
    assert mp.mu1 == F(-1, 3)
    assert mp.mu2 == F(5, 12)


def test_moment_map_poles(hyperbolic_spec):
    with pytest.raises(MomentError):
        moment_map(hyperbolic_spec, "-", F(1), F(1))
    with pytest.raises(MomentError):
        moment_map(hyperbolic_spec, "+", F(1), F(-1))   # q(x,y) = x + y = 0


@pytest.mark.parametrize("sign", ["+", "-"])
def test_float_moment_map_is_bitwise_the_polarization(sign):
    """At float points moment_map reads the cached float coefficients; its
    bits are those of -b.polarize(x, y) / den at the sample_points(6) of
    the 8 goldens and the Kerr exterior and interior.  At their witnesses
    the exact map is the same quotient of Fractions.  A float pole still
    raises."""
    specs = geometry_specs()
    assert len(specs) == 10
    for spec in specs.values():
        b1, b2 = spec.sigma_basis if sign == "+" else spec.tau_basis
        for comp in validate(spec):
            for x, y in comp.sample_points(6) + [comp.witness]:
                den = spec.q.polarize(x, y) if sign == "+" else x - y
                expected = (-b1.polarize(x, y) / den, -b2.polarize(x, y) / den)
                got = tuple(moment_map(spec, sign, x, y))
                if isinstance(x, F):
                    assert got == expected and {type(v) for v in got} == {F}
                else:
                    assert [v.hex() for v in got] == [v.hex() for v in expected]
    spec = specs["case5_accept"]
    assert spec.q == Quadratic(0, 1, 0)      # q(x, y) = x + y
    with pytest.raises(MomentError):
        moment_map(spec, sign, 2.5, -2.5 if sign == "+" else 2.5)


_POINTS = st.lists(st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=97)] * 2),
                   min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(spec=st.one_of(canonical_boxes(), transported_boxes()), points=_POINTS)
@example(spec=mobius_transport(geometry_specs()["case5_accept"], Mobius(2, 1, 1, 3)),
         points=[(F(-12, 7), F(9, 5)), (F(-11, 7), F(6, 5))])
def test_moment_map_is_the_general_formula(spec, points):
    """moment_map against the general formula of the reference, both signs:
    bit for bit at float, int and np.float64 points, the same Fractions at
    Fraction points, and the same poles.  (a0 x) y and a0 (x y) round apart
    at about 1 in 20 random float points of a transported box, and at the
    points of the example."""
    for sign in "+-":
        for x, y in points:
            for pt in ((x, y), (float(x), float(y)), (int(x), int(y)),
                       (np.float64(x), np.float64(y))):
                try:
                    expected = reference_moment_map(spec, sign, *pt)
                except MomentError:
                    with pytest.raises(MomentError):
                        moment_map(spec, sign, *pt)
                    continue
                got = moment_map(spec, sign, *pt)
                assert type(got) is MomentPoint
                if isinstance(pt[0], F):
                    assert got == expected and {type(v) for v in got} == {F}
                else:
                    assert {type(v) for v in got} == {float}
                    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_moment_point_api():
    """MomentPoint: two named coordinates, a plain tuple of them, equal and
    equally hashed when the coordinates are, and immutable."""
    p = MomentPoint(F(1, 2), -0.25)
    assert (p.mu1, p.mu2) == (F(1, 2), -0.25)
    assert tuple(p) == (F(1, 2), -0.25) and type(tuple(p)) is tuple
    assert p == MomentPoint(F(1, 2), -0.25) and hash(p) == hash(MomentPoint(0.5, -0.25))
    assert p != MomentPoint(F(1, 2), 0.25)
    assert len({p, MomentPoint(0.5, -0.25), MomentPoint(0, 0)}) == 2
    for name in ("mu1", "mu2", "mu3"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    assert (p.mu1, p.mu2) == (F(1, 2), -0.25)


def test_identify_t_normal_forms(hyperbolic_spec):
    # q = 2z: the constant 1 sits at (1, 0), z^2 at (0, -1) in the '+' chart
    assert identify_t(hyperbolic_spec, Quadratic(0, 0, 1), "+") == (1, 0)
    assert identify_t(hyperbolic_spec, Quadratic(1, 0, 0), "+") == (0, -1)
    # and the '-' chart uses the tau basis directly
    assert identify_t(hyperbolic_spec, Quadratic(1, 0, 0), "-") == (0, 1)


def test_identify_t_rejects_non_orthogonal(hyperbolic_spec):
    with pytest.raises(MomentError):
        identify_t(hyperbolic_spec, Quadratic(0, 1, 0), "+")


@given(st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8))
@settings(max_examples=40, deadline=None)
def test_identify_t_linear(a, b):
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 3), (-1, 0))
    p1, p2 = Quadratic(1, 0, 0), Quadratic(0, 0, 1)
    combo = Quadratic(a, 0, b)
    v = identify_t(spec, combo, "+")
    v1 = identify_t(spec, p1, "+")
    v2 = identify_t(spec, p2, "+")
    assert v[0] == a * v1[0] + b * v2[0]
    assert v[1] == a * v1[1] + b * v2[1]


def test_fold_conic_hyperbolic_displayed_form(hyperbolic_spec):
    # mu- image of {q = 0}: 4 mu1 mu2 = -1
    c = fold_conic(hyperbolic_spec, "-")
    assert c.matrix == ((F(0), F(2), F(0)),
                       (F(2), F(0), F(0)),
                       (F(0), F(0), F(1)))


def test_fold_conic_elliptic_circle(elliptic_spec):
    c = fold_conic(elliptic_spec, "-")
    m1, m2 = F(3, 5), F(-4, 5)
    assert evaluate(c, m1, m2) == 0
    assert evaluate(c, F(1), F(1)) != 0


def test_fold_conic_parabolic_cases(parabolic_spec):
    cp = fold_conic(parabolic_spec, "+")     # mu1^2 = 4 mu2
    assert evaluate(cp, F(2), F(1)) == 0
    cm = fold_conic(parabolic_spec, "-")
    assert cm.matrix is None
    assert set(cm.points) == {(F(0), F(1, 2)), (F(0), F(-1, 2))}


def _pairing(spec, sign, p, x, y):
    """<identify_t(p, sign), mu^sign(x, y)>."""
    v, mp = identify_t(spec, p, sign), moment_map(spec, sign, x, y)
    return v[0] * mp.mu1 + v[1] * mp.mu2


def test_moment_pairing_vanishes_on_p_zero(hyperbolic_spec):
    # p = z^2 - 4 vanishes on xy = 4
    p = Quadratic(1, 0, -4)
    for x in (F(5, 2), F(8, 3), F(17, 6)):
        y = 4 / x
        val = _pairing(hyperbolic_spec, "+", p, x, y)
        assert val == 0 and type(val) is F


def test_identify_t_pairs_mu_with_the_p_quotient(hyperbolic_spec, parabolic_spec):
    """For p _|_ q, <identify_t(p), mu-> = -p(x,y)/(x-y), and
    <identify_t(p), mu+> = lambda - p(x,y)/q(x,y) with lambda the constant
    q-part of p, zero unless q is parabolic.  So identify_t(p) is the
    normal of the image line of each level set of p/(x-y) and p/q."""
    pts = ((F(5, 2), F(-1, 2)), (F(8, 3), F(-3, 4)), (F(17, 6), F(-1, 5)))
    lambdas = set()
    for spec in (hyperbolic_spec, parabolic_spec):
        for r in ((1, 0, 0), (0, 0, 1), (1, 2, 3)):
            p = cross(spec.q, Quadratic(*r))
            if p.is_zero():
                continue
            for x, y in pts:
                assert _pairing(spec, "-", p, x, y) == -p.polarize(x, y) / (x - y)
            lam = {_pairing(spec, "+", p, x, y) + p.polarize(x, y) / spec.q.polarize(x, y)
                   for x, y in pts}
            assert len(lam) == 1
            assert lam == {0} or spec is parabolic_spec
            lambdas |= lam
    assert lambdas != {0}      # the parabolic q-part is met


def test_the_minus_frame_reads_the_spec_dual_frame():
    """`classify` reads each compatible normal off `AnsatzSpec.tau_dual`,
    and the '-' moment frame holds that same object afterwards, so a spec
    builds its '-' dual frame once.  It is the dual frame of (tau1, tau2,
    q), or of (tau1, tau2, transversal(q)) for the parabolic case2."""
    goldens = {name: spec for name, spec in geometry_specs().items()
               if not name.startswith("kerr")}
    assert len(goldens) == 8
    assert any(s.q.double_root() is not None for s in goldens.values())
    for name, spec in goldens.items():
        classify(spec)
        dual = spec.tau_dual
        assert moment._frame(spec, "-").dual is dual, name
        t1, t2 = spec.tau_basis
        assert coordinates(t1, dual) == (1, 0, 0) and coordinates(t2, dual) == (0, 1, 0)


def test_level_set_line_tangency(hyperbolic_spec):
    line = level_set_line(hyperbolic_spec, "-", "X", F(2))
    assert line.tangency is not None and line.tangency.ok
    # sampled points of the level set satisfy the line equation
    for y in (F(-1, 2), F(-1, 4), F(-3, 4)):
        mp = moment_map(hyperbolic_spec, "-", F(2), y)
        assert line.normal[0] * mp.mu1 + line.normal[1] * mp.mu2 == line.offset


def test_fold_conic_is_computed_once_per_spec_and_sign(hyperbolic_spec, monkeypatch):
    """Every edge's tangency certificate reads the conic of the spec's
    moment frame, which is built once per spec instance and sign."""
    built = []
    build = moment._fold_conic
    monkeypatch.setattr(moment, "_fold_conic",
                        lambda spec, sign, duals: built.append(sign) or build(spec, sign, duals))
    spec = respec(hyperbolic_spec)
    for sign in "+-":
        for _ in range(2):
            for axis, gamma in (("X", F(2)), ("X", F(3)), ("Y", F(-1)), ("Y", F(0))):
                level_set_line(spec, sign, axis, gamma)
        assert fold_conic(spec, sign) is fold_conic(spec, sign)
    assert built == ["+", "-"]
    # no cache keyed by the spec's value: an equal instance builds its own
    assert fold_conic(respec(spec), "+") == fold_conic(spec, "+")
    assert built == ["+", "-", "+"]


def test_tangency_certificate_is_exact():
    assert TangencyCertificate(leading=F(0), discriminant=F(0)).ok
    assert not TangencyCertificate(leading=F(1), discriminant=F(1, 10 ** 15)).ok


def test_level_set_line_at_infinity():
    spec = make_spec(Quadratic(0, 0, 1), [-1, 1, -1, 1], [-2, -3, -1],
                     (1, None), (-2, -1))
    from ambitoric.quadratics import OO
    line = level_set_line(spec, "-", "X", OO)
    assert line.tangency is None or line.tangency.ok


def test_fold_points_of_transported_parabolic_golden():
    # z -> 1/z moves the double root of q to 0: {q = 0} is the line pair
    # x = 0, y = 0, and each line maps to one of the two fold points
    golden = pathlib.Path(__file__).parent / "golden" / "case2_fold_edge_g0.json"
    spec = AnsatzSpec.from_dict(json.loads(golden.read_text())["spec"])
    c = fold_conic(mobius_transport(spec, Mobius(0, 1, 1, 0)), "-")
    assert c.matrix is None
    assert set(c.points) == {(F(0), F(1, 2)), (F(0), F(-1, 2))}


def test_level_set_lines_at_infinity_on_both_axes(elliptic_spec, parabolic_spec):
    # mu- is antisymmetric under x <-> y, so the images of {x = oo} and
    # {y = oo} differ; compare with mu- far out along each edge
    far = F(10) ** 12
    for spec in (elliptic_spec, parabolic_spec):
        for axis in ("X", "Y"):
            line = level_set_line(spec, "-", axis, OO)
            for s in (F(1, 3), F(2)):
                mp = moment_map(spec, "-", *((far, s) if axis == "X" else (s, far)))
                if line.degenerate_point is not None:
                    gap = max(abs(a - b) for a, b in
                              zip(line.degenerate_point, tuple(mp)))
                else:
                    gap = abs(line.normal[0] * mp.mu1 + line.normal[1] * mp.mu2
                              - line.offset)
                assert gap < F(1, 10 ** 9), (spec.ctype, axis, s)


@given(transported_boxes(), st.lists(small, min_size=3, max_size=6))
@settings(max_examples=40, deadline=None)
def test_closed_forms_hold_at_fresh_points(spec, xs):
    for sign in "+-":
        conic = fold_conic(spec, sign)
        for x, y in fold_points(spec.q, sign, xs):
            try:
                mp = moment_map(spec, sign, x, y)
            except MomentError:
                continue
            if conic.matrix is None:
                assert tuple(mp) in conic.points
            else:
                assert evaluate(conic, mp.mu1, mp.mu2) == 0
        for axis, iv in (("X", spec.x_interval), ("Y", spec.y_interval)):
            for gamma in iv.endpoints_proj():
                try:
                    line = level_set_line(spec, sign, axis, gamma)
                except MomentError:
                    # mu+ has its pole along an edge at the double root of q
                    assert sign == "+" and spec.q.double_root() == gamma
                    continue
                if line.degenerate_point is None and conic.matrix is not None:
                    assert line.tangency.discriminant == 0
                for s in xs:
                    try:
                        mp = moment_map(spec, sign, *((gamma, s) if axis == "X"
                                                      else (s, gamma)))
                    except MomentError:
                        continue
                    if line.degenerate_point is not None:
                        assert tuple(mp) == line.degenerate_point
                    else:
                        assert (line.normal[0] * mp.mu1 + line.normal[1] * mp.mu2
                                == line.offset)


def test_hamiltonian_property(hyperbolic_spec):
    pts = validate(hyperbolic_spec)[0].sample_points(4)
    for x, y in pts[:6]:
        for sign in ("+", "-"):
            w = np.asarray(eval_field(hyperbolic_spec, "omega" + sign, FramePoint(x, y)))
            for K in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-3))):
                # d mu_K = -K -| omega, judged as `check` judges it
                dmu = np.asarray(moment_differential(hyperbolic_spec, sign, K, x, y))
                kw = np.array([0.0, 0.0, float(K[0]), float(K[1])]) @ w
                assert relative_residual([dmu + kw], ([dmu],), ([kw],)) < 1e-6


#: the inward normals of the unit square (0,0), (1,0), (1,1), (0,1)
SQUARE = ((F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)), (F(1), F(0)))


def test_delzant_square():
    dets = delzant_check(SQUARE, I2)
    assert dets == [1, 1, 1, 1] and all(type(d) is F for d in dets)
    assert_standard_polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), SQUARE, I2)


def test_delzant_fails_on_coarse_lattice():
    # (+-1, 0) is no vector of the lattice spanned by (2, 0) and (0, 1), and
    # each corner meets one of them
    assert delzant_check(SQUARE, ((F(2), F(0)), (F(0), F(1)))) == [None] * 4


def test_delzant_reads_the_orbifold_orders():
    # a triangle with normals (1, -1), (0, 2), (-2, 0): corner orders 2, 4, 2
    # on the standard lattice; on the lattice spanned by (1, -1) and (0, 2)
    # they are 1, 2, 1, a weighted projective plane with one Z/2 point
    normals = ((F(1), F(-1)), (F(0), F(2)), (F(-2), F(0)))
    assert delzant_check(normals, I2) == [2, 4, 2]
    assert delzant_check(normals, ((F(1), F(0)), (F(-1), F(2)))) == [1, 2, 1]


_GRID = [(i / 10, j / 10) for i in range(11) for j in range(11)]
_RING = [(math.cos(t) * r, math.sin(t) * r)
         for r in (1.0, 1.1, 1.2)
         for t in [k * math.pi / 40 for k in range(80)]]
_LINE = [(t, 2 * t) for t in [k / 20 for k in range(21)]]


def test_convexity_grid_and_annulus():
    ok, witness = convexity_check(_GRID)
    assert ok
    ok, witness = convexity_check(_RING)
    assert not ok
    assert witness is not None
    # the witness sits in the hole
    assert math.hypot(witness.mu1, witness.mu2) < 1.0


def test_convexity_collinear_by_convention():
    ok, _ = convexity_check(_LINE)
    assert ok


def _kerr_interior_clouds(alpha, n):
    """The mu- images of sample_points(n) of each cell of the M = 1 Kerr
    interior, off the poles."""
    spec = kerr(KerrParams(1, alpha), INTERIOR)
    for comp in validate(spec):
        samples = []
        for x, y in comp.sample_points(n):
            try:
                samples.append(moment_map(spec, "-", x, y))
            except MomentError:
                continue
        yield samples


@pytest.mark.parametrize("n", [20, 28, 40])
@pytest.mark.parametrize("alpha", [F(1, 2), F(3, 4)], ids=["alpha-half", "alpha-three-quarters"])
def test_convexity_check_is_the_reference(alpha, n):
    """Verdict and witness equal to the reference's on the grid, ring and
    line clouds and on the Kerr interior clouds, whose cell (-1, -1) at alpha = 3/4 flips
    its verdict with n (convexity_check docstring); a generator of the
    samples gives the same."""
    clouds = list(_kerr_interior_clouds(alpha, n))
    if (alpha, n) == (F(1, 2), 20):
        clouds += [_GRID, _RING, _LINE]
    for samples in clouds:
        expected = reference_convexity_check(samples)
        assert convexity_check(samples) == expected
        assert convexity_check(iter(samples)) == expected
        assert convexity_check(tuple(s) for s in samples) == expected


@pytest.mark.parametrize("samples", [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0, 0.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0,)],
    [(0.0, 0.0, 0.0)] * 4,
    [(0.0, 0.0), (1.0, 0.0)],
], ids=["one-triple", "one-single", "all-triples", "two-samples"])
def test_convexity_check_rejects_a_cloud_that_is_not_of_pairs(samples):
    with pytest.raises(MomentError):
        convexity_check(samples)


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_moment_differential_agrees_with_numpy(name):
    """d mu_K at float points against the exact d mu_K at the same point and
    against -K -| omega from numpy, at the witnesses and sample points."""
    spec = geometry_specs()[name]
    for comp in validate(spec):
        for x, y in [tuple(map(float, comp.witness))] + comp.sample_points(6):
            for sign in "+-":
                for K in ((F(1), F(0)), (F(2), F(-3))):
                    dmu = np.asarray(moment_differential(spec, sign, K, x, y))
                    exact = moment_differential(spec, sign, K, F(x), F(y))
                    w = np.asarray(eval_field(spec, "omega" + sign, FramePoint(x, y)))
                    Kw = np.array([0.0, 0.0, float(K[0]), float(K[1])]) @ w
                    size = np.max(np.abs(dmu))
                    assert np.max(np.abs(dmu - np.array(exact, dtype=float))) <= 1e-12 * size
                    assert np.max(np.abs(dmu + Kw)) <= 1e-12 * size


def test_hamiltonian_residual_detects_wrong_pairing(any_spec):
    # d mu_K + K -| omega vanishes only for the matching K and sign
    x, y = map(float, validate(any_spec)[0].witness)
    K, other = (F(1), F(0)), (F(0), F(1))
    for sign, flip in (("+", "-"), ("-", "+")):
        w = np.asarray(eval_field(any_spec, "omega" + sign, FramePoint(x, y)))
        dmu = np.asarray(moment_differential(any_spec, sign, K, x, y))
        kw = np.array([0.0, 0.0, float(K[0]), float(K[1])]) @ w
        assert relative_residual([dmu + kw], ([dmu],), ([kw],)) < 1e-9
        w_flip = np.asarray(eval_field(any_spec, "omega" + flip, FramePoint(x, y)))
        wrong_k = np.array([0.0, 0.0, float(other[0]), float(other[1])]) @ w
        wrong_sign = np.array([0.0, 0.0, float(K[0]), float(K[1])]) @ w_flip
        assert np.max(np.abs(dmu + wrong_k)) > 1e-2
        assert np.max(np.abs(dmu + wrong_sign)) > 1e-2


_BOXES = {c: canonical_boxes(conics=st.just(c)) for c in ("Elliptic", "Hyperbolic", "Parabolic")}
_BOXES["transported"] = transported_boxes()
_LINE_PART = st.one_of(st.just(F(0)), small)


def _edge_lines(spec, sign):
    for axis, iv in (("X", spec.x_interval), ("Y", spec.y_interval)):
        for gamma in iv.endpoints_proj():
            try:
                yield level_set_line(spec, sign, axis, gamma)
            except MomentError:
                continue


@pytest.mark.parametrize("kind", sorted(_BOXES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_tangency_from_the_adjugate_is_the_point_and_direction_formula(kind, data):
    """The certificate read off the frame's adjugate equals, as Fractions,
    the one from a point and the direction of the line, for every edge image
    of `level_set_line` and for drawn lines (n1 = 0 and n2 = 0 included,
    scaled to primitive integers by `_line_ints`) against both folds.  Both
    entries are Fractions: an int would read as a float to `is_exact`."""
    spec = data.draw(_BOXES[kind])
    drawn = data.draw(st.lists(st.tuples(_LINE_PART, _LINE_PART, small)
                               .filter(lambda t: t[0] != 0 or t[1] != 0), max_size=4))
    for sign in "+-":
        frame = moment._frame(spec, sign)
        lines = [line for line in _edge_lines(spec, sign) if line.degenerate_point is None]
        for line in lines:
            assert line.tangency == reference_tangency(line, frame.conic)
        for n1, n2, c in drawn:
            lines.append(moment._line_ints(_over_common((n1, n2, -c))[0], frame))
            assert lines[-1].tangency == reference_tangency(lines[-1], frame.conic)
            # the same line: (n1, n2, c) and the scaled one are parallel
            got = (*lines[-1].normal, lines[-1].offset)
            assert all(got[i] * v == got[j] * u
                       for (i, u), (j, v) in [((0, n1), (1, n2)), ((0, n1), (2, c)),
                                              ((1, n2), (2, c))])
        for cert in (line.tangency for line in lines if line.tangency is not None):
            assert type(cert.leading) is F and type(cert.discriminant) is F


@given(st.lists(st.integers(-40, 40), min_size=6, max_size=6),
       st.lists(st.tuples(_LINE_PART, _LINE_PART, small)
                .filter(lambda t: t[0] != 0 or t[1] != 0), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_tangency_identity_holds_for_every_symmetric_conic(entries, drawn):
    """The adjugate form of the certificate does not rest on the fold
    conics' shape (they have no linear terms): it equals the point-and-
    direction formula for any symmetric Q with 2Q integral, which every
    conic scaled to primitive integer coefficients is."""
    a, b, c, d, e, f = entries
    twice = ((a, b, d), (b, c, e), (d, e, f))
    conic = Conic(matrix=tuple(tuple(F(v, 2) for v in row) for row in twice))
    frame = moment._Frame(None, conic, twice, moment._adjugate(twice))
    for n1, n2, off in drawn:
        line = moment._line_ints(_over_common((n1, n2, -off))[0], frame)
        assert line.tangency == reference_tangency(line, conic)


def test_tangency_certificates_of_the_geometry_specs():
    """The edge images of the goldens and Kerr hold lines with n1 = 0, with
    n2 = 0 and asymptotes (leading coefficient 0); every certificate equals
    the point-and-direction one and is tangent."""
    kinds = collections.Counter()
    for spec in geometry_specs().values():
        for sign in "+-":
            conic = fold_conic(spec, sign)
            for line in _edge_lines(spec, sign):
                if line.tangency is None:
                    continue
                assert line.tangency == reference_tangency(line, conic)
                assert line.tangency.ok
                kinds.update(k for k, hit in (("n1 = 0", line.normal[0] == 0),
                                              ("n2 = 0", line.normal[1] == 0),
                                              ("asymptote", line.tangency.leading == 0)) if hit)
    assert set(kinds) == {"n1 = 0", "n2 = 0", "asymptote"}, kinds


def _assert_one_construction(spec):
    """Both fold conics equal the two-formula reference, with Fraction
    entries, and the cells the union-find reference.  The '+' and '-'
    conics have proportional quadratic parts, not both zero."""
    conics = [fold_conic(spec, sign) for sign in "+-"]
    for sign, conic in zip("+-", conics):
        assert conic == reference_fold_conic(spec, sign)
        assert all(type(v) is F for row in conic.matrix or () for v in row)
    cells = SignCells(spec)
    assert cells.members == quadratics_reference.reference_members(cells)
    if conics[1].matrix is not None:
        (a, b, _), (_, c, _), _ = conics[0].matrix
        (u, v, _), (_, w, _), _ = conics[1].matrix
        assert a * v == b * u and a * w == c * u and b * w == c * v and any((a, b, c))


_HALF_WIDTH = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)


@st.composite
def _line_pair_boxes(draw):
    """q = z^2 on a box around 0: the fibre over the line x = 0 of {q = 0}
    lies on the fold, so that wall has no piece, and the pieces of the sign
    pairs (1, 1) and (-1, 1) on its two sides lie in four cells."""
    a, b, c, d = -draw(_HALF_WIDTH), draw(_HALF_WIDTH), -draw(_HALF_WIDTH), draw(_HALF_WIDTH)
    return z2_spec([-a * b, a + b, -1], (a, b), [-c * d, c + d, -1], (c, d))


_CELL_BOXES = dict(_BOXES, line_pair=_line_pair_boxes())


@pytest.mark.parametrize("kind", sorted(_CELL_BOXES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_fold_conics_and_cells_equal_their_references(kind, data):
    """One Gram matrix gives both fold conics, and one left-to-right pass
    the cells, as the two-formula conics and the union-find did."""
    _assert_one_construction(data.draw(_CELL_BOXES[kind]))


def test_fold_conics_and_cells_of_the_sliver_and_merged_boxes(sliver_spec, merged_spec):
    """The same on the sliver and on the merged box, where one sign pair
    holds several cells."""
    for spec in (sliver_spec, merged_spec):
        _assert_one_construction(spec)


@pytest.mark.parametrize("kind", sorted(_BOXES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_identify_t_from_the_frame_is_a_fresh_cramer_solve(kind, data):
    """Coordinates of q-orthogonal quadratics read off the moment frame equal
    a fresh Cramer solve, including the transversal of a parabolic q under
    '-'; so do the '+' coordinates of the null quadratics of the edges."""
    spec = data.draw(_BOXES[kind])
    rs = data.draw(st.lists(st.tuples(small, small, small), min_size=1, max_size=4))
    for sign in "+-":
        for r in rs:
            p = cross(spec.q, Quadratic(*r))
            if p.is_zero():
                continue
            want = reference_coordinates(spec, p, sign)
            assert coordinates(p, moment._frame(spec, sign).dual) == want
            assert identify_t(spec, p, sign) == want[:2]
    sigma1, sigma2 = spec.sigma_basis
    frame = moment._frame(spec, "+")
    for iv in (spec.x_interval, spec.y_interval):
        for gamma in iv.endpoints_proj():
            N = quadratics_reference.null_quadratic(gamma)
            assert coordinates(N, frame.dual) == cramer(N, sigma1, sigma2, spec.q)


_END_BOXES = dict(_BOXES, at_infinity=boxes_and_pole_transports().map(
    lambda sm: mobius_transport(*sm)))


@pytest.mark.parametrize("kind", sorted(_END_BOXES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_edge_lines_from_integer_ends_equal_the_fraction_construction(kind, data):
    """`level_set_line` reads a box end off its integer representative and
    the integers of the moment frame.  On both signs and axes it equals the
    Fraction construction (`reference_edge_line`: Cramer solve, primitive
    normal with its sign rule, point-and-direction tangency) at the box's
    ends (OO among them after a pole transport), at OO, at drawn rationals
    and at the double root of a parabolic q, where mu+ has its pole and
    raises MomentError and the '-' edge collapses to the same degenerate
    point.  Every entry is a Fraction."""
    spec = data.draw(_END_BOXES[kind])
    r = spec.q.double_root()
    gammas = [g for iv in (spec.x_interval, spec.y_interval) for g in iv.endpoints_proj()]
    gammas += [OO, *data.draw(st.lists(small, max_size=3))] + ([r] if r is not None else [])
    for sign in "+-":
        for axis in "XY":
            for gamma in gammas:
                try:
                    want = reference_edge_line(spec, sign, axis, gamma)
                except MomentError:
                    with pytest.raises(MomentError):
                        level_set_line(spec, sign, axis, gamma)
                    continue
                got = level_set_line(spec, sign, axis, gamma)
                assert got == want
                entries = (*got.normal, got.offset, *(got.degenerate_point or ()))
                assert all(type(v) is F for v in entries)
    if r is not None:
        with pytest.raises(MomentError):
            level_set_line(spec, "+", "X", r)
        for axis in "XY":
            assert level_set_line(spec, "-", axis, r).degenerate_point is not None
