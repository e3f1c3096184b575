import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambitoric import FramePoint, KerrParams, Quadratic, curvature, eval_field, kerr, validate
from ambitoric.ansatz import METRIC_G0, METRIC_GMINUS, METRIC_GPLUS, metric_gp
from ambitoric.tensors import (
    SingularEvaluation,
    _block_curvature,
    _block_jets,
    kaehler_volume_coefficient,
    metric_components,
    pfaffian4,
)

from conftest import canonical_boxes, geometry_specs, transported_boxes
from curvature_reference import (
    metric_jet,
    reference_block_curvature,
    reference_block_jets,
    reference_curvature,
    reference_metric_components,
)


def _points(spec, n=3):
    return validate(spec)[0].sample_points(n)


def test_metric_symmetric_positive(any_spec):
    for x, y in _points(any_spec):
        g = np.asarray(metric_components(any_spec, METRIC_G0, x, y))
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_metric_value_is_the_value_of_its_jet():
    """metric_components evaluates the jet formula on values alone, bit for
    bit the value of the reference's second jet, at float and at Fraction
    points."""
    for spec in geometry_specs().values():
        for comp in validate(spec):
            for x, y in comp.sample_points(2) + [comp.witness]:
                for met in (METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, spec.metric):
                    g = metric_components(spec, met, x, y)
                    assert {type(v) for row in g for v in row} == {type(x)}
                    assert g == metric_jet(spec, met, x, y)[0]


def test_complex_structures_square_to_minus_id(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        for name in ("J+", "J-"):
            J = np.asarray(eval_field(any_spec, name, pt))
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-10


def test_structures_commute_opposite_orientation(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        Jp = np.asarray(eval_field(any_spec, "J+", pt))
        Jm = np.asarray(eval_field(any_spec, "J-", pt))
        assert np.max(np.abs(Jp @ Jm - Jm @ Jp)) < 1e-10
        # opposite orientations: the products J+J- and J-J+ square to +Id
        K = Jp @ Jm
        assert np.max(np.abs(K @ K - np.eye(4))) < 1e-10


def test_kaehler_compatibility(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        for s, met in (("+", METRIC_GPLUS), ("-", METRIC_GMINUS)):
            g = np.asarray(metric_components(any_spec, met, x, y))
            J = np.asarray(eval_field(any_spec, "J" + s, pt))
            w = np.asarray(eval_field(any_spec, "omega" + s, pt))
            assert np.max(np.abs(J.T @ g @ J - g)) < 1e-10
            assert np.max(np.abs(g @ J - w)) < 1e-10
            assert np.max(np.abs(w + w.T)) < 1e-12


def test_omega_closed(any_spec):
    # omega components depend on (x, y) only; check all dw_{ijk} numerically
    h = 1e-5
    for x, y in _points(any_spec, 2):
        def w(xx, yy, s):
            return np.asarray(eval_field(any_spec, "omega" + s,
                                         FramePoint(xx, yy)))

        for s in ("+", "-"):
            dw_x = (w(x + h, y, s) - w(x - h, y, s)) / (2 * h)
            dw_y = (w(x, y + h, s) - w(x, y - h, s)) / (2 * h)
            d = {0: dw_x, 1: dw_y, 2: np.zeros((4, 4)), 3: np.zeros((4, 4))}
            for i in range(4):
                for j in range(i + 1, 4):
                    for k in range(j + 1, 4):
                        val = d[i][j][k] - d[j][i][k] + d[k][i][j]
                        assert abs(val) < 1e-6


def test_pfaffian_convention():
    # dx^dy + dt1^dt2 has top power 2 dx^dy^dt1^dt2: Pf = 1
    w = np.zeros((4, 4))
    w[0, 1] = 1.0
    w[1, 0] = -1.0
    w[2, 3] = 1.0
    w[3, 2] = -1.0
    assert abs(pfaffian4(w) - 1.0) < 1e-14


def test_omega_top_vs_volume(any_spec):
    from ambitoric import conformal_factor
    for x, y in _points(any_spec, 2):
        f = float(conformal_factor(any_spec, x, y))
        AB = float(any_spec.A(x)) * float(any_spec.B(y))
        for s, ex in (("+", -2), ("-", 2)):
            lhs = pfaffian4(eval_field(any_spec, "omega" + s, FramePoint(x, y)))
            J = eval_field(any_spec, "J" + s, FramePoint(x, y))
            rhs = f ** ex / AB * kaehler_volume_coefficient(J)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_kaehler_identities_are_exact_at_fraction_points(name):
    """At a Fraction point every field is made of Fractions and the Kaehler
    identities hold with no tolerance."""
    from ambitoric import conformal_factor
    spec = geometry_specs()[name]
    minus_id = -np.eye(4, dtype=int)
    for comp in validate(spec):
        x, y = comp.witness
        pt = FramePoint(x, y)
        T = {f: np.array(eval_field(spec, f, pt), dtype=object)
             for f in ("g0", "g+", "g-", "omega+", "omega-", "J+", "J-")}
        assert all(type(v) is F for t in T.values() for v in t.flat)
        f = conformal_factor(spec, x, y)
        for s, ex in (("+", -2), ("-", 2)):
            J, w = T["J" + s], T["omega" + s]
            assert _is_zero(J @ J - minus_id)
            assert _is_zero(T["g" + s] @ J - w)
            vol = kaehler_volume_coefficient(J)
            assert pfaffian4(w) == f ** ex / (spec.A(x) * spec.B(y)) * vol
        assert _is_zero(T["J+"] @ T["J-"] - T["J-"] @ T["J+"])
        assert _is_zero(T["g0"] - f * T["g+"])


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_block_inverse_agrees_with_numpy(name):
    """J in closed form against np.linalg.solve, and the volume minor
    against the determinant of the rows (dx, dcx, dy, dcy), at the
    witnesses and sample points.  Near a fold the fibre block is
    ill-conditioned: at the case1 sample (1.972, -1.917) np.linalg.solve is
    3.8e-12 from the exact J, hence 1e-11."""
    spec = geometry_specs()[name]
    for comp in validate(spec):
        for x, y in [tuple(map(float, comp.witness))] + comp.sample_points(6):
            for s, met in (("+", METRIC_GPLUS), ("-", METRIC_GMINUS)):
                J = np.asarray(eval_field(spec, "J" + s, FramePoint(x, y)))
                g = np.asarray(metric_components(spec, met, x, y))
                w = np.asarray(eval_field(spec, "omega" + s, FramePoint(x, y)))
                size = np.max(np.abs(J))
                assert np.max(np.abs(J - np.linalg.solve(g, w))) <= 1e-11 * size
                rows = np.array([[1, 0, 0, 0], -J[0], [0, 1, 0, 0], -J[1]])
                det = np.linalg.det(rows)
                assert abs(kaehler_volume_coefficient(J) - det) <= 1e-12 * abs(det)


def test_riemann_symmetries(hyperbolic_spec):
    x, y = _points(hyperbolic_spec, 3)[4]
    pack = curvature(hyperbolic_spec, METRIC_G0, FramePoint(x, y))
    R = pack.riemann
    scale = max(1.0, float(np.max(np.abs(R))))
    assert np.max(np.abs(R + np.swapaxes(R, 0, 1))) < 1e-4 * scale
    assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) < 1e-4 * scale
    assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-4 * scale
    # first Bianchi
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-3 * scale


def test_ricci_trace_matches_scalar(hyperbolic_spec):
    x, y = _points(hyperbolic_spec, 3)[4]
    pack = curvature(hyperbolic_spec, METRIC_G0, FramePoint(x, y))
    g = np.asarray(metric_components(hyperbolic_spec, METRIC_G0, x, y))
    s = float(np.trace(np.linalg.inv(g) @ pack.ricci))
    assert abs(s - pack.scalar) < 1e-6 * max(1.0, abs(s))


def test_curvature_refuses_points_near_the_fold():
    from conftest import make_spec
    from ambitoric import Quadratic
    spec = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                     (1, 2), (-3, 0))
    # q(x, y) = x + y vanishes next to this point
    with pytest.raises(SingularEvaluation):
        curvature(spec, METRIC_G0, FramePoint(1.5, -1.5001))


def test_float_curvature_admits_the_kerr_interior_samples():
    """The 41 sample_points(3) of the Kerr interior cells (M = 1, alpha =
    1/2), whose fibre sine goes down to 8.5e-4, are all admitted, and float
    R is within 1e-9 max|R| of the exact R at the same point."""
    spec = geometry_specs()["kerr-interior"]
    pts = [p for comp in validate(spec) for p in comp.sample_points(3)]
    assert len(pts) == 41
    for x, y in pts:
        for metric in _metrics(spec):
            R = curvature(spec, metric, FramePoint(x, y)).riemann
            exact = curvature(spec, metric, FramePoint(F(x), F(y))).riemann.astype(float)
            assert np.max(np.abs(R - exact)) <= 1e-9 * np.max(np.abs(exact))




def _is_zero(a) -> bool:
    return all(v == 0 for v in np.asarray(a).flat)


@pytest.mark.parametrize("M, alpha", [(1, F(1, 2)), (2, F(3, 2)), (1, F(1, 12))])
def test_kerr_gp_is_exactly_ricci_flat(M, alpha):
    spec = kerr(KerrParams(M, alpha))
    pack = curvature(spec, spec.metric, FramePoint(F(7 * M, 2), alpha / 3))
    assert isinstance(pack.scalar, F)
    assert _is_zero(pack.ricci)


@settings(max_examples=30, deadline=None)
@given(M=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=12),
       ratio=st.fractions(min_value=F(-11, 12), max_value=F(11, 12), max_denominator=12),
       x=st.fractions(min_value=-8, max_value=8, max_denominator=12),
       y=st.fractions(min_value=-4, max_value=4, max_denominator=12))
def test_kerr_gp_is_ricci_flat_at_drawn_points(M, ratio, x, y):
    """Ricci of the Kerr gp vanishes identically, so at every rational
    point off A = 0, B = 0, x = y and q(x, y) = x + y = 0, inside the box
    or not."""
    assume(ratio != 0)
    spec = kerr(KerrParams(M, M * ratio))
    assume(spec.A(x) != 0 and spec.B(y) != 0 and x != y and x + y != 0)
    pack = curvature(spec, spec.metric, FramePoint(x, y))
    assert isinstance(pack.scalar, F)
    assert _is_zero(pack.ricci)


def test_gp_control_is_not_ricci_flat():
    spec = kerr(KerrParams(1, F(1, 2)))
    pack = curvature(spec, metric_gp(Quadratic(1, 0, 1)), FramePoint(F(7, 2), F(1, 6)))
    assert not _is_zero(pack.ricci)


@pytest.mark.parametrize("metric", [METRIC_G0, METRIC_GMINUS])
def test_exact_riemann_symmetries(hyperbolic_spec, metric):
    R = curvature(hyperbolic_spec, metric, FramePoint(F(5, 2), F(-1, 3))).riemann
    assert not _is_zero(R)
    assert _is_zero(R + np.swapaxes(R, 0, 1))
    assert _is_zero(R + np.swapaxes(R, 2, 3))
    assert _is_zero(R - np.transpose(R, (2, 3, 0, 1)))
    assert _is_zero(R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2)))


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_float_curvature_matches_exact_at_witnesses(name):
    spec = geometry_specs()[name]
    for comp in validate(spec):
        x, y = (float(v) for v in comp.witness)
        exact = curvature(spec, spec.metric, FramePoint(F(x), F(y))).riemann
        R = curvature(spec, spec.metric, FramePoint(x, y)).riemann
        exact = exact.astype(float)
        assert np.max(np.abs(R - exact)) <= 1e-11 * np.max(np.abs(exact))


def test_kerr_ricci_next_to_a_root_of_b():
    """At M = 1, alpha = 1/12 this exterior sample point lies 0.0056 from the
    root -alpha of B."""
    spec = kerr(KerrParams(1, F(1, 12)))
    (pt,) = [p for p in validate(spec)[0].sample_points(5)
             if abs(p[0] - 3.731) < 5e-4 and abs(p[1] + 0.07778) < 5e-6]
    pack = curvature(spec, spec.metric, FramePoint(*pt))
    assert np.max(np.abs(pack.ricci)) < 1e-9


@pytest.mark.parametrize("x, y, metric", [
    (F(5, 2), F(5, 2), METRIC_G0),                        # x = y
    (F(5, 2), F(-5, 2), METRIC_G0),                       # q(x, y) = x + y = 0
    (F(2), F(-1, 2), METRIC_G0),                          # A(2) = 0
    (F(5, 2), F(-2, 5), metric_gp(Quadratic(1, 0, 1))),   # p(x, y) = xy + 1 = 0
])
@pytest.mark.parametrize("exact", [True, False])
def test_curvature_raises_at_singular_points(hyperbolic_spec, x, y, metric, exact):
    pt = FramePoint(x, y) if exact else FramePoint(float(x), float(y))
    with pytest.raises(SingularEvaluation):
        curvature(hyperbolic_spec, metric, pt)


def test_float_curvature_refuses_points_near_a_double_root():
    """B has the double root -3 here; exact points are never refused."""
    spec = geometry_specs()["case4_double_root_edges"]
    with pytest.raises(SingularEvaluation):
        curvature(spec, METRIC_G0, FramePoint(1.5, -3 + 1e-4))
    pack = curvature(spec, METRIC_G0, FramePoint(F(3, 2), F(-3) + F(1, 10 ** 4)))
    assert isinstance(pack.scalar, F)


def _metrics(spec) -> list:
    return list(dict.fromkeys((METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, spec.metric)))


def _assert_same_curvature(pack, ref):
    assert pack.riemann.shape == (4, 4, 4, 4) and pack.ricci.shape == (4, 4)
    assert all(type(v) is F for v in pack.riemann.flat)
    assert all(type(v) is F for v in pack.ricci.flat)
    assert isinstance(pack.scalar, F)
    assert _is_zero(pack.riemann - ref.riemann)
    assert _is_zero(pack.ricci - ref.ricci)
    assert pack.scalar == ref.scalar


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_exact_curvature_equals_the_reference(name):
    """The closed form of the block metric against the general einsums,
    with no tolerance, at every cell witness under g0, g+, g- and the
    spec's metric."""
    spec = geometry_specs()[name]
    for comp in validate(spec):
        pt = FramePoint(*comp.witness)
        for metric in _metrics(spec):
            _assert_same_curvature(curvature(spec, metric, pt),
                                   reference_curvature(spec, metric, pt))


@pytest.mark.parametrize("name", ["case1_proper_fold", "kerr-exterior", "kerr-interior"])
def test_curvature_arrays_are_built_on_first_read(name):
    """riemann and ricci are made on first read and kept: a second read
    returns the same array.  At Fraction points they equal the reference
    exactly; at the same point as floats, where the guard admits it, they
    are within 1e-9 max|R| of it (the bound `scripts/curvature_sweep.py`
    holds; the float einsums themselves lose digits next to a fold)."""
    spec = geometry_specs()[name]
    for comp in validate(spec):
        for x, y in comp.sample_points(2) + [comp.witness]:
            for metric in _metrics(spec):
                exact = FramePoint(F(x), F(y))
                ref = reference_curvature(spec, metric, exact)
                packs = [curvature(spec, metric, exact)]
                try:
                    packs.append(curvature(spec, metric, FramePoint(float(x), float(y))))
                except SingularEvaluation:
                    pass
                for pack in packs:
                    assert "riemann" not in vars(pack) and "ricci" not in vars(pack)
                    R, ric = pack.riemann, pack.ricci
                    assert pack.riemann is R and pack.ricci is ric
                _assert_same_curvature(packs[0], ref)
                for pack in packs[1:]:
                    assert pack.riemann.dtype == pack.ricci.dtype == float
                    size = float(np.max(np.abs(ref.riemann)))
                    assert np.max(np.abs(pack.riemann - ref.riemann.astype(float))) <= 1e-9 * size
                    assert np.max(np.abs(pack.ricci - ref.ricci.astype(float))) <= 1e-9 * size


def _fibre_sine(spec, x, y) -> float:
    """s = |tau(x) ^ tau(y)| / (|tau(x)| |tau(y)|) at a float point."""
    (u1, u2), (v1, v2) = ([t.value(z) for t in spec.tau_basis] for z in (x, y))
    return abs(u1 * v2 - u2 * v1) / (math.hypot(u1, u2) * math.hypot(v1, v2))


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_float_curvature_agrees_with_the_reference(name):
    """Float R within 1e-12 max|R| of the einsums at sample_points(5).
    Next to the folds of case1 and the Kerr interior the einsums themselves
    are up to 3.8e-10 max|R| from the exact R at the same point, and the
    closed form 5.8e-12: there the gap must be the reference's own error,
    and the closed form within 1e-11 of exact.  Kerr interior points with
    fibre sine s < 0.02 (down to 6.8e-4, closed form up to 2.1e-11 from
    exact) need only be within 1e-9 of exact, the bound MIN_FIBRE_SINE is
    chosen for (tensors docstring)."""
    spec = geometry_specs()[name]
    checked = 0
    for comp in validate(spec):
        for x, y in comp.sample_points(5):
            for metric in _metrics(spec):
                try:
                    R = curvature(spec, metric, FramePoint(x, y)).riemann
                except SingularEvaluation:
                    continue
                ref = reference_curvature(spec, metric, FramePoint(x, y)).riemann
                size = np.max(np.abs(ref))
                gap = np.max(np.abs(R - ref))
                checked += 1
                if gap > 1e-12 * size:
                    exact = curvature(spec, metric, FramePoint(F(x), F(y))).riemann.astype(float)
                    err = np.max(np.abs(R - exact))
                    if _fibre_sine(spec, x, y) < 0.02:
                        assert err <= 1e-9 * size
                    else:
                        assert err <= 1e-11 * size
                        assert gap <= 1e-12 * size + np.max(np.abs(ref - exact))
    assert checked


def test_degenerate_fibre_raises_singular_evaluation(monkeypatch):
    """With the fibre-sine guard off, a float point next to the - fold of
    case1 rounds det h to 0; curvature raises SingularEvaluation there, as
    every evaluator does on a singular locus, not a bare ZeroDivisionError.
    So does the closed form on a degenerate h of Fractions."""
    import ambitoric.tensors as T

    monkeypatch.setattr(T, "MIN_FIBRE_SINE", 0.0)
    spec = geometry_specs()["case1_proper_fold"]
    for metric in (METRIC_G0, METRIC_GMINUS):
        with pytest.raises(SingularEvaluation, match="fibre metric is degenerate"):
            curvature(spec, metric, FramePoint(1.575, -1.5750000000000002))
    one = (F(1), F(0), F(0), F(0), F(0), F(0))
    with pytest.raises(SingularEvaluation, match="fibre metric is degenerate"):
        T._block_curvature(one, one, (one, one, one))


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(lambda s: 0 < s < 1)


@pytest.mark.parametrize("conic", ["Elliptic", "Hyperbolic", "Parabolic"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_closed_form_curvature_at_rational_points(conic, data):
    """Exact equality with the einsums at a rational point of a canonical
    box, under a drawn metric: a sign or an i, j transposition in any one of
    the 13 components breaks it."""
    spec = data.draw(canonical_boxes(conics=st.just(conic)))
    x, y = (iv.lo + (iv.hi - iv.lo) * data.draw(_UNIT)
            for iv in (spec.x_interval, spec.y_interval))
    metric = data.draw(st.sampled_from([METRIC_G0, METRIC_GPLUS, METRIC_GMINUS,
                                        metric_gp(Quadratic(1, 1, 3))]))
    pt = FramePoint(x, y)
    try:
        ref = reference_curvature(spec, metric, pt)
    except SingularEvaluation:
        assume(False)
    _assert_same_curvature(curvature(spec, metric, pt), ref)


def _axis_slots(jet, axis):
    """The 1-D jet inside a second jet of a function of x (axis 0) or of y
    (axis 1), and the slots that must be zero."""
    keep = ((0, 1, 3), (0, 2, 5))[axis]
    return (tuple(jet[k] for k in keep),
            tuple(jet[k] for k in range(6) if k not in keep))


@pytest.mark.parametrize("conic", ["Elliptic", "Hyperbolic", "Parabolic"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_separable_jets_equal_the_general_jets(conic, data):
    """_block_jets against the general second jets of the reference, at a
    rational point of a canonical box or of a Mobius-transported one, whose
    coefficients are not 0 or 1 (exactly), and at its float (under ==),
    under g0, g+, g- and a gp: the blocks agree entry by entry, the 1-D jets
    of A, B and tau are the reference's nonzero slots, and both refuse the
    same points."""
    spec = data.draw(st.one_of(canonical_boxes(conics=st.just(conic)), transported_boxes()))
    x, y = (iv.lo + (iv.hi - iv.lo) * data.draw(_UNIT)
            for iv in (spec.x_interval, spec.y_interval))
    for pt in ((x, y), (float(x), float(y))):
        for metric in (METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, metric_gp(Quadratic(1, 1, 3))):
            try:
                ref = reference_block_jets(spec, metric, *pt)
            except SingularEvaluation:
                with pytest.raises(SingularEvaluation):
                    _block_jets(spec, metric, *pt)
                continue
            a, b, h, factors = _block_jets(spec, metric, *pt)
            assert {type(v) for jet in (a, b, *h) for v in jet} == {type(pt[0])}
            assert (a, b, h) == ref[:3]
            (A, B, tx, ty), (rA, rB, rtx, rty) = factors, ref[3]
            for jets, refs, axis in (([A] + tx, [rA] + rtx, 0), ([B] + ty, [rB] + rty, 1)):
                for jet, rjet in zip(jets, refs):
                    assert (jet, (0, 0, 0)) == _axis_slots(rjet, axis)


@pytest.mark.parametrize("conic", ["Elliptic", "Hyperbolic", "Parabolic"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_metric_components_equal_the_value_only_path(conic, data):
    """metric_components, the values of the second jets of _block_jets,
    against the formula on values alone that it ran before, at a rational
    point of a canonical box or of a Mobius-transported one and at its
    float, under g0, g+, g- and a gp: equal under ==, so at float points
    every value is bit for bit the same, and both refuse the same points
    with the same error."""
    spec = data.draw(st.one_of(canonical_boxes(conics=st.just(conic)), transported_boxes()))
    x, y = (iv.lo + (iv.hi - iv.lo) * data.draw(_UNIT)
            for iv in (spec.x_interval, spec.y_interval))
    for pt in ((x, y), (float(x), float(y))):
        for metric in (METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, metric_gp(Quadratic(1, 1, 3))):
            try:
                ref = reference_metric_components(spec, metric, *pt)
            except (SingularEvaluation, ValueError) as err:
                with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                    metric_components(spec, metric, *pt)
                continue
            g = metric_components(spec, metric, *pt)
            assert {type(v) for row in g for v in row} == {type(pt[0])}
            assert g == ref


@pytest.mark.parametrize("conic", ["Elliptic", "Hyperbolic", "Parabolic"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_block_curvature_equals_its_reference(conic, data):
    """_block_curvature against the zip-and-tuple body it had, on the jets
    at a rational point of a canonical box or of a Mobius-transported one
    and at its float, under g0, g+, g- and a gp: equal under ==, so at float
    points the order of operations is unchanged, and both refuse the same
    points."""
    spec = data.draw(st.one_of(canonical_boxes(conics=st.just(conic)), transported_boxes()))
    x, y = (iv.lo + (iv.hi - iv.lo) * data.draw(_UNIT)
            for iv in (spec.x_interval, spec.y_interval))
    for pt in ((x, y), (float(x), float(y))):
        for metric in (METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, metric_gp(Quadratic(1, 1, 3))):
            try:
                a, b, h, _ = _block_jets(spec, metric, *pt)
            except SingularEvaluation:
                continue
            try:
                ref = reference_block_curvature(a, b, h)
            except SingularEvaluation:
                with pytest.raises(SingularEvaluation):
                    _block_curvature(a, b, h)
                continue
            out = _block_curvature(a, b, h)
            assert {type(v) for v in (*out[0], *out[1], *out[2], out[3])} == {type(pt[0])}
            assert out == ref
