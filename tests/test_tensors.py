from fractions import Fraction as F

import numpy as np
import pytest

from ambitoric import FramePoint, KerrParams, curvature, eval_field, kerr, tensors, validate
from ambitoric.ansatz import GP, METRIC_G0, METRIC_GMINUS, METRIC_GPLUS, metric_gp
from ambitoric.tensors import (
    SingularEvaluation,
    kaehler_volume_coefficient,
    metric_components,
    omega_top_coefficient,
    pfaffian4,
)

from conftest import geometry_specs


def _points(spec, n=3):
    return validate(spec)[0].sample_points(n)


def test_metric_symmetric_positive(any_spec):
    for x, y in _points(any_spec):
        g = metric_components(any_spec, METRIC_G0, x, y)
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_complex_structures_square_to_minus_id(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        for name in ("J+", "J-"):
            J = eval_field(any_spec, name, pt).components
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-10


def test_structures_commute_opposite_orientation(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        Jp = eval_field(any_spec, "J+", pt).components
        Jm = eval_field(any_spec, "J-", pt).components
        assert np.max(np.abs(Jp @ Jm - Jm @ Jp)) < 1e-10
        # opposite orientations: the products J+J- and J-J+ square to +Id
        K = Jp @ Jm
        assert np.max(np.abs(K @ K - np.eye(4))) < 1e-10


def test_kaehler_compatibility(any_spec):
    for x, y in _points(any_spec):
        pt = FramePoint(x, y)
        for s, met in (("+", METRIC_GPLUS), ("-", METRIC_GMINUS)):
            g = metric_components(any_spec, met, x, y)
            J = eval_field(any_spec, "J" + s, pt).components
            w = eval_field(any_spec, "omega" + s, pt).components
            assert np.max(np.abs(J.T @ g @ J - g)) < 1e-10
            assert np.max(np.abs(g @ J - w)) < 1e-10
            assert np.max(np.abs(w + w.T)) < 1e-12


def test_omega_closed(any_spec):
    # omega components depend on (x, y) only; check all dw_{ijk} numerically
    h = 1e-5
    for x, y in _points(any_spec, 2):
        def w(xx, yy, s):
            return eval_field(any_spec, "omega" + s,
                              FramePoint(xx, yy)).components

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
            lhs = omega_top_coefficient(any_spec, s, x, y)
            rhs = f ** ex / AB * kaehler_volume_coefficient(any_spec, s, x, y)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


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
    g = metric_components(hyperbolic_spec, METRIC_G0, x, y)
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


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_batched_metric_equals_pointwise(name, monkeypatch):
    """At every one of the 25 stencil points of a curvature call, the batch
    entry equals the pointwise metric_components bit for bit."""
    spec = geometry_specs()[name]
    p = spec.metric.p if spec.metric.tag == GP else spec.tau_basis[0]
    metrics = [METRIC_G0, METRIC_GPLUS, METRIC_GMINUS, metric_gp(p)]
    batches = []

    def recording(spec_, metric, x, y):
        out = metric_components(spec_, metric, x, y)
        batches.append((metric, x, y, out))
        return out

    monkeypatch.setattr(tensors, "metric_components", recording)
    for comp in validate(spec):
        for x, y in comp.sample_points(2):
            for met in metrics:
                try:
                    curvature(spec, met, FramePoint(x, y))
                except SingularEvaluation:
                    pass
    assert {met.tag for met, *_ in batches} == {m.tag for m in metrics}
    for met, xs, ys, batch in batches:
        assert xs.shape == ys.shape == (25,) and batch.shape == (25, 4, 4)
        assert len(set(zip(xs.tolist(), ys.tolist()))) == 25
        for k in range(25):
            g = metric_components(spec, met, float(xs[k]), float(ys[k]))
            assert np.array_equal(batch[k], g)


H = 2.0 ** -6


@pytest.mark.parametrize("x0, y0, match", [
    (2.0 + H, -0.5, "A or B vanishes"),   # x0 - h = 2 is a root of A
    (1.0, 1.0 - 2 * H, None),             # x0 - h = y0 + h: on x = y
    (2.5, -2.5 + 2 * H, None),            # (x0 - h) + (y0 - h) = 0: on q = 0
])
def test_curvature_raises_on_a_singular_stencil_point(hyperbolic_spec, x0, y0, match):
    steps = np.array([-H, -H / 2, 0.0, H / 2, H])
    xs, ys = np.repeat(x0 + steps, 5), np.tile(y0 + steps, 5)
    with pytest.raises(SingularEvaluation):
        metric_components(hyperbolic_spec, METRIC_G0, xs, ys)
    with pytest.raises(SingularEvaluation, match=match):
        curvature(hyperbolic_spec, METRIC_G0, FramePoint(x0, y0), h=H)


#: every 6th Kerr point of test_kerr_ricci_flat: (x, y), Riemann components
#: R_0101, R_0202, R_1313, R_2323 and max |Ric| of the gp metric, and the g-
#: scalar curvature, as computed with one metric evaluation per stencil point
#: and index loops over the Christoffel and Riemann symbols
KERR_CURVATURE = [
    ((2.1525167473705844, -0.4666666666666667),
     (-1021.5377366532712, 0.20996572219453644, 5.66008423231057, -0.0003334741469263964),
     4.555574783182692e-05, 4.581593964216152),
    ((2.4223818148368514, 0.1333333333333333),
     (-13.655607233545332, 0.12176268797097162, 4.933426662939479, -0.012862746583255823),
     3.093133638110146e-09, 5.242352929774532),
    ((3.118033988749895, -0.26666666666666666),
     (-5.544913760165554, 0.0670202548664868, 6.511665739056434, -0.01995032302546197),
     8.649931437787473e-09, 3.545365213191528),
    ((4.451367322083228, 0.33333333333333337),
     (-3.0738110268172942, 0.023296110623003942, 9.195399974540157, -0.017361808564426852),
     6.160743115657397e-08, 2.914011835208857),
    ((31.1180339887499, -0.06666666666666665),
     (-0.1398993009179408, 6.63661126681354e-05, 62.23777970533181, -0.007382094983923069),
     2.6120861997165623e-07, 0.38480682287049506),
]


def test_curvature_matches_recorded_kerr_values():
    spec = kerr(KerrParams(1, F(1, 2)))
    pts = validate(spec)[0].sample_points(5)[::6]
    assert pts == [p for p, *_ in KERR_CURVATURE]
    for (x, y), comps, ric, scal in KERR_CURVATURE:
        pack = curvature(spec, spec.metric, FramePoint(x, y))
        R = pack.riemann
        got = (R[0, 1, 0, 1], R[0, 2, 0, 2], R[1, 3, 1, 3], R[2, 3, 2, 3])
        assert np.allclose(got, comps, rtol=1e-12, atol=0.0)
        # Ricci is finite-difference noise: compare it on the scale of Riemann
        scale = float(np.max(np.abs(R)))
        assert abs(float(np.max(np.abs(pack.ricci))) - ric) <= 1e-12 * scale
        s = curvature(spec, METRIC_GMINUS, FramePoint(x, y)).scalar
        assert abs(s - scal) <= 1e-12 * abs(scal)
