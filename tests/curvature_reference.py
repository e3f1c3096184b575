"""Reference curvature: the general 4x4 einsum formulas over the metric jet.

`reference_curvature` is the body that `tensors.curvature` had before it
took the closed form of the block metric a dx^2 + b dy^2 + h_ij dt_i dt_j.
It assumes nothing about the metric beyond its independence of (t1, t2),
so the tests hold the closed form against it.  The float guard of
`curvature` is not repeated here: the reference evaluates wherever the jet
exists.

`reference_block_jets` is the body that `tensors._block_jets` had before
it carried the factors of one variable as 1-D jets: every entry is a full
second jet in (x, y), and every product a general `_mul`.  The tests hold
the separable jets equal to it, exactly at Fraction points and under `==`
at float points.

`reference_metric_components` is the value-only path that
`tensors.metric_components` ran before it read the values of the second
jets of `_block_jets`: the same formula on values alone, in the same order
of operations.  The tests hold the two equal under `==`.

`reference_block_curvature` is the body that `tensors._block_curvature`
had before it ran as straight-line code: `zip` over the jets of h and
tuples of entries.  The tests hold the two equal under `==`, which pins
the order of operations at float points.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ambitoric.ansatz import G0, GMINUS, GPLUS
from ambitoric.quadratics import is_exact
from ambitoric.tensors import SingularEvaluation, _inv, _mul, coordinate_jets


class ReferenceCurvature(NamedTuple):
    """The result of `reference_curvature`: the arrays as the einsums give
    them."""

    riemann: np.ndarray   # fully lowered R_abcd
    ricci: np.ndarray
    scalar: object        # a Fraction at Fraction points, a float otherwise


def _poly_jet(P, Z, axis):
    """Jet of P(x) (axis 0) or P(y) (axis 1), as long as the coordinate jet
    Z of x or y, by Horner's rule."""
    z = Z[0]
    p = dp = ddp = 0
    for c in reversed(P.coeffs if isinstance(z, Fraction) else P.floats):
        p, dp, ddp = p * z + c, dp * z + p, ddp * z + 2 * dp
    return (p, dp, 0, ddp, 0, 0) if axis == 0 else (p, 0, dp, 0, 0, ddp)


def _polar_jet(p, X, Y):
    """Jet of the polarization p(X, Y) = c0 X Y + c1 (X + Y) + c2 of any two
    jets X, Y."""
    c0, c1, c2 = p.coeffs() if isinstance(X[0], Fraction) else p.floats
    v = tuple(c0 * u + c1 * (a + b) for u, a, b in zip(_mul(X, Y), X, Y))
    return (v[0] + c2,) + v[1:]


def reference_block_jets(spec, metric, x, y) -> tuple:
    """(a, b, (h00, h01, h11), (A, B, tx, ty)) as `tensors._block_jets`
    returns them, but with A, B, tx and ty as jets in (x, y) too."""
    X, Y = coordinate_jets(x, y)
    A, B = _poly_jet(spec.A, X, 0), _poly_jet(spec.B, Y, 1)
    if A[0] == 0 or B[0] == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    q = _polar_jet(spec.q, X, Y)
    d = tuple(u - v for u, v in zip(X, Y))
    den = _mul(d, q)
    if den[0] == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    if metric.tag == G0:
        scale = (1, 0, 0, 0, 0, 0)
    elif metric.tag == GPLUS:
        scale = _mul(d, _inv(q))
    elif metric.tag == GMINUS:
        scale = _mul(q, _inv(d))
    else:
        p = _polar_jet(metric.p, X, Y)
        if p[0] == 0:
            raise SingularEvaluation("g_p is singular on the P-locus")
        scale = _mul(den, _inv(_mul(p, p)))
    tx = [_polar_jet(t, X, X) for t in spec.tau_basis]
    ty = [_polar_jet(t, Y, Y) for t in spec.tau_basis]
    w = _mul(_inv(_mul(den, den)), scale)
    h = []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        fibre = zip(_mul(A, _mul(ty[i], ty[j])), _mul(B, _mul(tx[i], tx[j])))
        h.append(_mul(tuple(u + v for u, v in fibre), w))
    return _mul(_inv(A), scale), _mul(_inv(B), scale), h, (A, B, tx, ty)


def reference_metric_components(spec, metric, x, y) -> tuple:
    """The 4x4 metric at (x, y) from values alone: a, b and h as
    `tensors._block_jets` formed their values."""
    (x, *_), (y, *_) = coordinate_jets(x, y)
    floats = not is_exact(x, y)

    def polar(p, u, v):
        c0, c1, c2 = p.floats if floats else p.coeffs()
        return c0 * (u * v) + c1 * (u + v) + c2

    A, B = spec.A(x), spec.B(y)
    if A == 0 or B == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    q, d = polar(spec.q, x, y), x - y
    den = d * q
    if den == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    try:
        if metric.tag == G0:
            scale = 1
        elif metric.tag == GPLUS:
            scale = d * (1 / q)
        elif metric.tag == GMINUS:
            scale = q * (1 / d)
        else:
            p = polar(metric.p, x, y)
            if p == 0:
                raise SingularEvaluation("g_p is singular on the P-locus")
            scale = den * (1 / (p * p))
        w = (1 / (den * den)) * scale
    except ZeroDivisionError:
        raise ValueError("the metric at the evaluation point leaves the float range") from None
    (x1, y1), (x2, y2) = ((polar(t, x, x), polar(t, y, y)) for t in spec.tau_basis)
    h00, h01, h11 = ((A * (yi * yj) + B * (xi * xj)) * w
                     for xi, yi, xj, yj in ((x1, y1, x1, y1), (x1, y1, x2, y2),
                                            (x2, y2, x2, y2)))
    a, b = (1 / A) * scale, (1 / B) * scale
    z = type(a)(0)
    return ((a, z, z, z), (z, b, z, z), (z, z, h00, h01), (z, z, h01, h11))


def reference_block_curvature(a, b, h) -> tuple:
    """(the 13 components of R, (Ric_xx, Ric_xy, Ric_yy), (Ric_ij), scalar)
    of a dx^2 + b dy^2 + h_ij dt_i dt_j from the second jets of a, b and
    h = (h00, h01, h11), by the closed form of the `tensors` docstring."""
    a0, ax, ay, _, _, ayy = a
    b0, bx, by, bxx, _, _ = b
    H, Hx, Hy, Hxx, Hxy, Hyy = zip(*h)     # symmetric 2x2 as (m00, m01, m11)
    p00, p01, p11 = H
    det = p00 * p11 - p01 * p01
    if det == 0:
        raise SingularEvaluation("the fibre metric is degenerate at the evaluation point")

    def K(P, Q):
        """P H^-1 Q for symmetric P and Q, as (00, 01, 10, 11)."""
        n00, n01 = p11 * Q[0] - p01 * Q[1], p11 * Q[1] - p01 * Q[2]
        n10, n11 = p00 * Q[1] - p01 * Q[0], p00 * Q[2] - p01 * Q[1]
        return ((P[0] * n00 + P[1] * n10) / det, (P[0] * n01 + P[1] * n11) / det,
                (P[1] * n00 + P[2] * n10) / det, (P[1] * n01 + P[2] * n11) / det)

    def M(k, D, gx, gy):
        """R_{i alpha j beta} from k = d_beta H H^-1 d_alpha H, D = d_alpha
        d_beta H and (gx, gy) = Gamma^(x, y)_{alpha beta}."""
        s00, s01, s11 = (d - gx * u - gy * v for d, u, v in zip(D, Hx, Hy))
        return tuple(u / 4 - v / 2 for u, v in zip(k, (s00, s01, s01, s11)))

    def trace(m):
        """<H^-1, m> for m = (00, 01, 10, 11)."""
        return (p11 * m[0] - p01 * (m[1] + m[2]) + p00 * m[3]) / det

    a2, b2 = 2 * a0, 2 * b0
    Kyx = K(Hy, Hx)
    Mxx = M(K(Hx, Hx), Hxx, ax / a2, -ay / b2)
    Myy = M(K(Hy, Hy), Hyy, -bx / a2, by / b2)
    Mxy = M(Kyx, Hxy, ay / a2, bx / b2)
    r_xyxy = -(ayy + bxx) / 2 + (ax * bx + ay * ay) / (2 * a2) + (ay * by + bx * bx) / (2 * b2)
    r_fibre = -((Hx[0] * Hx[2] - Hx[1] * Hx[1]) / a0 + (Hy[0] * Hy[2] - Hy[1] * Hy[1]) / b0) / 4
    r_xy12 = (Kyx[1] - Kyx[2]) / 4
    components = (r_xyxy, r_fibre, r_xy12, Mxx[0], Mxx[1], Mxx[3],
                  Myy[0], Myy[1], Myy[3]) + Mxy
    base = (r_xyxy / b0 + trace(Mxx), trace(Mxy), r_xyxy / a0 + trace(Myy))
    f = r_fibre / det
    fibre = tuple(u / a0 + v / b0 + f * w for u, v, w in zip(Mxx, Myy, (p00, p01, p01, p11)))
    scalar = base[0] / a0 + base[2] / b0 + trace(fibre)
    return components, base, fibre, scalar


def metric_jet(spec, metric, x, y) -> tuple:
    """Second jet of the 4x4 metric at (x, y) as 6 nested 4x4 tuples, jet
    index first, from `reference_block_jets`."""
    a, b, (h00, h01, h11), _ = reference_block_jets(spec, metric, x, y)
    z = (type(a[0])(0),) * 6
    rows = ((a, z, z, z), (z, b, z, z), (z, z, h00, h01), (z, z, h01, h11))
    return tuple(zip(*(zip(*row) for row in rows)))


def reference_curvature(spec, metric, pt) -> ReferenceCurvature:
    """Christoffel/Riemann/Ricci/scalar from the exact second jet of the
    metric at pt; exact Fractions when pt.x and pt.y are Fractions."""
    jet = metric_jet(spec, metric, pt.x, pt.y)
    J = np.array(jet, dtype=object if isinstance(jet[0][0][0], Fraction) else float)
    g = J[0]
    dg = np.zeros((4, 4, 4), dtype=J.dtype)           # d_c g_ab, only c = x, y
    dg[:2] = J[1:3]
    ddg = np.zeros((4, 4, 4, 4), dtype=J.dtype)
    ddg[0, :2], ddg[1, :2] = J[3:5], J[4:6]

    # inverse of g by blocks: two 1x1 on (dx, dy), one 2x2 on (dt1, dt2)
    a, b, c = g[2, 2], g[2, 3], g[3, 3]
    det = a * c - b * b
    ginv = np.zeros_like(g)
    ginv[0, 0], ginv[1, 1] = 1 / g[0, 0], 1 / g[1, 1]
    ginv[2, 2], ginv[2, 3], ginv[3, 2], ginv[3, 3] = c / det, -b / det, -b / det, a / det
    # T[d, b, c] = d_b g_{dc} + d_c g_{db} - d_d g_{bc}
    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    Gamma = np.einsum("ad,dbc->abc", ginv, T) / 2

    dginv = -np.einsum("ae,deh,hb->dab", ginv, dg, ginv)
    dT = ddg.transpose(0, 2, 1, 3) + ddg.transpose(0, 2, 3, 1) - ddg
    dGamma = (np.einsum("ead,dbc->eabc", dginv, T)
              + np.einsum("ad,edbc->eabc", ginv, dT)) / 2

    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    # (C order, so that the contractions below sum in the same order as on
    # an array filled entry by entry)
    Rup = np.ascontiguousarray(dGamma.transpose(1, 3, 0, 2) - dGamma.transpose(1, 3, 2, 0))
    Rup += np.einsum("ace,edb->abcd", Gamma, Gamma)
    Rup -= np.einsum("ade,ecb->abcd", Gamma, Gamma)

    riemann = np.einsum("ae,ebcd->abcd", g, Rup)
    ricci = np.einsum("abad->bd", Rup)
    scalar = np.einsum("bd,bd->", ginv, ricci)
    return ReferenceCurvature(riemann=riemann, ricci=ricci, scalar=scalar)
