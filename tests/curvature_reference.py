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
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ambitoric.ansatz import G0, GMINUS, GPLUS
from ambitoric.quadratics import _inv, _mul, coordinate_jets
from ambitoric.tensors import SingularEvaluation


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
    if len(Z) == 1:
        return (P(z),)
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


def reference_block_jets(spec, metric, x, y, n=6) -> tuple:
    """(a, b, (h00, h01, h11), (A, B, tx, ty)) as `tensors._block_jets`
    returns them, but with A, B, tx and ty as jets in (x, y) too."""
    X, Y = (Z[:n] for Z in coordinate_jets(x, y))
    A, B = _poly_jet(spec.A, X, 0), _poly_jet(spec.B, Y, 1)
    if A[0] == 0 or B[0] == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    q = _polar_jet(spec.q, X, Y)
    d = tuple(u - v for u, v in zip(X, Y))
    den = _mul(d, q)
    if den[0] == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    if metric.tag == G0:
        scale = (1, 0, 0, 0, 0, 0)[:n]
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
