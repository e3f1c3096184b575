"""Reference curvature: the general 4x4 einsum formulas over the metric jet.

This is the body that `tensors.curvature` had before it took the closed
form of the block metric a dx^2 + b dy^2 + h_ij dt_i dt_j.  It assumes
nothing about the metric beyond its independence of (t1, t2), so the tests
hold the closed form against it.  The float guard of `curvature` is not
repeated here: the reference evaluates wherever the jet exists.
"""

from fractions import Fraction

import numpy as np

from ambitoric.tensors import CurvaturePack, _block_jets


def metric_jet(spec, metric, x, y) -> tuple:
    """Second jet of the 4x4 metric at (x, y) as 6 nested 4x4 tuples, jet
    index first."""
    a, b, (h00, h01, h11), _ = _block_jets(spec, metric, x, y)
    z = (type(a[0])(0),) * 6
    rows = ((a, z, z, z), (z, b, z, z), (z, z, h00, h01), (z, z, h01, h11))
    return tuple(zip(*(zip(*row) for row in rows)))


def reference_curvature(spec, metric, pt) -> CurvaturePack:
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
    return CurvaturePack(riemann=riemann, ricci=ricci, scalar=scalar)
