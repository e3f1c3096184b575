"""Pointwise tensor fields of the ansatz and their curvature from exact jets.

All fields are evaluated in the frame (dx, dy, dt1, dt2) of the normal-form
coordinates.  With tau_i the torus basis quadratics of the spec and
q(x,y), (x - y) the two fold factors, the barycentric metric and the pair
of symplectic forms are

    g0      = dx^2/A + dy^2/B
              + [A tau(y) x tau(y) + B tau(x) x tau(x)] / ((x-y) q(x,y))^2
    omega+  = (dx ^ dtau(y) + dy ^ dtau(x)) / q(x,y)^2
    omega-  = (dx ^ dtau(y) - dy ^ dtau(x)) / (x-y)^2

where dtau(y) = sum_i tau_i(y) dt_i.  The metric choices scale g0 by 1,
f^-1, f, or (x-y) q / p^2; the complex structures are J+- = g+-^{-1} omega+-.

Every metric entry is a rational function of (x, y), so `_metric_jet`, the
one place that spells out the formula above, carries each one as a second
jet (value, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2; the jet helpers live in
`quadratics`) and `curvature` gets dg and ddg with no truncation error,
while `metric_components` runs the same formula on values alone.  On
Fraction points (coefficients picked as in `Poly.__call__`) the curvature
is exact.  Float curvature loses
digits next to a fold, where the fibre block A tau(y) tau(y)^T +
B tau(x) tau(x)^T is nearly singular and s = |tau(x) ^ tau(y)| /
(|tau(x)| |tau(y)|) tends to 0.  Max-norm relative error of float R against
exact R at (3/2, -3/2 - delta), q = 2z, A = -(z-1)(z-2), B = -z(z+3):

    delta  0.1      0.05    0.03    0.02    0.01    1e-3    1e-4
    s      0.046    0.024   0.015   0.0097  0.0049  4.9e-4  4.9e-5
    error  1.4e-10  2.2e-9  5.8e-9  1.0e-7  1.1e-6  4.2e-3  1.6e+2

Near a double root of A or B it grows like the inverse square of the
distance (2.1e-8 at 1e-3 from the double root -3 of B in the golden
case4_double_root_edges).  Float points with s < MIN_FIBRE_SINE or a
Newton step |A/A'|, |B/B'| below MIN_ROOT_DISTANCE raise
SingularEvaluation.  Of 1474 admitted points (cell samples, random and
near-corner points of the goldens, Kerr exterior samples, and lines
towards folds, roots and the P-locus) none was off by more than 5.9e-9,
and no Kerr exterior sample is refused.

Every field is a 4x4 nested tuple, of Fractions at Fraction points, and
only `curvature` loads numpy.  A metric here is a dx^2 + b dy^2 + h_ij dt_i
dt_j and omega pairs (dx, dy) with (dt1, dt2) only, so J = g^{-1} omega is
the block inverse

    J[0, 2:] = omega[0, 2:] / a,   J[1, 2:] = omega[1, 2:] / b,
    J[2:, :2] = h^{-1} omega[2:, :2],

zero elsewhere, and the coefficient of dx^dy^dt1^dt2 in dx ^ dcx ^ dy ^ dcy
(dc u = -du o J) is minus the minor J[0,2] J[1,3] - J[0,3] J[1,2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .ansatz import (
    G0,
    GMINUS,
    GP,
    GPLUS,
    METRIC_GMINUS,
    METRIC_GPLUS,
    AnsatzSpec,
    MetricChoice,
)
from .quadratics import _inv, _mul, _poly_jet, coordinate_jets, polar_jet

if TYPE_CHECKING:
    import numpy as np


class SingularEvaluation(ValueError):
    """Field evaluated on a locus where it is singular."""


@dataclass(frozen=True)
class FramePoint:
    x: float          # or Fraction, for exact curvature
    y: float
    t1: float = 0.0
    t2: float = 0.0


METRIC = "Metric"
TWO_FORM = "TwoForm"
ENDOMORPHISM = "Endomorphism"


@dataclass(frozen=True)
class TensorBlock:
    kind: str
    components: tuple     # 4x4 nested tuples


# ---------------------------------------------------------------------------
# the metric as a jet in (x, y)
# ---------------------------------------------------------------------------

def _metric_jet(spec: AnsatzSpec, metric: MetricChoice, x, y, n: int = 6) -> tuple:
    """Jet of the metric at (x, y) as n nested 4x4 tuples, jet index first:
    n = 6 for the second jet, n = 1 for the value alone.  The entries are
    Fractions at Fraction points, floats otherwise."""
    X, Y = (Z[:n] for Z in coordinate_jets(x, y))
    A, B = _poly_jet(spec.A, X, 0), _poly_jet(spec.B, Y, 1)
    if A[0] == 0 or B[0] == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    q = polar_jet(spec.q, X, Y)
    d = tuple(u - v for u, v in zip(X, Y))
    den = _mul(d, q)
    if den[0] == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    if metric.tag == G0:
        scale = (1, 0, 0, 0, 0, 0)[:n]
    elif metric.tag == GPLUS:
        scale = _mul(d, _inv(q))     # g+ = f^-1 g0 with f = q/(x-y)
    elif metric.tag == GMINUS:
        scale = _mul(q, _inv(d))
    else:
        p = polar_jet(metric.p, X, Y)
        if p[0] == 0:
            raise SingularEvaluation("g_p is singular on the P-locus")
        scale = _mul(den, _inv(_mul(p, p)))
    tx = [polar_jet(t, X, X) for t in spec.tau_basis]
    ty = [polar_jet(t, Y, Y) for t in spec.tau_basis]
    w = _mul(_inv(_mul(den, den)), scale)
    h = {}
    for i, j in ((0, 0), (0, 1), (1, 1)):
        fibre = zip(_mul(A, _mul(ty[i], ty[j])), _mul(B, _mul(tx[i], tx[j])))
        h[i, j] = _mul(tuple(u + v for u, v in fibre), w)
    z = (type(X[0])(0),) * n
    rows = ((_mul(_inv(A), scale), z, z, z), (z, _mul(_inv(B), scale), z, z),
            (z, z, h[0, 0], h[0, 1]), (z, z, h[0, 1], h[1, 1]))
    return tuple(zip(*(zip(*row) for row in rows)))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _omega_components(spec: AnsatzSpec, sign: str, x, y) -> tuple:
    if sign == "+":
        qv = spec.q.polarize(x, y)
        if qv == 0:
            raise SingularEvaluation("omega+ is singular on q(x, y) = 0")
        den, sy = qv * qv, 1
    else:
        d = x - y
        if d == 0:
            raise SingularEvaluation("omega- is singular on x = y")
        den, sy = d * d, -1
    (u1, v1), (u2, v2) = ((t.value(y) / den, sy * t.value(x) / den)
                          for t in spec.tau_basis)
    z = type(den)(0)
    return ((z, z, u1, u2), (z, z, v1, v2), (-u1, -v1, z, z), (-u2, -v2, z, z))


def metric_components(spec: AnsatzSpec, metric: MetricChoice, x, y) -> tuple:
    """The 4x4 metric at (x, y); Fractions when x and y are Fractions."""
    return _metric_jet(spec, metric, x, y, 1)[0]


def complex_structure(g, w) -> tuple:
    """J = g^-1 omega for a metric g that is diagonal on (dx, dy) and a
    form omega that pairs (dx, dy) with (dt1, dt2) only (module docstring)."""
    a, b = g[0][0], g[1][1]
    h00, h01, h11 = g[2][2], g[2][3], g[3][3]
    det = h00 * h11 - h01 * h01
    z = w[0][0]
    return ((z, z, w[0][2] / a, w[0][3] / a),
            (z, z, w[1][2] / b, w[1][3] / b),
            tuple((h11 * w[2][k] - h01 * w[3][k]) / det for k in (0, 1)) + (z, z),
            tuple((h00 * w[3][k] - h01 * w[2][k]) / det for k in (0, 1)) + (z, z))


def eval_field(spec: AnsatzSpec, fieldname: str, pt: FramePoint) -> TensorBlock:
    """Evaluate one of g0, g+, g-, gp, omega+, omega-, J+, J- at pt."""
    x, y = pt.x, pt.y
    if fieldname in ("g0", "g+", "g-", "gp"):
        if fieldname == "gp":
            metric = spec.metric
            if metric.tag != GP:
                raise ValueError("spec metric is not gp")
        else:
            metric = MetricChoice(fieldname)
        return TensorBlock(METRIC, metric_components(spec, metric, x, y))
    if fieldname in ("omega+", "omega-"):
        return TensorBlock(TWO_FORM, _omega_components(spec, fieldname[-1], x, y))
    if fieldname in ("J+", "J-"):
        s = fieldname[-1]
        g = metric_components(spec, METRIC_GPLUS if s == "+" else METRIC_GMINUS, x, y)
        w = _omega_components(spec, s, x, y)
        return TensorBlock(ENDOMORPHISM, complex_structure(g, w))
    raise ValueError(f"unknown field {fieldname!r}")


# ---------------------------------------------------------------------------
# top-form helpers (fold degeneracy identity)
# ---------------------------------------------------------------------------

def pfaffian4(w) -> float:
    """Pfaffian of a 4x4 antisymmetric matrix: for omega, the coefficient of
    dx^dy^dt1^dt2 in omega^2 / 2 (the Liouville normalization, under which
    the fold-degeneracy identity against f^{-+2}/(A B) dx ^ dcx ^ dy ^ dcy
    holds with constant one)."""
    return w[0][1] * w[2][3] - w[0][2] * w[1][3] + w[0][3] * w[1][2]


def kaehler_volume_coefficient(J) -> float:
    """Coefficient of dx^dy^dt1^dt2 in dx ^ dcx ^ dy ^ dcy, where dc is
    taken with respect to J (dc u = -du o J): minus the minor of J's first
    two rows in the fibre columns."""
    return J[0][3] * J[1][2] - J[0][2] * J[1][3]


# ---------------------------------------------------------------------------
# curvature from the metric jet
# ---------------------------------------------------------------------------

#: float curvature refuses points below these (module docstring)
MIN_FIBRE_SINE = 0.02
MIN_ROOT_DISTANCE = 1e-3


@dataclass(frozen=True)
class CurvaturePack:
    riemann: np.ndarray   # fully lowered R_{abcd}
    ricci: np.ndarray
    scalar: float         # a Fraction at Fraction points


def curvature(spec: AnsatzSpec, metric: MetricChoice, pt: FramePoint) -> CurvaturePack:
    """Christoffel/Riemann/Ricci/scalar from the exact second jet of the
    metric at pt; exact Fractions when pt.x and pt.y are Fractions."""
    import numpy as np

    jet = _metric_jet(spec, metric, pt.x, pt.y)
    J = np.array(jet, dtype=object if isinstance(jet[0][0][0], Fraction) else float)
    if J.dtype != object:
        X, Y = coordinate_jets(pt.x, pt.y)
        (u1, u2), (v1, v2) = ([t.value(Z[0]) for t in spec.tau_basis] for Z in (X, Y))
        A, B = _poly_jet(spec.A, X, 0), _poly_jet(spec.B, Y, 1)
        if not (abs(u1 * v2 - u2 * v1) >= MIN_FIBRE_SINE * math.hypot(u1, u2) * math.hypot(v1, v2)
                and abs(A[0]) >= MIN_ROOT_DISTANCE * abs(A[1])
                and abs(B[0]) >= MIN_ROOT_DISTANCE * abs(B[2])):
            raise SingularEvaluation("float curvature is ill-conditioned this close "
                                     "to a fold or to a root of A or B")
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
