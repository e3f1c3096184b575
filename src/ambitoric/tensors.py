"""Pointwise tensor fields of the ansatz and finite-difference curvature.

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

Curvature is obtained by central finite differences of the metric
components with Richardson extrapolation (steps h and h/2), which is
accurate to ~1e-9 for the rational metrics handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .ansatz import (
    G0,
    GMINUS,
    GP,
    GPLUS,
    AnsatzSpec,
    MetricChoice,
)


class SingularEvaluation(ValueError):
    """Field evaluated on a locus where it is singular."""


@dataclass(frozen=True)
class FramePoint:
    x: float
    y: float
    t1: float = 0.0
    t2: float = 0.0


METRIC = "Metric"
TWO_FORM = "TwoForm"
ENDOMORPHISM = "Endomorphism"


@dataclass(frozen=True)
class TensorBlock:
    kind: str
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _g0_components(spec: AnsatzSpec, x: float, y: float) -> np.ndarray:
    Av = float(spec.A(x))
    Bv = float(spec.B(y))
    if Av == 0.0 or Bv == 0.0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    qv = spec.q.polarize(x, y)
    den = (x - y) * qv
    if den == 0.0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    t1, t2 = spec.tau_basis
    tx = np.array([t1.value(x), t2.value(x)])
    ty = np.array([t1.value(y), t2.value(y)])
    g = np.zeros((4, 4))
    g[0, 0] = 1.0 / Av
    g[1, 1] = 1.0 / Bv
    tb = (Av * np.outer(ty, ty) + Bv * np.outer(tx, tx)) / (den * den)
    g[2:, 2:] = tb
    return g


def _metric_scale(spec: AnsatzSpec, metric: MetricChoice, x: float, y: float) -> float:
    qv = spec.q.polarize(x, y)
    d = x - y
    if metric.tag == G0:
        return 1.0
    if metric.tag == GPLUS:
        # g+ = f^-1 g0 with f = q/(x-y)
        if qv == 0.0:
            raise SingularEvaluation("g+ is singular on q(x, y) = 0")
        return d / qv
    if metric.tag == GMINUS:
        if d == 0.0:
            raise SingularEvaluation("g- is singular on x = y")
        return qv / d
    pv = metric.p.polarize(x, y)
    if pv == 0.0:
        raise SingularEvaluation("g_p is singular on the P-locus")
    return d * qv / (pv * pv)


def _omega_components(spec: AnsatzSpec, sign: str, x: float, y: float) -> np.ndarray:
    t1, t2 = spec.tau_basis
    tx = np.array([t1.value(x), t2.value(x)])
    ty = np.array([t1.value(y), t2.value(y)])
    if sign == "+":
        qv = spec.q.polarize(x, y)
        if qv == 0.0:
            raise SingularEvaluation("omega+ is singular on q(x, y) = 0")
        den = qv * qv
        sy = 1.0
    else:
        d = x - y
        if d == 0.0:
            raise SingularEvaluation("omega- is singular on x = y")
        den = d * d
        sy = -1.0
    w = np.zeros((4, 4))
    w[0, 2:] = ty / den
    w[1, 2:] = sy * tx / den
    w[2:, 0] = -w[0, 2:]
    w[2:, 1] = -w[1, 2:]
    return w


FIELDS = ("g0", "g+", "g-", "gp", "omega+", "omega-", "J+", "J-")


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
        g = _g0_components(spec, x, y) * _metric_scale(spec, metric, x, y)
        return TensorBlock(METRIC, g)
    if fieldname in ("omega+", "omega-"):
        return TensorBlock(TWO_FORM, _omega_components(spec, fieldname[-1], x, y))
    if fieldname in ("J+", "J-"):
        s = fieldname[-1]
        gpm = _g0_components(spec, x, y) * _metric_scale(
            spec, MetricChoice(GPLUS if s == "+" else GMINUS), x, y)
        w = _omega_components(spec, s, x, y)
        J = np.linalg.solve(gpm, w)
        return TensorBlock(ENDOMORPHISM, J)
    raise ValueError(f"unknown field {fieldname!r}")


def metric_components(spec: AnsatzSpec, metric: MetricChoice, x: float, y: float) -> np.ndarray:
    return _g0_components(spec, x, y) * _metric_scale(spec, metric, x, y)


# ---------------------------------------------------------------------------
# top-form helpers (fold degeneracy identity)
# ---------------------------------------------------------------------------

def pfaffian4(w: np.ndarray) -> float:
    """Pfaffian of a 4x4 antisymmetric matrix."""
    return w[0, 1] * w[2, 3] - w[0, 2] * w[1, 3] + w[0, 3] * w[1, 2]


def omega_top_coefficient(spec: AnsatzSpec, sign: str, x: float, y: float) -> float:
    """Coefficient of dx^dy^dt1^dt2 in omega_sign^2 / 2 (the Liouville
    normalization, under which the fold-degeneracy identity against
    f^{-+2}/(A B) dx ^ dcx ^ dy ^ dcy holds with constant one)."""
    w = _omega_components(spec, sign, x, y)
    return pfaffian4(w)


def kaehler_volume_coefficient(spec: AnsatzSpec, sign: str, x: float, y: float) -> float:
    """Coefficient of dx^dy^dt1^dt2 in dx ^ dcx ^ dy ^ dcy where dc is taken
    with respect to J_sign (dc u = -du o J)."""
    J = eval_field(spec, "J" + sign, FramePoint(x, y)).components
    rows = np.zeros((4, 4))
    rows[0, 0] = 1.0            # dx
    rows[1] = -J[0, :]          # dcx
    rows[2, 1] = 1.0            # dy
    rows[3] = -J[1, :]          # dcy
    return float(np.linalg.det(rows))


# ---------------------------------------------------------------------------
# curvature by finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvaturePack:
    riemann: np.ndarray   # fully lowered R_{abcd}
    ricci: np.ndarray
    scalar: float
    step: float


def _richardson1(f: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    def d(hh):
        return (f(hh) - f(-hh)) / (2.0 * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _richardson2(f: Callable[[float], np.ndarray], f0: np.ndarray, h: float) -> np.ndarray:
    def d(hh):
        return (f(hh) - 2.0 * f0 + f(-hh)) / (hh * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def _singular_distance(spec: AnsatzSpec, metric: MetricChoice, x: float, y: float) -> float:
    """Crude distance to the nearest zero of (x-y), q(x,y) and, for gp, p."""
    vals = [abs(x - y) / math.sqrt(2.0)]
    qv = spec.q.polarize(x, y)
    gq = math.hypot(spec.q.dx_polarize(y), spec.q.dx_polarize(x))
    if gq > 0:
        vals.append(abs(qv) / gq)
    if metric.tag == GP:
        p = metric.p
        gp = math.hypot(p.dx_polarize(y), p.dx_polarize(x))
        if gp > 0:
            vals.append(abs(p.polarize(x, y)) / gp)
    return min(vals)


def curvature(spec: AnsatzSpec, metric: MetricChoice, pt: FramePoint,
              h: float = 1e-3) -> CurvaturePack:
    """Christoffel/Riemann/Ricci/scalar from central differences of the
    metric components with Richardson extrapolation (h and h/2)."""
    x0, y0 = pt.x, pt.y
    if _singular_distance(spec, metric, x0, y0) < 10.0 * h:
        raise SingularEvaluation(
            "curvature stencil too close to a singular locus (within 10 h)")

    def g_at(x, y):
        return metric_components(spec, metric, x, y)

    g = g_at(x0, y0)
    dg = np.zeros((4, 4, 4))
    ddg = np.zeros((4, 4, 4, 4))
    dg[0] = _richardson1(lambda e: g_at(x0 + e, y0), h)
    dg[1] = _richardson1(lambda e: g_at(x0, y0 + e), h)
    ddg[0, 0] = _richardson2(lambda e: g_at(x0 + e, y0), g, h)
    ddg[1, 1] = _richardson2(lambda e: g_at(x0, y0 + e), g, h)
    mixed = _richardson1(
        lambda ex: _richardson1(lambda ey: g_at(x0 + ex, y0 + ey), h), h)
    ddg[0, 1] = mixed
    ddg[1, 0] = mixed

    ginv = np.linalg.inv(g)
    # T[d, b, c] = d_b g_{dc} + d_c g_{db} - d_d g_{bc}
    T = np.zeros((4, 4, 4))
    for d_ in range(4):
        for b in range(4):
            for c in range(4):
                T[d_, b, c] = dg[b, d_, c] + dg[c, d_, b] - dg[d_, b, c]
    Gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, T)

    dginv = -np.einsum("ae,deh,hb->dab", ginv, dg, ginv)
    dT = np.zeros((4, 4, 4, 4))
    for e in range(4):
        for d_ in range(4):
            for b in range(4):
                for c in range(4):
                    dT[e, d_, b, c] = (ddg[e, b, d_, c] + ddg[e, c, d_, b]
                                       - ddg[e, d_, b, c])
    dGamma = 0.5 * (np.einsum("ead,dbc->eabc", dginv, T)
                    + np.einsum("ad,edbc->eabc", ginv, dT))

    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    Rup = np.zeros((4, 4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d_ in range(4):
                    Rup[a, b, c, d_] = dGamma[c, a, d_, b] - dGamma[d_, a, c, b]
    Rup += np.einsum("ace,edb->abcd", Gamma, Gamma)
    Rup -= np.einsum("ade,ecb->abcd", Gamma, Gamma)

    riemann = np.einsum("ae,ebcd->abcd", g, Rup)
    ricci = np.einsum("abad->bd", Rup)
    scalar = float(np.einsum("bd,bd->", np.linalg.inv(g), ricci))
    return CurvaturePack(riemann=riemann, ricci=ricci, scalar=scalar, step=h)
