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
accurate to ~1e-9 for the rational metrics handled here.  The metric is
evaluated once, as one numpy batch over the 25-point stencil
{0, +-h/2, +-h}^2, and every difference is taken from slices of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _vanishes(v) -> bool:
    """Whether a float, or any entry of an array, is zero."""
    return (v == 0.0).any() if isinstance(v, np.ndarray) else v == 0.0


def _cell(v) -> np.ndarray:
    """A float or an array of them, broadcast over a trailing 4x4 block."""
    return np.asarray(v)[..., None, None]


def metric_components(spec: AnsatzSpec, metric: MetricChoice, x, y) -> np.ndarray:
    """Components of the metric at (x, y).  Floats give one 4x4 array; numpy
    arrays of the same shape give a batch of shape (..., 4, 4) whose entries
    equal the pointwise evaluations bit for bit."""
    Av = spec.A(x)
    Bv = spec.B(y)
    if _vanishes(Av) or _vanishes(Bv):
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    qv = spec.q.polarize(x, y)
    d = x - y
    den = d * qv
    if _vanishes(den):
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    if metric.tag == G0:
        scale = 1.0
    elif metric.tag == GPLUS:
        scale = d / qv          # g+ = f^-1 g0 with f = q/(x-y)
    elif metric.tag == GMINUS:
        scale = qv / d
    else:
        pv = metric.p.polarize(x, y)
        if _vanishes(pv):
            raise SingularEvaluation("g_p is singular on the P-locus")
        scale = d * qv / (pv * pv)
    t1, t2 = spec.tau_basis
    tx = np.array([t1.value(x), t2.value(x)]).T     # batch axes first
    ty = np.array([t1.value(y), t2.value(y)]).T
    g = np.zeros(np.shape(den) + (4, 4))
    g[..., 0, 0] = 1.0 / Av
    g[..., 1, 1] = 1.0 / Bv
    g[..., 2:, 2:] = ((_cell(Av) * (ty[..., :, None] * ty[..., None, :])
                       + _cell(Bv) * (tx[..., :, None] * tx[..., None, :]))
                      / _cell(den * den))
    return g * _cell(scale)


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
        gpm = metric_components(spec, METRIC_GPLUS if s == "+" else METRIC_GMINUS, x, y)
        w = _omega_components(spec, s, x, y)
        J = np.linalg.solve(gpm, w)
        return TensorBlock(ENDOMORPHISM, J)
    raise ValueError(f"unknown field {fieldname!r}")


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
    metric components with Richardson extrapolation (h and h/2), all taken
    from one batched evaluation on the 5x5 stencil around pt."""
    x0, y0 = pt.x, pt.y
    if _singular_distance(spec, metric, x0, y0) < 10.0 * h:
        raise SingularEvaluation(
            "curvature stencil too close to a singular locus (within 10 h)")

    hh = h / 2.0
    steps = np.array([-h, -hh, 0.0, hh, h])
    # G[i, j] = g(x0 + steps[i], y0 + steps[j])
    G = metric_components(spec, metric, np.repeat(x0 + steps, 5),
                          np.tile(y0 + steps, 5)).reshape(5, 5, 4, 4)
    g = G[2, 2]

    def d1(F):
        """Richardson first difference along the stencil axis 0 of F."""
        return (4.0 * ((F[3] - F[1]) / (2.0 * hh)) - (F[4] - F[0]) / (2.0 * h)) / 3.0

    def d2(F):
        """Richardson second difference along the stencil axis 0 of F."""
        return (4.0 * ((F[3] - 2.0 * F[2] + F[1]) / (hh * hh))
                - (F[4] - 2.0 * F[2] + F[0]) / (h * h)) / 3.0

    dg = np.zeros((4, 4, 4))
    ddg = np.zeros((4, 4, 4, 4))
    dg[0] = d1(G[:, 2])
    dg[1] = d1(G[2])
    ddg[0, 0] = d2(G[:, 2])
    ddg[1, 1] = d2(G[2])
    # mixed: the y difference at each x offset, then the x difference of those
    ddg[0, 1] = ddg[1, 0] = d1(d1(G.swapaxes(0, 1)))

    ginv = np.linalg.inv(g)
    # T[d, b, c] = d_b g_{dc} + d_c g_{db} - d_d g_{bc}
    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    Gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, T)

    dginv = -np.einsum("ae,deh,hb->dab", ginv, dg, ginv)
    dT = ddg.transpose(0, 2, 1, 3) + ddg.transpose(0, 2, 3, 1) - ddg
    dGamma = 0.5 * (np.einsum("ead,dbc->eabc", dginv, T)
                    + np.einsum("ad,edbc->eabc", ginv, dT))

    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    # (C order, so that the contractions below sum in the same order as on
    # an array filled entry by entry)
    Rup = np.ascontiguousarray(dGamma.transpose(1, 3, 0, 2) - dGamma.transpose(1, 3, 2, 0))
    Rup += np.einsum("ace,edb->abcd", Gamma, Gamma)
    Rup -= np.einsum("ade,ecb->abcd", Gamma, Gamma)

    riemann = np.einsum("ae,ebcd->abcd", g, Rup)
    ricci = np.einsum("abad->bd", Rup)
    scalar = float(np.einsum("bd,bd->", np.linalg.inv(g), ricci))
    return CurvaturePack(riemann=riemann, ricci=ricci, scalar=scalar, step=h)
