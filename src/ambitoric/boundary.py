"""Boundary decomposition and metric-distance analysis.

The closure of a cell (`ansatz.BoxComponent`) decomposes into edges (the
box edges {x or y = endpoint} it meets along a segment), folds ({x = y}
and {q(x,y) = 0} where they bound it), the box corners it contains, and
for the diagonal-Ricci metric the P-locus {p(x,y) = 0} where it crosses
the cell.  All of these are read from the cell's exact decomposition.

Edge distance is decided exactly, by one homogeneous rule at every endpoint
gamma = (X : W) of RP^1, OO included: with m the root multiplicity of A (or
B) at the endpoint and e the order of the metric's conformal scale along the
edge, the transverse length integral int dx / x^{(m-e)/2} diverges iff
m - e >= 2.  Proper folds are assigned the asymptotic gradient exponent r
of ||d phi||_g ~ phi^r along a transversal; the boundary piece is
infinitely distant iff r >= 1 (so proper folds never are, while the
P-locus with r = 1 always is).  Verdicts use the analytic table only;
`estimate_r`, a least-squares fit of r along a transversal, is the
numerical cross-check the tests compare it against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .quadratics import (
    OO,
    ProjPoint,
    Record,
    _polar_ints,
    coordinate_jets,
    polar_jet,
    proj_eq,
    proj_ints,
)
from .ansatz import (
    G0,
    GMINUS,
    GP,
    GPLUS,
    AnsatzSpec,
    BoxComponent,
    MetricChoice,
    ValidationError,
    lattice_contains,
)
from .moment import _compatible_coordinates

EDGE = "Edge"
FOLD = "Fold"
CORNER = "Corner"
PLOCUS = "PLocus"

FINITE = "Finite"
INFINITELY_DISTANT = "InfinitelyDistant"


class BoundaryComponent(Record):
    kind: str
    axis: Optional[str] = None                 # edges: "X" | "Y"
    gamma: Optional[ProjPoint] = None          # edges: the level value
    sign: Optional[str] = None                 # folds: "+" | "-"
    corner: Optional[Tuple[ProjPoint, ProjPoint]] = None
    is_fold_and_edge: bool = False
    on_positive_fold: bool = False             # corners
    on_negative_fold: bool = False
    on_p_locus: bool = False
    base_point: Optional[Tuple[Fraction, Fraction]] = None   # folds, P-locus
    approach_sign: int = 0                     # side of the transversal

    def describe(self) -> str:
        if self.kind == EDGE:
            tag = " (fold-edge)" if self.is_fold_and_edge else ""
            g = "oo" if self.gamma is OO else str(self.gamma)
            return f"Edge {self.axis}={g}{tag}"
        if self.kind == FOLD:
            return f"Fold {self.sign} (proper)"
        if self.kind == PLOCUS:
            return "PLocus (proper)"
        gx, gy = self.corner
        fx = "oo" if gx is OO else str(gx)
        fy = "oo" if gy is OO else str(gy)
        flags = []
        if self.on_positive_fold:
            flags.append("on Z+")
        if self.on_negative_fold:
            flags.append("on Z-")
        if self.on_p_locus:
            flags.append("on P")
        extra = f" [{', '.join(flags)}]" if flags else ""
        return f"Corner ({fx}, {fy}){extra}"


class DistanceStatus(Record):
    verdict: str
    r_exponent: Optional[float] = None
    compatible_normal: Optional[Tuple[Tuple[Fraction, Fraction], bool]] = None


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose_boundary(spec: AnsatzSpec, comp: BoxComponent) -> List[BoundaryComponent]:
    """Edges, folds, (under gp) P-locus segments and corners of the cell's
    closure, in that order, the order of the verdict's reports.  They are
    read from the cell: an edge or a corner when the closure meets it, a
    fold (one piece per fold, the line x = r of a line pair {q = 0}
    apart) when it bounds the cell, at the cell's base point on it, and
    the P-locus when {p = 0} passes through the open cell."""
    out: List[BoundaryComponent] = []
    qdr = spec.q.double_root()
    for axis, g in comp.edges:
        fe = qdr is not None and proj_eq(g, qdr)
        out.append(BoundaryComponent(kind=EDGE, axis=axis, gamma=g,
                                     is_fold_and_edge=fe))

    for sign, _, base in comp.folds:
        out.append(BoundaryComponent(
            kind=FOLD, sign=sign, base_point=base,
            approach_sign=comp.sign_xy if sign == "+" else comp.sign_q))

    if spec.metric.tag == GP:
        p = spec.metric.p
        pv = p.polarize(*comp.witness)
        pside = (pv > 0) - (pv < 0)
        for base in comp.cells.locus_points(p, comp.index):
            out.append(BoundaryComponent(kind=PLOCUS, base_point=base,
                                         approach_sign=pside))

    # corner flags at the integer representatives (X : W), (Y : V)
    q = spec.q.numerators
    p = spec.metric.p.numerators if spec.metric.tag == GP else None
    for gx, gy in comp.corners:
        X, W = proj_ints(gx)
        Y, V = proj_ints(gy)
        pos = X * V == Y * W
        neg = _polar_ints(q, X, W, Y, V) == 0
        onp = p is not None and _polar_ints(p, X, W, Y, V) == 0
        out.append(BoundaryComponent(kind=CORNER, corner=(gx, gy),
                                     on_positive_fold=pos,
                                     on_negative_fold=neg,
                                     on_p_locus=onp))
    return out


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def _scale_edge_order(metric: MetricChoice, fold_edge: bool) -> int:
    """Vanishing order of the metric's conformal scale in the transverse
    coordinate along the edge.  Nonzero only for fold-edges, where q(x,y)
    vanishes to first order off the edge."""
    if not fold_edge or metric.tag == G0:
        return 0
    if metric.tag == GPLUS:
        return -1
    return 1  # g- and gp


def edge_status(spec: AnsatzSpec, metric: MetricChoice,
                edge: BoundaryComponent) -> DistanceStatus:
    """Exact edge verdict at gamma = (X : W), the same at OO as anywhere.

    The multiplicity m of gamma as a root of the weight-2 form P (A or B)
    decides the distance.  At a simple root the compatible normal is
    s identify_t((W z - X)^2 x q, '-') / D, s = -2 on an X edge and 2 on a
    Y edge, with D = d_X P / W = -d_W P / X (Euler's identity) the slope
    of P(X, W) at its root: W^2 P'(X / W) for W > 0 and -a3 at OO.
    Numerator and D both scale as the square of the representative, so
    the normal does not depend on it; both are integers at the integer
    representative (a, b) of gamma (`moment._compatible_coordinates`,
    `Poly.hom_jet`), and the normal is one Fraction per component."""
    if edge.kind != EDGE:
        raise ValueError("edge_status needs an Edge component")
    P = spec.A if edge.axis == "X" else spec.B
    m_root = P.root_multiplicity(edge.gamma)
    if not edge.is_fold_and_edge and m_root == 0:
        g = "oo" if edge.gamma is OO else edge.gamma
        raise ValidationError(
            f"edge {edge.axis}={g}: endpoint is not a root of "
            f"{'A' if edge.axis == 'X' else 'B'}; not a true metric boundary")
    e = _scale_edge_order(metric, edge.is_fold_and_edge)
    convergent = (m_root - e) < 2
    verdict = FINITE if convergent else INFINITELY_DISTANT

    normal = None
    if convergent and not edge.is_fold_and_edge:
        a, b = proj_ints(edge.gamma)
        if b:
            (_, dp), dd = P.hom_jet(a, b, 2)
            dn = b * b * dp
        else:
            cs, dd = P.numerators
            dn = -cs[3]
        u1, u2, k = _compatible_coordinates(spec, a, b)
        s = (-2 if edge.axis == "X" else 2) * dd
        n = (Fraction(s * u1, k * dn), Fraction(s * u2, k * dn))
        normal = (n, lattice_contains(spec.lattice_inverse, n))
    return DistanceStatus(verdict=verdict, compatible_normal=normal)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def _analytic_r(spec: AnsatzSpec, metric: MetricChoice,
                fold: BoundaryComponent) -> float:
    if fold.kind == PLOCUS:
        return 1.0
    if fold.sign == "+":
        table = {G0: 0.0, GPLUS: -0.5, GMINUS: 0.5, GP: -0.5}
    else:
        table = {G0: 0.0, GPLUS: 0.5, GMINUS: -0.5, GP: -0.5}
    if (metric.tag == GP and fold.sign == "-"
            and metric.p.is_multiple_of(spec.q)):
        # q-aligned p: the negative fold is simultaneously the P-locus
        return 1.0
    return table[metric.tag]


#: log phi at the 30 geometric steps from 1e-6 to 1e-3 that `estimate_r` fits
_LOG_PHIS = tuple(math.log(1e-6) + k * math.log(1e3) / 29 for k in range(30))


def _transversal_point(spec: AnsatzSpec, fold: BoundaryComponent,
                       phi: float):
    """(x, y, (d_x phi, d_y phi)) at parameter phi along the transversal
    from the base; d phi has no dt part."""
    x0, y0 = fold.base_point           # a rational point
    s = float(fold.approach_sign or 1)
    if fold.kind == FOLD and fold.sign == "+":
        return x0 + s * phi / 2.0, y0 - s * phi / 2.0, (1.0, -1.0)
    curve = spec.q if fold.kind == FOLD else spec.metric.p
    _, gx, gy = polar_jet(curve.coeffs(), *coordinate_jets(x0, y0))[:3]
    n2 = gx * gx + gy * gy
    x = x0 + s * phi * gx / n2       # a float point: s is a float
    y = y0 + s * phi * gy / n2
    return x, y, tuple(polar_jet(curve.floats, *coordinate_jets(x, y))[1:3])


def estimate_r(spec: AnsatzSpec, metric: MetricChoice, fold: BoundaryComponent) -> float:
    """Least-squares slope of log ||d phi||_g against log phi along the
    transversal from the fold's base point.  The metric is a dx^2 + b dy^2
    plus a fibre block and d phi has no dt part, so
    ||d phi||_g^2 = (d_x phi)^2 / a + (d_y phi)^2 / b."""
    from .tensors import metric_components

    logs = []
    for t in _LOG_PHIS:
        x, y, (gx, gy) = _transversal_point(spec, fold, math.exp(t))
        g = metric_components(spec, metric, x, y)
        # on components where the conformal factor is negative the scaled
        # metric is negative definite; the length scale is |g|
        logs.append(0.5 * math.log(abs(gx * gx / g[0][0] + gy * gy / g[1][1])))
    tm, lm = sum(_LOG_PHIS) / len(logs), sum(logs) / len(logs)
    return (sum((t - tm) * (v - lm) for t, v in zip(_LOG_PHIS, logs))
            / sum((t - tm) ** 2 for t in _LOG_PHIS))


def fold_status(spec: AnsatzSpec, metric: MetricChoice,
                fold: BoundaryComponent) -> DistanceStatus:
    """Verdict from the analytic r-exponent."""
    if fold.kind not in (FOLD, PLOCUS):
        raise ValueError("fold_status needs a Fold or PLocus component")
    r = _analytic_r(spec, metric, fold)
    verdict = INFINITELY_DISTANT if r >= 1.0 else FINITE
    return DistanceStatus(verdict=verdict, r_exponent=r)


# ---------------------------------------------------------------------------
# corners
# ---------------------------------------------------------------------------

def corner_status(metric: MetricChoice, corner: BoundaryComponent,
                  adjacent: Sequence[DistanceStatus]
                  ) -> Tuple[DistanceStatus, bool, str]:
    """Corner verdict from the adjacent edge/fold statuses, plus the
    admissibility rule: a finite corner on a fold needs the matching Kahler
    or diagonal-Ricci metric, and under gp must avoid the P-locus."""
    if corner.kind != CORNER:
        raise ValueError("corner_status needs a Corner component")
    infinitely = any(a.verdict == INFINITELY_DISTANT for a in adjacent)
    verdict = INFINITELY_DISTANT if infinitely else FINITE
    status = DistanceStatus(verdict=verdict)
    if infinitely:
        return status, True, "adjacent infinitely distant piece"
    if metric.tag == GP and corner.on_p_locus:
        return status, False, "finite corner on the P-locus under gp"
    if corner.on_positive_fold and metric.tag not in (GPLUS, GP):
        return status, False, "finite corner on the positive fold needs g+ or gp"
    if corner.on_negative_fold and metric.tag not in (GMINUS, GP):
        return status, False, "finite corner on the negative fold needs g- or gp"
    return status, True, "no fold condition triggered"
