"""Boundary decomposition and metric-distance analysis.

The closure of a cell (`ansatz.BoxComponent`) decomposes into edges (the
box edges {x or y = endpoint} it meets along a segment), folds ({x = y}
and {q(x,y) = 0} where they bound it), the box corners it contains, and
for the diagonal-Ricci metric the P-locus {p(x,y) = 0} where it crosses
the cell.  All of these are read from the cell's exact decomposition.

Every distance verdict reads how the metric's conformal scale over g0,
(x - y)^a q(x, y)^b p(x, y)^c, vanishes along the piece.  The exponents
(a, b, c) are

    g0 (0, 0, 0)    g+ (1, -1, 0)    g- (-1, 1, 0)    gp (1, 1, -2)

since g+ = f^-1 g0 and g- = f g0 with f = q(x, y) / (x - y), and
g_p = (x - y) q(x, y) / p(x, y)^2 g0.  Their orders along the folds are
(e+, e-) = (a, b): p _|_ q vanishes on neither {x = y} nor {q = 0}, unless
p is a multiple of q (parabolic q only), when {p = 0} is {q = 0} and
e- = b + c = -1.  So gp with p ~ q has the orders of g+, and it is the
same metric up to a constant factor: it classifies as g+.

Edge distance is decided exactly, by one homogeneous rule at every endpoint
gamma = (X : W) of RP^1, OO included: with m the root multiplicity of A (or
B) at the endpoint and e the order of the scale along the edge (e- on a
fold-edge, the line {q = 0} at the double root of a parabolic q, and 0 on
any other edge), the transverse length integral int dx / x^{(m-e)/2}
diverges iff m - e >= 2.  A proper fold of order e has the asymptotic
gradient exponent r = -e/2 of ||d phi||_g ~ phi^r along a transversal, and
the P-locus r = -c/2; the piece is infinitely distant iff r >= 1 (so proper
folds never are, while the P-locus with r = 1 always is).  Verdicts use
these exact orders only; `estimate_r`, a least-squares fit of r along a
transversal, is the numerical cross-check the tests compare it against.
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
    compatible_coordinates,
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
    ValidationError,
    lattice_contains,
)

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

    p = spec.metric.p                   # set under gp alone
    if p is not None:
        pv = p.polarize(*comp.witness)
        pside = (pv > 0) - (pv < 0)
        for base in comp.cells.locus_points(p, comp.index):
            out.append(BoundaryComponent(kind=PLOCUS, base_point=base,
                                         approach_sign=pside))

    # corner flags at the integer representatives (X : W), (Y : V)
    q = spec.q.numerators
    p = p.numerators if p is not None else None
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
# scale orders
# ---------------------------------------------------------------------------

#: metric tag -> (a, b, c) of its conformal scale (x - y)^a q^b p^c over g0
_SCALE_EXPONENTS = {G0: (0, 0, 0), GPLUS: (1, -1, 0), GMINUS: (-1, 1, 0),
                    GP: (1, 1, -2)}


def _scale_orders(spec: AnsatzSpec) -> Tuple[int, int]:
    """(e+, e-): the orders of the spec's conformal scale along {x = y} and
    along {q = 0}; p's exponent joins e- when p is a multiple of q."""
    a, b, c = _SCALE_EXPONENTS[spec.metric.tag]
    if c and spec.metric.p.is_multiple_of(spec.q):
        b += c
    return a, b


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def edge_status(spec: AnsatzSpec, edge: BoundaryComponent) -> DistanceStatus:
    """Exact edge verdict at gamma = (X : W), the same at OO as anywhere.

    The multiplicity m of gamma as a root of the weight-2 form P (A or B)
    decides the distance.  At a simple root the compatible normal is
    s identify_t((W z - X)^2 x q, '-') / D, s = -2 on an X edge and 2 on a
    Y edge, with D = d_X P / W = -d_W P / X (Euler's identity) the slope
    of P(X, W) at its root: W^2 P'(X / W) for W > 0 and -a3 at OO.
    Numerator and D both scale as the square of the representative, so
    the normal does not depend on it; both are integers at the integer
    representative (a, b) of gamma (`quadratics.compatible_coordinates` on
    `AnsatzSpec.tau_dual`, `Poly.hom_jet`), and the normal is one Fraction
    per component."""
    if edge.kind != EDGE:
        raise ValueError("edge_status needs an Edge component")
    P = spec.A if edge.axis == "X" else spec.B
    m_root = P.root_multiplicity(edge.gamma)
    if not edge.is_fold_and_edge and m_root == 0:
        g = "oo" if edge.gamma is OO else edge.gamma
        raise ValidationError(
            f"edge {edge.axis}={g}: endpoint is not a root of "
            f"{'A' if edge.axis == 'X' else 'B'}; not a true metric boundary")
    e = _scale_orders(spec)[1] if edge.is_fold_and_edge else 0
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
        u1, u2, k = compatible_coordinates(spec.q, spec.tau_dual, a, b)
        s = (-2 if edge.axis == "X" else 2) * dd
        n = (Fraction(s * u1, k * dn), Fraction(s * u2, k * dn))
        normal = (n, lattice_contains(spec.lattice_inverse, n))
    return DistanceStatus(verdict=verdict, compatible_normal=normal)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

#: log phi at the 30 geometric steps from 1e-6 to 1e-3 that `estimate_r` fits
_LOG_PHIS = tuple(math.log(1e-6) + k * math.log(1e3) / 29 for k in range(30))


def _transversal_point(spec: AnsatzSpec, fold: BoundaryComponent,
                       phi: float):
    """(x, y, (d_x phi, d_y phi)) at parameter phi along the transversal
    from the base; d phi has no dt part."""
    from .tensors import coordinate_jets, polar_jet

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


def estimate_r(spec: AnsatzSpec, fold: BoundaryComponent) -> float:
    """Least-squares slope of log ||d phi||_g against log phi along the
    transversal from the fold's base point.  The metric is a dx^2 + b dy^2
    plus a fibre block and d phi has no dt part, so
    ||d phi||_g^2 = (d_x phi)^2 / a + (d_y phi)^2 / b."""
    from .tensors import metric_components

    logs = []
    for t in _LOG_PHIS:
        x, y, (gx, gy) = _transversal_point(spec, fold, math.exp(t))
        g = metric_components(spec, spec.metric, x, y)
        # on components where the conformal factor is negative the scaled
        # metric is negative definite; the length scale is |g|
        logs.append(0.5 * math.log(abs(gx * gx / g[0][0] + gy * gy / g[1][1])))
    tm, lm = sum(_LOG_PHIS) / len(logs), sum(logs) / len(logs)
    return (sum((t - tm) * (v - lm) for t, v in zip(_LOG_PHIS, logs))
            / sum((t - tm) ** 2 for t in _LOG_PHIS))


def fold_status(spec: AnsatzSpec, fold: BoundaryComponent) -> DistanceStatus:
    """Verdict from the exact r-exponent -e/2, e the scale's order along
    the piece."""
    if fold.kind == FOLD:
        e = _scale_orders(spec)["+-".index(fold.sign)]
    elif fold.kind == PLOCUS:
        e = _SCALE_EXPONENTS[spec.metric.tag][2]
    else:
        raise ValueError("fold_status needs a Fold or PLocus component")
    r = -e / 2
    verdict = INFINITELY_DISTANT if r >= 1.0 else FINITE
    return DistanceStatus(verdict=verdict, r_exponent=r)


# ---------------------------------------------------------------------------
# corners
# ---------------------------------------------------------------------------

def corner_status(spec: AnsatzSpec, corner: BoundaryComponent,
                  adjacent: Sequence[DistanceStatus]
                  ) -> Tuple[DistanceStatus, bool, str]:
    """Corner verdict from the adjacent edge/fold statuses, plus the
    admissibility rule: a finite corner on Z+ (Z-) needs e+ = 1 (e- = 1),
    which g+ (g-) and gp have, and under gp must avoid the P-locus."""
    if corner.kind != CORNER:
        raise ValueError("corner_status needs a Corner component")
    infinitely = any(a.verdict == INFINITELY_DISTANT for a in adjacent)
    verdict = INFINITELY_DISTANT if infinitely else FINITE
    status = DistanceStatus(verdict=verdict)
    if infinitely:
        return status, True, "adjacent infinitely distant piece"
    if corner.on_p_locus:
        return status, False, "finite corner on the P-locus under gp"
    e_plus, e_minus = _scale_orders(spec)
    if corner.on_positive_fold and e_plus != 1:
        return status, False, "finite corner on the positive fold needs g+ or gp"
    if corner.on_negative_fold and e_minus != 1:
        return status, False, "finite corner on the negative fold needs g- or gp"
    return status, True, "no fold condition triggered"
