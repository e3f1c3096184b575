"""Named constructions: Riemannian Kerr, the CSC/Einstein family built from
transvectant data, closed-form scalar curvatures, and the standard moment
polygons as plain tuples: float vertices and the exact normals whose corner
determinants `moment.delzant_check` reads.  This module does not load `moment`.

The Kerr family is the hyperbolic ansatz with

    A(x) = x^2 - 2 M x - alpha^2,   B(y) = alpha^2 - y^2,

Ricci-flat for the metric (x^2 - y^2) g0, i.e. gp with p = 1.  When
M^2 + alpha^2 is a rational square the horizon roots x+- are exact and the
box endpoints sit exactly on them; otherwise the endpoints are nudged to
nearby rationals inside the positivity region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .quadratics import (
    Poly,
    Quadratic,
    Record,
    inner,
    is_exact,
    rat,
    rational_sqrt,
    transvectant2,
)
from .ansatz import (
    AnsatzSpec,
    Interval,
    LatticeMatrix,
    SingularEvaluation,
    ValidationError,
    metric_gp,
)

EXTERIOR = "Exterior"
INTERIOR = "Interior"

_ID_LATTICE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# Kerr
# ---------------------------------------------------------------------------

class KerrParams(Record):
    M: Fraction
    alpha: Fraction

    def __init__(self, M, alpha):
        M, alpha = rat(M), rat(alpha)
        if M <= 0:
            raise ValidationError("Kerr mass must be positive")
        if abs(alpha) >= M:
            raise ValidationError("Kerr requires |alpha| < M")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "alpha", alpha)

    def horizon_roots(self) -> Tuple[Fraction, Fraction, bool]:
        """(x-, x+, exact).  Rational roots when M^2 + alpha^2 is a rational
        square; otherwise outward-rounded rational approximations."""
        s2 = self.M * self.M + self.alpha * self.alpha
        root = rational_sqrt(s2)
        if root is not None:
            return self.M - root, self.M + root, True
        try:
            rf = Fraction(math.sqrt(float(s2))).limit_denominator(10 ** 9)
        except OverflowError:
            raise ValidationError("Kerr mass too large: M^2 + alpha^2 exceeds floats") from None

        def a_val(x):
            return x * x - 2 * self.M * x - self.alpha * self.alpha

        # nudge outward so (x-) is left of the true root and (x+) right of it
        lo = self.M - rf
        eps = Fraction(1, 10 ** 7)
        while a_val(lo) <= 0:
            lo = self.M - rf - eps
            eps *= 2
        hi = self.M + rf
        eps = Fraction(1, 10 ** 7)
        while a_val(hi) <= 0:
            hi = self.M + rf + eps
            eps *= 2
        return lo, hi, False


def kerr(params: KerrParams, region: str = EXTERIOR) -> AnsatzSpec:
    """Hyperbolic Kerr spec with metric gp, p = 1, on the standard lattice.

    Exterior: x in (x+, oo).  Interior: x in (-alpha, x-), the region left
    of the inner horizon bounded by the B roots, a modeling default.  Both
    need alpha != 0, since y runs over (-|alpha|, |alpha|)."""
    M, a = params.M, params.alpha
    if a == 0:
        raise ValidationError("Kerr needs a non-zero alpha: the y box "
                              "(-|alpha|, |alpha|) is empty at alpha = 0")
    A = Poly([-a * a, -2 * M, Fraction(1)])
    B = Poly([a * a, 0, -1])
    xm, xp, _exact = params.horizon_roots()
    if region == EXTERIOR:
        x_interval = Interval(xp, None)
    elif region == INTERIOR:
        if -abs(a) >= xm:
            raise ValidationError("interior box empty for these parameters")
        x_interval = Interval(-abs(a), xm)
    else:
        raise ValueError(f"unknown Kerr region {region!r}")
    return AnsatzSpec(
        q=Quadratic(0, 1, 0),
        A=A,
        B=B,
        x_interval=x_interval,
        y_interval=Interval(-abs(a), abs(a)),
        lattice=_ID_LATTICE,
        metric=metric_gp(Quadratic(0, 0, 1)),
    )


# ---------------------------------------------------------------------------
# CSC / Einstein family
# ---------------------------------------------------------------------------

class CSCData(Record):
    q: Quadratic
    p: Quadratic
    rho: Quadratic
    R: Poly


class CSCReport(Record):
    einstein: bool


def csc_construct(data: CSCData,
                  x_interval: Optional[Interval] = None,
                  y_interval: Optional[Interval] = None,
                  lattice: Optional[LatticeMatrix] = None
                  ) -> Tuple[AnsatzSpec, CSCReport]:
    """A = p rho + R, B = p rho - R, metric gp(p), for deg R <= 4.

    Requires exactly: <p, q> = 0, <rho, p> = 0 and <(q,R)^(2), p> = 0.
    When no box is supplied, a positivity box is searched on a rational
    grid.  The report flags the Einstein case rho || q."""
    if data.R.degree > 4:
        raise ValidationError(f"R has degree {data.R.degree}, above 4")
    errs = []
    if inner(data.p, data.q) != 0:
        errs.append("p is not orthogonal to q")
    if inner(data.rho, data.p) != 0:
        errs.append("rho is not orthogonal to p")
    if inner(transvectant2(data.q, data.R), data.p) != 0:
        errs.append("(q, R)^(2) is not orthogonal to p")
    if errs:
        raise ValidationError("; ".join(errs))

    prho = data.p.as_poly() * data.rho.as_poly()
    A = prho + data.R
    B = prho - data.R
    if x_interval is None:
        x_interval = _positivity_box(A)
    if y_interval is None:
        y_interval = _positivity_box(B, avoid=x_interval)
    spec = AnsatzSpec(
        q=data.q, A=A, B=B,
        x_interval=x_interval, y_interval=y_interval,
        lattice=lattice if lattice is not None else _ID_LATTICE,
        metric=metric_gp(data.p),
    )
    return spec, CSCReport(einstein=data.rho.is_multiple_of(data.q))


def _positivity_box(P: Poly, avoid: Optional[Interval] = None) -> Interval:
    """Longest run of a rational grid on which P > 0, preferring runs whose
    interior avoids the diagonal with `avoid`."""
    grid = [Fraction(k, 4) for k in range(-32, 33)]
    runs: List[Tuple[Fraction, Fraction]] = []
    start = None
    for t in grid:
        if P(t) > 0:
            if start is None:
                start = t
        else:
            if start is not None and t - Fraction(1, 4) > start:
                runs.append((start, t - Fraction(1, 4)))
            start = None
    if start is not None and grid[-1] > start:
        runs.append((start, grid[-1]))
    if not runs:
        raise ValidationError("no positivity region found on the search grid")

    def overlap(run):
        if avoid is None or avoid.lo is None or avoid.hi is None:
            return 0
        lo, hi = run
        return max(0, float(min(hi, avoid.hi)) - float(max(lo, avoid.lo)))

    runs.sort(key=lambda r: (overlap(r), -(r[1] - r[0])))
    lo, hi = runs[0]
    # shrink off the endpoints so the open box is strictly positive
    pad = (hi - lo) / 8
    return Interval(lo + pad, hi - pad)


# ---------------------------------------------------------------------------
# closed-form scalar curvatures
# ---------------------------------------------------------------------------

def _gen_transvectant(f1, df1, ddf1, P) -> float:
    """f1 f2'' - 3 f1' f2' + 6 f1'' f2 from the jets of f1 and P = f2."""
    return f1 * P[2] - 3 * df1 * P[1] + 6 * ddf1 * P[0]


def scalar_closed_form(spec: AnsatzSpec, sign: str, x: float, y: float) -> float:
    """Closed-form scalar curvature expression for g_sign, up to one global
    normalization constant (see the calibration test).

    For '-' the weight function is (x - y)^2 as a function of x (resp. y);
    for '+' it is q(x, y)^2.  Both are divided by (x - y) q(x, y)."""
    from .tensors import coordinate_jets, polar_jet

    X, Y = coordinate_jets(x, y)
    x, y = X[0], Y[0]
    exact = is_exact(x, y)
    # q(x, y), its gradient, and d2q/dxdy = c0
    qv, qx, qy, _, c0, _ = polar_jet(spec.q.coeffs() if exact else spec.q.floats, X, Y)
    d = x - y
    if d == 0 or qv == 0:
        raise SingularEvaluation("scalar closed form has a pole on the folds")
    A = spec.A.jet(x, 3)
    B = spec.B.jet(y, 3)
    if sign == "-":
        tA = _gen_transvectant(d * d, 2 * d, 2, A)
        tB = _gen_transvectant(d * d, -2 * d, 2, B)
    elif sign == "+":
        tA = _gen_transvectant(qv * qv, 2 * qv * qx, 2 * qx * qx + 2 * qv * c0, A)
        tB = _gen_transvectant(qv * qv, 2 * qv * qy, 2 * qy * qy + 2 * qv * c0, B)
    else:
        raise ValueError("sign must be '+' or '-'")
    return -(tA + tB) / (d * qv)


# ---------------------------------------------------------------------------
# standard polygons
# ---------------------------------------------------------------------------

def _intersect(l1, l2) -> Tuple[float, float]:
    """The float meet of the lines n . mu = c of two pairs (n, c)."""
    (a1, b1), (a2, b2) = ((float(v) for v in n) for n, _ in (l1, l2))
    det = a1 * b2 - a2 * b1
    c1, c2 = float(l1[1]), float(l2[1])
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def standard_polygon(kind: str) -> Tuple[tuple, tuple, LatticeMatrix]:
    """'cp2' or 'hirzebruch:k' as (vertices, normals, lattice).  The edges
    are the lines n . mu = c, n the inward normal, tangent to the hyperbola
    4 mu1 mu2 = -1; the Hirzebruch trapezoid has the extra tangent with
    normal (-k-1, k) at offset -sqrt(k(k+1)).  Vertex i is the float meet
    of edges i-1 and i, so edge i runs from vertex i to vertex i+1; below
    k = 2^53 the float determinant of each corner is exactly 1."""
    if kind == "cp2":
        lines = [((1, 0), 0), ((-1, 1), -1), ((0, -1), 0)]
    elif kind.startswith("hirzebruch:"):
        index = kind.partition(":")[2]
        k = int(index) if index.isdecimal() else 0
        if k < 1:
            raise ValueError(f"example {kind!r}: the index must be an integer >= 1")
        if k >= 2 ** 53:
            raise ValueError(f"example {kind!r}: index too large for float vertices")
        # mu2 = mu1 - 1, the extra tangent, mu2 = mu1 + 1, mu1 = 0
        lines = [((-1, 1), -1), ((-k - 1, k), -math.sqrt(k * (k + 1))), ((1, -1), -1),
                 ((1, 0), 0)]
    else:
        raise ValueError(f"unknown polygon kind {kind!r}")
    vertices = tuple(_intersect(lines[i - 1], lines[i]) for i in range(len(lines)))
    normals = tuple((Fraction(a), Fraction(b)) for (a, b), _ in lines)
    return vertices, normals, _ID_LATTICE
