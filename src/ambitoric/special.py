"""Named constructions: Riemannian Kerr, the CSC/Einstein family built from
transvectant data, closed-form scalar curvatures, and the standard moment
polygons as plain tuples: float vertices and the exact normals whose corner
determinants `moment.delzant_check` reads.  This module does not load `moment`.

The Kerr family is the hyperbolic ansatz with

    A(x) = x^2 - 2 M x - alpha^2,   B(y) = alpha^2 - y^2,

Ricci-flat for the metric (x^2 - y^2) g0, i.e. gp with p = 1.  When
M^2 + alpha^2 is a rational square the horizon roots x+- are exact and the
box endpoints sit exactly on them; otherwise they are the rational bracket
of `KerrParams.horizon_roots`, where A > 0, within 1e-9 of the roots.
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
    quoted,
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
        square; otherwise, with M^2 + alpha^2 = n/d in lowest terms, M -+ r
        for r = (isqrt(n d 10^18) + 1) / (d 10^9), above sqrt(n/d) as n d is
        no square: A > 0 at both ends, each within 1/(d 10^9) of its root."""
        s2 = self.M * self.M + self.alpha * self.alpha
        root = rational_sqrt(s2)
        if root is not None:
            return self.M - root, self.M + root, True
        n, d = s2.numerator, s2.denominator
        r = Fraction(math.isqrt(n * d * 10 ** 18) + 1, d * 10 ** 9)
        return self.M - r, self.M + r, False


def kerr(params: KerrParams, region: str = EXTERIOR) -> AnsatzSpec:
    """Hyperbolic Kerr spec with metric gp, p = 1.

    Exterior: x in (x+, oo).  Interior: x in (-alpha, x-), the region left
    of the inner horizon bounded by the B roots, a modeling default.  Both
    need alpha != 0, since y runs over (-|alpha|, |alpha|).

    With an exact horizon r+ = x+ the exterior gets the lattice of the
    smooth Euclidean Kerr instanton (Gibbons and Hawking 1977).  Under
    t1 = tau + alpha phi, t2 = -phi/alpha of Euclidean Boyer-Lindquist
    (tau, phi), d_tau = (1, 0) and d_phi = (alpha, -1/alpha), the normal of
    both axis edges up to sign; the lattice is spanned by d_phi and the
    horizon normal (1/kappa)(d_tau + Omega d_phi) = (r+^2, -1)/(r+ - M),
    kappa = (r+ - M)/(r+^2 - alpha^2), Omega = alpha/(r+^2 - alpha^2).
    The interior and irrational horizons keep the standard lattice."""
    M, a = params.M, params.alpha
    if a == 0:
        raise ValidationError("Kerr needs a non-zero alpha: the y box "
                              "(-|alpha|, |alpha|) is empty at alpha = 0")
    A = Poly([-a * a, -2 * M, Fraction(1)])
    B = Poly([a * a, 0, -1])
    xm, xp, exact = params.horizon_roots()
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
        lattice=(((xp * xp / (xp - M), a), (-1 / (xp - M), -1 / a))
                 if exact and region == EXTERIOR else _ID_LATTICE),
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

def standard_polygon(kind: str) -> Tuple[tuple, tuple, LatticeMatrix]:
    """'cp2' or 'hirzebruch:k' as (vertices, normals, lattice).  The edges
    are the lines n . mu = c, n the inward normal, tangent to the hyperbola
    4 mu1 mu2 = -1; the Hirzebruch trapezoid has the extra tangent with
    normal (-k-1, k) at offset -s, s = sqrt(k(k+1)), for k < 2^53.  Edge i
    runs from vertex i to vertex i+1.  The tangent meets mu2 = mu1 - 1 at
    mu1 = s - k, written k / (s + k) so that no difference cancels."""
    if kind == "cp2":
        vertices = ((0.0, 0.0), (0.0, -1.0), (1.0, 0.0))
        normals = ((1, 0), (-1, 1), (0, -1))
    elif kind.startswith("hirzebruch:"):
        index = kind.partition(":")[2]
        if not index.isdecimal() or not index.strip("0"):
            raise ValueError(f"example {quoted(kind)}: the index must be an integer >= 1")
        # 2^53 has 16 digits: count them before int() reads a long index
        if len(index.lstrip("0")) > 16 or int(index) >= 2 ** 53:
            raise ValueError(f"example {quoted(kind)}: index too large for float vertices")
        k = int(index)
        s = math.sqrt(k * (k + 1))
        t = k / (s + k)
        vertices = ((0.0, -1.0), (t, t - 1), (s + k, s + k + 1), (0.0, 1.0))
        # mu2 = mu1 - 1, the extra tangent, mu2 = mu1 + 1, mu1 = 0
        normals = ((-1, 1), (-k - 1, k), (1, -1), (1, 0))
    else:
        raise ValueError(f"unknown polygon kind {quoted(kind)}")
    normals = tuple((Fraction(a), Fraction(b)) for a, b in normals)
    return vertices, normals, _ID_LATTICE
