"""Independent checks: expected values computed apart from `ambitoric`.

Nothing here imports the package.  Quadratics are coefficient triples
(c0, c1, c2) meaning c0*z^2 + 2*c1*z + c2, polarized as
c0*x*y + c1*(x + y) + c2; intervals are (lo, hi) pairs of Fractions with
None for an infinite end.  All decisions on rational data are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Triple = Tuple[Fraction, Fraction, Fraction]
Iv = Tuple[Optional[Fraction], Optional[Fraction]]
OO = "oo"


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def polar(t: Triple, x, y):
    return t[0] * x * y + t[1] * (x + y) + t[2]


def inner(a: Triple, b: Triple) -> Fraction:
    return 2 * a[1] * b[1] - a[2] * b[0] - a[0] * b[2]


def inside(iv: Iv, v) -> bool:
    lo, hi = iv
    return (lo is None or v > lo) and (hi is None or v < hi)


# ---------------------------------------------------------------------------
# exact connected components of the open box minus {x = y} and {q = 0}
# ---------------------------------------------------------------------------
#
# A one-variable cylindrical decomposition.  On every vertical line the
# folds leave at most two cut points (y = x and the graph of the Mobius
# involution y = -(c1 x + c2)/(c0 x + c1)), so the open pieces of a fibre
# are told apart by their sign pair (sign(x - y), sign q).  The fibre
# structure changes only at critical x-values: box endpoints hit by a fold,
# the pole of the involution and the fold-fold crossings (the roots of
# q(t), possibly quadratic surds).  Pieces of neighbouring slabs with the
# same sign pair join exactly when that sign pair also occurs on the
# critical line between them.

class _Surd:
    """p + r*sqrt(D) for rationals p, r and a fixed non-square D > 0."""

    __slots__ = ("p", "r", "D", "root_sign")

    def __init__(self, p, r, D, root_sign=0):
        self.p, self.r, self.D = Fraction(p), Fraction(r), Fraction(D)
        self.root_sign = root_sign

    def approx(self) -> float:
        return float(self.p) + float(self.r) * math.sqrt(float(self.D))


def _sign_uvD(u: Fraction, v: Fraction, D: Fraction) -> int:
    """sign(u + v*sqrt(D)), exactly."""
    su, sv = _sign(u), _sign(v)
    if sv == 0 or D == 0:
        return su
    if su == 0 or su == sv:
        return sv
    return su * _sign(u * u - v * v * D)


def _as_surd(a, D) -> _Surd:
    return a if isinstance(a, _Surd) else _Surd(a, 0, D)


def _cmp(a, b, D) -> int:
    a, b = _as_surd(a, D), _as_surd(b, D)
    return _sign_uvD(a.p - b.p, a.r - b.r, D)


def _rational_between(a, b, D) -> Fraction:
    """A rational strictly between a < b (either may be None for -oo/+oo)."""
    if a is None and b is None:
        return Fraction(0)
    if a is None:
        return Fraction(math.floor(_as_surd(b, D).approx()) - 1)
    if b is None:
        return Fraction(math.ceil(_as_surd(a, D).approx()) + 1)
    if not isinstance(a, _Surd) and not isinstance(b, _Surd):
        return (a + b) / 2
    fa, fb = _as_surd(a, D).approx(), _as_surd(b, D).approx()
    for cand in (Fraction((fa + fb) / 2).limit_denominator(10 ** 6),
                 Fraction((fa + fb) / 2)):
        if _cmp(a, cand, D) < 0 < _cmp(b, cand, D):
            return cand
    raise ArithmeticError("critical values too close to separate")


def _fiber_signs(q: Triple, Y: Iv, x) -> FrozenSet[Tuple[int, int]]:
    """Sign pairs of the open pieces of {x} x Y minus the folds."""
    c0, c1, c2 = q
    if isinstance(x, _Surd):
        # x is a fold-fold crossing (x, x); q(x, y) = a (y - x) with
        # a = c0 x + c1 = root_sign * sqrt(D)
        sa = x.root_sign
        out = set()
        below = Y[0] is None or _cmp(Y[0], x, x.D) < 0
        above = Y[1] is None or _cmp(Y[1], x, x.D) > 0
        if below:
            out.add((1, -sa))
        if above:
            out.add((-1, sa))
        return frozenset(out)
    a = c0 * x + c1
    b = c1 * x + c2
    if a == 0 and b == 0:
        return frozenset()          # the whole fibre lies on {q = 0}
    cuts = set()
    if inside(Y, x):
        cuts.add(x)
    if a != 0 and inside(Y, -b / a):
        cuts.add(-b / a)
    bounds = [Y[0]] + sorted(cuts) + [Y[1]]
    out = set()
    for lo, hi in zip(bounds, bounds[1:]):
        s = _rational_between(lo, hi, 0)
        out.add((_sign(x - s), _sign(a * s + b)))
    return frozenset(out)


def _critical_values(q: Triple, X: Iv, Y: Iv):
    c0, c1, c2 = q
    crit: List = []
    for t in Y:
        if t is None:
            continue
        crit.append(t)                      # the diagonal leaves the box
        den = c0 * t + c1
        if den != 0:
            crit.append(-(c1 * t + c2) / den)   # {q = 0} leaves the box
    D = Fraction(0)
    if c0 != 0:
        crit.append(-c1 / c0)               # pole of the involution
        disc = c1 * c1 - c0 * c2
        if disc > 0:
            rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
            if rn * rn == disc.numerator and rd * rd == disc.denominator:
                s = Fraction(rn, rd)
                crit += [(-c1 + s) / c0, (-c1 - s) / c0]
            else:
                D = disc
                for rs in (1, -1):
                    # t = (-c1 + rs sqrt(D)) / c0, so c0 t + c1 = rs sqrt(D)
                    crit.append(_Surd(-c1 / c0, Fraction(rs) / c0, D, rs))
    elif c1 != 0:
        crit.append(-c2 / (2 * c1))          # crossing of two lines
    crit = [c for c in crit
            if (X[0] is None or _cmp(c, X[0], D) > 0)
            and (X[1] is None or _cmp(c, X[1], D) < 0)]
    crit.sort(key=cmp_to_key(lambda a, b: _cmp(a, b, D)))
    uniq: List = []
    for c in crit:
        if not uniq or _cmp(uniq[-1], c, D) != 0:
            uniq.append(c)
    return uniq, D


def box_decomposition(q: Triple, X: Iv, Y: Iv):
    """(slabs, walls): sign-pair sets of the slab pieces, left to right, and
    of the critical lines between consecutive slabs."""
    crit, D = _critical_values(q, X, Y)
    ends = [X[0]] + crit + [X[1]]
    slabs = [_fiber_signs(q, Y, _rational_between(a, b, D))
             for a, b in zip(ends, ends[1:])]
    walls = [_fiber_signs(q, Y, c) for c in crit]
    return slabs, walls


def count_components(q: Triple, X: Iv, Y: Iv) -> int:
    slabs, walls = box_decomposition(q, X, Y)
    parent: Dict = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, sigs in enumerate(slabs):
        for s in sigs:
            parent[(i, s)] = (i, s)
    for i, wall in enumerate(walls):
        for s in slabs[i] & slabs[i + 1] & wall:
            parent[find((i, s))] = find((i + 1, s))
    return len({find(k) for k in parent})


def folds_meet_open_box(q: Triple, X: Iv, Y: Iv) -> bool:
    """Does {x = y} or {q = 0} pass through the open box?  Each fold is a
    curve along which its factor changes sign, so it meets the connected
    open box exactly when the factor takes both signs there."""
    slabs, _ = box_decomposition(q, X, Y)
    pieces = set().union(*slabs)
    return (len({s[0] for s in pieces}) == 2
            or len({s[1] for s in pieces}) == 2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def root_multiplicity(coeffs: Sequence[Fraction], gamma) -> int:
    """Multiplicity of gamma as a root of sum c_k z^k; at infinity it is
    4 - degree (A and B are weight-2 binary quartics)."""
    cs = [Fraction(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if gamma == OO:
        return 4 - (len(cs) - 1)
    m = 0
    while any(cs):
        # synthetic division by (z - gamma)
        acc, quot = Fraction(0), []
        for c in reversed(cs):
            acc = acc * gamma + c
            quot.append(acc)
        if quot.pop() != 0:
            break
        m += 1
        cs = list(reversed(quot)) or [Fraction(0)]
    return m


# ---------------------------------------------------------------------------
# moment maps, conics and lines
# ---------------------------------------------------------------------------

def _solve(rows: List[List[Fraction]], n: int) -> List[Fraction]:
    """Unique solution of a consistent (possibly overdetermined) system;
    rows are [a_1, ..., a_n, rhs]."""
    m = [list(r) for r in rows]
    piv = []
    r = 0
    for col in range(n):
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(col)
        r += 1
    if len(piv) < n or any(row[n] != 0 for row in m[r:]):
        raise ArithmeticError("system singular or inconsistent")
    return [m[i][n] for i in range(n)]


def sigma(tau: Triple, q: Triple) -> Triple:
    """The quadratic s with s x q = -tau, where a x b is
    (a0 b1 - a1 b0, (a0 b2 - a2 b0)/2, a1 b2 - a2 b1); fixed by <s, q> = 0,
    or, for null q, by zeroing the first coefficient slot q uses."""
    q0, q1, q2 = q
    t0, t1, t2 = tau
    rows = [[q1, -q0, Fraction(0), -t0],
            [q2 / 2, Fraction(0), -q0 / 2, -t1],
            [Fraction(0), q2, -q1, -t2]]
    if inner(q, q) != 0:
        rows.append([-q2, 2 * q1, -q0, Fraction(0)])
    else:
        j = next(i for i, c in enumerate(q) if c != 0)
        rows.append([Fraction(int(i == j)) for i in range(3)] + [Fraction(0)])
    return tuple(_solve(rows, 3))


def moment_basis(sign: str, q: Triple, tau: Sequence[Triple]):
    return tuple(sigma(t, q) for t in tau) if sign == "+" else tuple(tau)


def mu(sign: str, q: Triple, basis, x, y):
    """mu^+ = -sigma_i(x,y)/q(x,y), mu^- = -tau_i(x,y)/(x - y); None at a
    pole.  `basis` comes from moment_basis."""
    den = polar(q, x, y) if sign == "+" else x - y
    if den == 0:
        return None
    return tuple(-polar(b, x, y) / den for b in basis)


def mu_at_infinity(sign: str, q: Triple, basis, s):
    """Limit of mu along {x -> oo, y = s} (and, by symmetry, y -> oo)."""
    den = q[0] * s + q[1] if sign == "+" else Fraction(1)
    if den == 0:
        return None
    return tuple(-(b[0] * s + b[1]) / den for b in basis)


def conic_value(Q, m) -> Fraction:
    v = (m[0], m[1], Fraction(1))
    return sum(Q[i][j] * v[i] * v[j] for i in range(3) for j in range(3))


def proportional(Q, R) -> bool:
    """Q = lambda R for some nonzero rational lambda (3x3 matrices)."""
    a = [c for row in Q for c in row]
    b = [c for row in R for c in row]
    k = next((i for i, c in enumerate(b) if c != 0), None)
    if k is None or a[k] == 0:
        return False
    lam = a[k] / b[k]
    return all(x == lam * y for x, y in zip(a, b))


F = Fraction
#: the fold conics displayed in the paper for the canonical gauges, as
#: homogeneous matrices in (mu1, mu2, 1); parabolic '-' is a point pair
DISPLAYED_CONICS = {
    ("Hyperbolic", "-"): ((F(0), F(2), F(0)), (F(2), F(0), F(0)),
                          (F(0), F(0), F(1))),            # mu1 mu2 = -1/4
    ("Elliptic", "-"): ((F(1), F(0), F(0)), (F(0), F(1), F(0)),
                        (F(0), F(0), F(-1))),             # mu1^2 + mu2^2 = 1
    ("Parabolic", "+"): ((F(1), F(0), F(0)), (F(0), F(0), F(-2)),
                         (F(0), F(-2), F(0))),            # mu1^2 = 4 mu2
}
DISPLAYED_POINTS = {("Parabolic", "-"): {(F(0), F(1, 2)), (F(0), F(-1, 2))}}


def fold_points(sign: str, q: Triple, n: int = 5) -> List[Tuple[Fraction, Fraction]]:
    """Rational points on Z+ = {x = y} or Z- = {q(x, y) = 0}, off the other
    fold, on a grid (sevenths and elevenths) unrelated to the program's."""
    pts = []
    c0, c1, c2 = q
    for k in range(1, 60):
        x = Fraction(k, 7) - Fraction(30, 11)
        if sign == "+":
            y = x
            if polar(q, x, y) == 0:
                continue
        else:
            den = c0 * x + c1
            if den == 0:
                continue
            y = -(c1 * x + c2) / den
            if x == y:
                continue
        pts.append((x, y))
        if len(pts) == n:
            break
    return pts


def edge_points(other: Iv) -> List[Fraction]:
    """Four rational points of the open interval `other`, on seventeenths."""
    lo, hi = other
    if lo is not None and hi is not None:
        return [lo + (hi - lo) * Fraction(k, 17) for k in (2, 7, 11, 15)]
    if lo is not None:
        return [lo + Fraction(k, 17) for k in (3, 10, 29, 50)]
    if hi is not None:
        return [hi - Fraction(k, 17) for k in (3, 10, 29, 50)]
    return [Fraction(k, 17) for k in (-20, -3, 5, 31)]


def edge_image_at_infinity(sign: str, q: Triple, gamma) -> bool:
    """mu^+ has its pole along the whole edge {x = gamma} exactly when gamma
    is a double root of q (projectively); mu^- never does."""
    if sign == "-":
        return False
    c0, c1, c2 = q
    if gamma == OO:
        return c0 == 0 and c1 == 0
    return c0 * gamma + c1 == 0 and c1 * gamma + c2 == 0


# ---------------------------------------------------------------------------
# Kerr curvature and the planar hull
# ---------------------------------------------------------------------------

def _poly(cs, z):
    acc = 0.0
    for c in reversed(cs):
        acc = acc * z + float(c)
    return acc


def _deriv(cs):
    return [k * c for k, c in enumerate(cs)][1:] or [0]


def scalar_minus_closed_form(q: Triple, A, B, x: float, y: float) -> float:
    """Scalar curvature of g- in closed form:
    -(T_A(x) + T_B(y)) / ((x - y) q(x, y)) with
    T_P(z) = w P'' - 3 w' P' + 6 w'' P for the weight w = (x - y)^2 taken
    as a function of z."""
    d = x - y
    qv = float(q[0]) * x * y + float(q[1]) * (x + y) + float(q[2])

    def t(P, z, dw):
        d1 = _deriv(P)
        d2 = _deriv(d1)
        return d * d * _poly(d2, z) - 3.0 * dw * _poly(d1, z) + 12.0 * _poly(P, z)

    return -(t(A, x, 2.0 * d) + t(B, y, -2.0 * d)) / (d * qv)


def convex_hull(points) -> List[Tuple[float, float]]:
    """Counter-clockwise hull (Andrew's monotone chain)."""
    pts = sorted(set((float(a), float(b)) for a, b in points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List = []
    upper: List = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull(hull, p, rel_tol: float = 1e-12) -> bool:
    """Point in (or on) a counter-clockwise convex polygon."""
    n = len(hull)
    scale = max(1.0, max(abs(c) for v in hull for c in v))
    for i in range(n):
        (ax, ay), (bx, by) = hull[i], hull[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < -rel_tol * scale * scale:
            return False
    return True
