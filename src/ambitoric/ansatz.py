"""The ambitoric ansatz box: spec objects, validation, conformal factor.

An `AnsatzSpec` holds the data (q, A, B, x-interval, y-interval, lattice,
metric choice) of an ambitoric ansatz restricted to a coordinate box.  The
open region {A(x) > 0, B(y) > 0, (x - y) * q(x,y) != 0} falls apart into
sign components, which `validate` enumerates.

The spec also carries a basis (tau_1, tau_2) of quadratics orthogonal to q:
the images of the torus generators (d/dt1, d/dt2) under the identification
of the torus Lie algebra with q-orthogonal quadratics.  For the three
canonical gauges the basis is the classical one,

    q = 1      ->  {1, z}
    q = 2z     ->  {1, z^2}
    q = 1+z^2  ->  {2z, z^2 - 1}

and it transforms covariantly (weight 1) under Mobius transport, which is
what makes the tensor fields gauge invariant pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .quadratics import (
    OO,
    Mobius,
    Poly,
    ProjPoint,
    Quadratic,
    conic_type,
    inner,
    poly_transport,
    rat,
    transport_quadratic,
    PARABOLIC,
    HYPERBOLIC,
    ELLIPTIC,
)


class ValidationError(ValueError):
    """Raised when an AnsatzSpec violates its defining inequalities."""


# ---------------------------------------------------------------------------
# intervals with endpoints in RP^1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Open interval; lo=None means -oo, hi=None means +oo.

    Projectively both infinite endpoints are the single point OO."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def __init__(self, lo, hi):
        lo = None if lo is None else rat(lo)
        hi = None if hi is None else rat(hi)
        if lo is not None and hi is not None and lo >= hi:
            raise ValidationError(f"empty interval ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @cached_property
    def bounds(self) -> Tuple[float, float]:
        """(lo, hi) as floats, -inf/inf at the infinite ends; converted on
        first use."""
        return (-math.inf if self.lo is None else float(self.lo),
                math.inf if self.hi is None else float(self.hi))

    # -- membership --------------------------------------------------------
    def contains(self, x):
        """Strict membership of a float, or elementwise of a numpy array."""
        lo, hi = self.bounds
        return (lo < x) & (x < hi)

    def endpoints_proj(self) -> Tuple[ProjPoint, ProjPoint]:
        a = OO if self.lo is None else self.lo
        b = OO if self.hi is None else self.hi
        return (a, b)

    # -- sampling ----------------------------------------------------------
    def param(self, u: float) -> float:
        """Map u in (0,1) onto the interval (compressing infinite ends)."""
        lo, hi = self.bounds
        if self.lo is not None and self.hi is not None:
            return lo + u * (hi - lo)
        if self.lo is not None:
            return lo + u / (1.0 - u)
        if self.hi is not None:
            return hi - (1.0 - u) / u
        return math.tan(math.pi * (u - 0.5))

    def samples(self, n: int) -> List[float]:
        return [self.param((i + 0.5) / n) for i in range(n)]

    def midpoint(self) -> float:
        return self.param(0.5)

    def rat_samples(self, n: int) -> List[Fraction]:
        """n exact rational interior points (infinite ends walk outward)."""
        if self.lo is not None and self.hi is not None:
            step = (self.hi - self.lo) / (n + 1)
            return [self.lo + step * (k + 1) for k in range(n)]
        if self.lo is not None:
            return [self.lo + Fraction(k + 1, 2) for k in range(n)]
        if self.hi is not None:
            return [self.hi - Fraction(k + 1, 2) for k in range(n)]
        return [Fraction(k - n // 2) for k in range(n)]

    def transport(self, m: Mobius) -> "Interval":
        """Image interval under a Mobius map; the pole must not be interior."""
        pole = m.pole()
        if pole is not OO and self.contains(float(pole)):
            # interior pole only acceptable if it IS an endpoint
            if not ((self.lo is not None and pole == self.lo)
                    or (self.hi is not None and pole == self.hi)):
                raise ValidationError(
                    f"interval ({self.lo}, {self.hi}) straddles the Mobius pole {pole}")
        a, b = self.endpoints_proj()
        ia, ib = m.apply(a), m.apply(b)
        mid = m.apply_float(self.midpoint())
        finite = [p for p in (ia, ib) if p is not OO]
        if len(finite) == 2:
            lo, hi = sorted(finite)
            if not (float(lo) < mid < float(hi)):
                raise ValidationError(
                    f"interval ({self.lo}, {self.hi}) straddles the Mobius pole")
            return Interval(lo, hi)
        if len(finite) == 1:
            f = finite[0]
            if mid > float(f):
                return Interval(f, None)
            return Interval(None, f)
        raise ValidationError("both endpoints map to infinity")

    def __repr__(self):
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "oo" if self.hi is None else str(self.hi)
        return f"Interval({lo}, {hi})"


# ---------------------------------------------------------------------------
# metric choice
# ---------------------------------------------------------------------------

G0 = "g0"
GPLUS = "g+"
GMINUS = "g-"
GP = "gp"


@dataclass(frozen=True)
class MetricChoice:
    """One of the barycentric metric g0, the Kahler metrics g+/g-, or the
    diagonal-Ricci metric g_p = (x-y) q(x,y) / p(x,y)^2 * g0 for p _|_ q."""

    tag: str
    p: Optional[Quadratic] = None

    def __post_init__(self):
        if self.tag not in (G0, GPLUS, GMINUS, GP):
            raise ValueError(f"unknown metric tag {self.tag!r}")
        if self.tag == GP and (self.p is None or self.p.is_zero()):
            raise ValueError("gp requires a nonzero quadratic p")
        if self.tag != GP and self.p is not None:
            raise ValueError("p only applies to gp")

    def __repr__(self):
        if self.tag == GP:
            return f"MetricChoice(gp, p={self.p})"
        return f"MetricChoice({self.tag})"


METRIC_G0 = MetricChoice(G0)
METRIC_GPLUS = MetricChoice(GPLUS)
METRIC_GMINUS = MetricChoice(GMINUS)


def metric_gp(p: Quadratic) -> MetricChoice:
    return MetricChoice(GP, p)


# ---------------------------------------------------------------------------
# torus basis machinery
# ---------------------------------------------------------------------------

_TAU_PARABOLIC = (Quadratic(0, 0, 1), Quadratic(0, Fraction(1, 2), 0))      # {1, z}
_TAU_HYPERBOLIC = (Quadratic(0, 0, 1), Quadratic(1, 0, 0))                  # {1, z^2}
_TAU_ELLIPTIC = (Quadratic(0, 1, 0), Quadratic(1, 0, -1))                   # {2z, z^2-1}

_CANONICAL = {
    PARABOLIC: Quadratic(0, 0, 1),
    HYPERBOLIC: Quadratic(0, 1, 0),
    ELLIPTIC: Quadratic(1, 0, 1),
}


def canonical_scale(q: Quadratic) -> Optional[Fraction]:
    """If q = s * q_canonical for its class, return s; otherwise None."""
    t = conic_type(q)
    ref = _CANONICAL[t]
    if not q.is_multiple_of(ref):
        return None
    for a, b in zip(q.coeffs(), ref.coeffs()):
        if b != 0:
            return a / b
    return None


def default_tau_basis(q: Quadratic) -> Tuple[Quadratic, Quadratic]:
    """The classical torus basis for canonical-up-to-scale q; a deterministic
    q-orthogonal basis otherwise (transported specs carry their own basis)."""
    if canonical_scale(q) is not None:
        t = conic_type(q)
        if t == PARABOLIC:
            return _TAU_PARABOLIC
        if t == HYPERBOLIC:
            return _TAU_HYPERBOLIC
        return _TAU_ELLIPTIC
    # generic orthogonal complement of the functional
    # L(p) = 2*p1*q1 - p2*q0 - p0*q2 in coordinates (p0, p1, p2)
    L = (-q.c2, 2 * q.c1, -q.c0)
    basis = []
    cands = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    j = max(range(3), key=lambda i: abs(L[i]))
    for i in range(3):
        if i == j:
            continue
        v = [Fraction(c) for c in cands[i]]
        v[j] = -L[i] / L[j]
        basis.append(Quadratic(v[0], v[1], v[2]))
    return (basis[0], basis[1])


def sigma_from_tau(tau: Quadratic, q: Quadratic) -> Quadratic:
    """Solve the cross-product equation sigma x q = -tau for the quadratic
    sigma entering mu+ = -sigma(x,y)/q(x,y), with the canonical gauge fix.

    Writing quadratics as coefficient triples (c0, c1, c2), the cross product
    (a x b) has components (a0*b1 - a1*b0, (a0*b2 - a2*b0)/2, a1*b2 - a2*b1);
    its kernel in the first slot is spanned by q itself.  The representative
    is fixed by <sigma, q> = 0 when <q, q> != 0, else by zeroing the
    coefficient slot where q is supported."""
    q0, q1, q2 = q.coeffs()
    t0, t1, t2 = tau.coeffs()
    # rows of the linear map sigma -> sigma x q, unknowns (s0, s1, s2)
    rows = [
        ([q1, -q0, Fraction(0)], -t0),
        ([q2 / 2, Fraction(0), -q0 / 2], -t1),
        ([Fraction(0), q2, -q1], -t2),
    ]
    qq = inner(q, q)
    if qq != 0:
        rows.append(([-q2, 2 * q1, -q0], Fraction(0)))  # <sigma, q> = 0
    else:
        j = next(i for i, c in enumerate(q.coeffs()) if c != 0)
        gauge = [Fraction(0)] * 3
        gauge[j] = Fraction(1)
        rows.append((gauge, Fraction(0)))
    sol = _solve_exact(rows, 3)
    if sol is None:
        raise ValueError("sigma system inconsistent; tau not orthogonal to q?")
    return Quadratic(sol[0], sol[1], sol[2])


def _solve_exact(rows, n):
    """Exact Gaussian elimination for an overdetermined consistent system."""
    mat = [list(r) + [v] for r, v in rows]
    piv_rows = []
    col = 0
    r = 0
    m = len(mat)
    for col in range(n):
        piv = None
        for i in range(r, m):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_rows.append(col)
        r += 1
        if r == m:
            break
    # consistency
    for i in range(r, m):
        if mat[i][n] != 0 and all(c == 0 for c in mat[i][:n]):
            return None
    if len(piv_rows) < n:
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(piv_rows):
        sol[col] = mat[i][n]
    return sol


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------

LatticeMatrix = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def _as_lattice(mat) -> LatticeMatrix:
    rows = tuple(tuple(rat(v) for v in row) for row in mat)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("lattice must be a 2x2 matrix")
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det == 0:
        raise ValidationError("lattice matrix is singular")
    return rows


def lattice_contains(lattice: LatticeMatrix, vec: Sequence[Fraction]) -> bool:
    """Exact membership of a rational vector in the lattice generated by the
    matrix columns: solve the 2x2 system and check integrality."""
    (a, b), (c, d) = lattice
    det = a * d - b * c
    v0, v1 = rat(vec[0]), rat(vec[1])
    w0 = (d * v0 - b * v1) / det
    w1 = (-c * v0 + a * v1) / det
    return w0.denominator == 1 and w1.denominator == 1


@dataclass(frozen=True)
class AnsatzSpec:
    """Declarative ambitoric ansatz restricted to a coordinate box."""

    q: Quadratic
    A: Poly
    B: Poly
    x_interval: Interval
    y_interval: Interval
    lattice: LatticeMatrix
    metric: MetricChoice = METRIC_G0
    tau_basis: Tuple[Quadratic, Quadratic] = None

    def __post_init__(self):
        if self.q.is_zero():
            raise ValidationError("q must be nonzero")
        object.__setattr__(self, "lattice", _as_lattice(self.lattice))
        if self.tau_basis is None:
            if canonical_scale(self.q) is None:
                raise ValidationError(
                    "q is not canonical-up-to-scale; supply an explicit tau_basis "
                    "(gauge transport does this automatically)")
            object.__setattr__(self, "tau_basis", default_tau_basis(self.q))
        for t in self.tau_basis:
            if inner(t, self.q) != 0:
                raise ValidationError("tau basis element not orthogonal to q")
        t1, t2 = self.tau_basis
        if t1.is_multiple_of(t2):
            raise ValidationError("tau basis is degenerate")
        if self.metric.tag == GP and inner(self.metric.p, self.q) != 0:
            raise ValidationError("gp quadratic p is not orthogonal to q")

    # -- derived structure -------------------------------------------------
    @property
    def ctype(self) -> str:
        return conic_type(self.q)

    def sigma_basis(self) -> Tuple[Quadratic, Quadratic]:
        return tuple(sigma_from_tau(t, self.q) for t in self.tau_basis)

    def with_metric(self, metric: MetricChoice) -> "AnsatzSpec":
        return replace(self, metric=metric)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        def fr(v):
            return str(v)

        def interval(iv: Interval):
            return ["-inf" if iv.lo is None else fr(iv.lo),
                    "inf" if iv.hi is None else fr(iv.hi)]

        d = {
            "q": [fr(c) for c in self.q.coeffs()],
            "A": [fr(c) for c in self.A.coeffs],
            "B": [fr(c) for c in self.B.coeffs],
            "x_interval": interval(self.x_interval),
            "y_interval": interval(self.y_interval),
            "lattice": [[fr(v) for v in row] for row in self.lattice],
        }
        if self.metric.tag == GP:
            d["metric"] = {"gp": [fr(c) for c in self.metric.p.coeffs()]}
        else:
            d["metric"] = self.metric.tag
        if self.tau_basis != default_tau_basis(self.q):
            d["tau_basis"] = [[fr(c) for c in t.coeffs()] for t in self.tau_basis]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AnsatzSpec":
        def endpoint(s):
            return None if s in ("inf", "-inf", None) else rat(s)

        met = d.get("metric", "g0")
        if isinstance(met, dict):
            metric = metric_gp(Quadratic(*met["gp"]))
        else:
            metric = MetricChoice(met)
        tau = d.get("tau_basis")
        return cls(
            q=Quadratic(*d["q"]),
            A=Poly(d["A"]),
            B=Poly(d["B"]),
            x_interval=Interval(endpoint(d["x_interval"][0]),
                                endpoint(d["x_interval"][1])),
            y_interval=Interval(endpoint(d["y_interval"][0]),
                                endpoint(d["y_interval"][1])),
            lattice=d["lattice"],
            metric=metric,
            tau_basis=None if tau is None else tuple(Quadratic(*t) for t in tau),
        )


# ---------------------------------------------------------------------------
# validation into sign components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxComponent:
    """A connected component of the box where (x - y) * q(x,y) keeps sign.

    The component is the subset of x_range x y_range where sign(x - y) =
    sign_xy and sign(q(x,y)) = sign_q; for boxes avoiding the folds this is
    the whole box.  Sign pairs are assumed to identify components uniquely
    within one box (true for all shipped regions)."""

    x_range: Interval
    y_range: Interval
    sign_xy: int
    sign_q: int
    q: Quadratic

    def contains(self, x: float, y: float) -> bool:
        if not (self.x_range.contains(x) and self.y_range.contains(y)):
            return False
        if (1 if x - y > 0 else -1 if x - y < 0 else 0) != self.sign_xy:
            return False
        qv = self.q.polarize(x, y)
        return (1 if qv > 0 else -1 if qv < 0 else 0) == self.sign_q

    def sample_points(self, n: int = 12) -> List[Tuple[float, float]]:
        """The points of the 3n x 3n sample grid that lie in the component
        (x outer, y inner), thinned by a stride to about n^2 of them."""
        xs = np.array(self.x_range.samples(3 * n))[:, None]
        ys = np.array(self.y_range.samples(3 * n))[None, :]
        inside = (self.x_range.contains(xs) & self.y_range.contains(ys)
                  & (np.sign(xs - ys) == self.sign_xy)
                  & (np.sign(self.q.polarize(xs, ys)) == self.sign_q))
        i, j = np.nonzero(inside)
        pts = list(zip(xs[i, 0].tolist(), ys[0, j].tolist()))
        if not pts:
            raise ValidationError("component has no sample points")
        stride = max(1, len(pts) // (n * n))
        return pts[::stride]

    def representative(self) -> Tuple[float, float]:
        pts = self.sample_points(6)
        # prefer a deep interior point: maximize min distance to sign flips
        def depth(p):
            x, y = p
            return min(abs(x - y), abs(self.q.polarize(x, y)))
        return max(pts, key=depth)


def _positivity_check(P: Poly, iv: Interval, name: str):
    """A > 0 on the open interval, decided by an exact Sturm root count
    (`Poly.count_roots`) plus a sign sample (a root of any multiplicity
    inside breaks strict positivity)."""
    if P.is_zero():
        raise ValidationError(f"{name} is identically zero")
    if P.count_roots(iv.lo, iv.hi) > 0:
        raise ValidationError(f"{name} has a zero inside the interval {iv}")
    # no root inside, so the sign at one interior point is the sign throughout
    if P(iv.rat_samples(1)[0]) <= 0:
        raise ValidationError(f"{name} is not positive on {iv}")


#: points per box side at which `validate` samples the sign pairs
_GRID = 48


def validate(spec: AnsatzSpec) -> List[BoxComponent]:
    """Check positivity of A, B, orthogonality for gp, and partition the box
    into maximal sign components of (x - y) * q(x,y)."""
    _positivity_check(spec.A, spec.x_interval, "A")
    _positivity_check(spec.B, spec.y_interval, "B")
    seen = {}
    for x in spec.x_interval.samples(_GRID):
        for y in spec.y_interval.samples(_GRID):
            d = x - y
            qv = spec.q.polarize(x, y)
            if d == 0 or qv == 0:
                continue
            key = (1 if d > 0 else -1, 1 if qv > 0 else -1)
            seen.setdefault(key, (x, y))
    comps = [
        BoxComponent(spec.x_interval, spec.y_interval, sx, sq, spec.q)
        for (sx, sq) in sorted(seen)
    ]
    if not comps:
        raise ValidationError("box contains no admissible points")
    return comps


# ---------------------------------------------------------------------------
# pointwise scalars
# ---------------------------------------------------------------------------

def conformal_factor(spec: AnsatzSpec, x, y):
    """f(x, y) = q(x, y) / (x - y); g+ = f^-1 g0 and g- = f g0."""
    num = spec.q.polarize(x, y)
    den = x - y
    if den == 0:
        raise ZeroDivisionError("conformal factor has a pole on x = y")
    return num / den


def fibre_volume(spec: AnsatzSpec, metric: MetricChoice, x, y):
    """Torus-fibre volume up to one global constant:
    g+ -> AB/q(x,y)^4, g0 -> AB/((x-y)^2 q(x,y)^2), g- -> AB/(x-y)^4,
    gp -> AB/p(x,y)^4.  A vanishing denominator yields a signed infinity."""
    Av, Bv = float(spec.A(x)), float(spec.B(y))
    qv = float(spec.q.polarize(x, y))
    d = float(x - y)
    if metric.tag == GPLUS:
        den = qv ** 4
    elif metric.tag == G0:
        den = d * d * qv * qv
    elif metric.tag == GMINUS:
        den = d ** 4
    else:
        den = float(metric.p.polarize(x, y)) ** 4
    num = Av * Bv
    if den == 0.0:
        return math.copysign(math.inf, num)
    return num / den


# ---------------------------------------------------------------------------
# gauge transport
# ---------------------------------------------------------------------------

def mobius_transport(spec: AnsatzSpec, m: Mobius) -> AnsatzSpec:
    """Transport the whole spec: x~ = m(x) applied to both coordinates,
    A and B as weight-2 binary forms, q and the torus basis as weight-1
    forms.  The lattice is unchanged: the torus coordinates do not move,
    only their description by quadratics does."""
    q2 = transport_quadratic(spec.q, m)
    tau2 = tuple(transport_quadratic(t, m) for t in spec.tau_basis)
    A2 = poly_transport(spec.A, m, weight=2)
    B2 = poly_transport(spec.B, m, weight=2)
    if spec.metric.tag == GP:
        metric2 = metric_gp(transport_quadratic(spec.metric.p, m))
    else:
        metric2 = spec.metric
    return AnsatzSpec(
        q=q2,
        A=A2,
        B=B2,
        x_interval=spec.x_interval.transport(m),
        y_interval=spec.y_interval.transport(m),
        lattice=spec.lattice,
        metric=metric2,
        tau_basis=tau2,
    )
