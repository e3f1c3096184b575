"""The ambitoric ansatz box: spec objects, validation, conformal factor.

An `AnsatzSpec` holds the data (q, A, B, x-interval, y-interval, lattice,
metric choice) of an ambitoric ansatz restricted to a coordinate box.
`validate` checks A > 0 and B > 0 and cuts the open box minus the folds
{x = y} and {q(x,y) = 0} into its connected components, the cells.  It
finds them exactly, by a cylindrical decomposition in x over rationals and
quadratic surds (`SignCells`).  Each cell carries its sign pair
(sign(x - y), sign q), a rational interior witness, and what bounds it:
the box edges and corners of its closure and a rational base point on
each fold next to it.  One sign pair can hold several cells.

The spec also carries a basis (tau_1, tau_2) of quadratics orthogonal to q:
the images of the torus generators (d/dt1, d/dt2) under the identification
of the torus Lie algebra with q-orthogonal quadratics.  For the three
canonical gauges the basis is the classical one,

    q = 1      ->  {1, z}
    q = 2z     ->  {1, z^2}
    q = 1+z^2  ->  {2z, z^2 - 1}

and it transforms covariantly (weight 1) under Mobius transport
(`gauge.mobius_transport`), which is what makes the tensor fields gauge
invariant pointwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import List, Optional, Sequence, Tuple

from .quadratics import (
    OO,
    Poly,
    ProjPoint,
    Quadratic,
    Record,
    _over_common,
    conic_type,
    cross,
    dual_frame,
    inner,
    rat,
    rational_sqrt,
    to_float,
    transversal,
    PARABOLIC,
    HYPERBOLIC,
    ELLIPTIC,
)


class ValidationError(ValueError):
    """Raised when an AnsatzSpec violates its defining inequalities."""


class SingularEvaluation(ValueError):
    """Field evaluated on a locus where it is singular."""


def quoted(text: str) -> str:
    """repr(text), or for a token above 60 characters its start and length."""
    return repr(text) if len(text) <= 60 else f"{text[:24]!r}... ({len(text)} characters)"


def json_field(d: dict, key: str, parse):
    """parse(d[key]) for a field of a JSON object; a missing or malformed
    field raises a ValidationError that names it."""
    if key not in d:
        raise ValidationError(f"missing field {key!r}")
    try:
        return parse(d[key])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ValidationError(f"field {key!r}: {err}") from err


def json_list(v):
    """v, where a JSON array is required; a string, whose characters would
    otherwise be read as the entries, raises TypeError."""
    if isinstance(v, str):
        raise TypeError(f"expected a list, not the string {v!r}")
    return v


# ---------------------------------------------------------------------------
# intervals with endpoints in RP^1
# ---------------------------------------------------------------------------

class Interval(Record):
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

    @classmethod
    def from_json(cls, ends) -> "Interval":
        """[lo, hi] as written in JSON; "-inf", "inf" or null is an infinite end."""
        lo, hi = (None if e in ("-inf", "inf", None) else e for e in json_list(ends))
        return cls(lo, hi)

    @cached_property
    def bounds(self) -> Tuple[float, float]:
        """(lo, hi) as floats, -inf/inf at the infinite ends; converted on
        first use."""
        return (-math.inf if self.lo is None else to_float(self.lo),
                math.inf if self.hi is None else to_float(self.hi))

    # -- membership --------------------------------------------------------
    def contains(self, x):
        """Strict membership of a float."""
        lo, hi = self.bounds
        return lo < x < hi

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


class MetricChoice(Record):
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

#: the pointwise tensor fields of the ansatz (`tensors.eval_field`)
FIELDS = (G0, GPLUS, GMINUS, GP, "omega+", "omega-", "J+", "J-")


def metric_gp(p: Quadratic) -> MetricChoice:
    return MetricChoice(GP, p)


# ---------------------------------------------------------------------------
# torus basis machinery
# ---------------------------------------------------------------------------

#: per conic type: the canonical q and its classical torus basis
_CLASSICAL = {
    # q = 1: {1, z}
    PARABOLIC: (Quadratic(0, 0, 1),
                (Quadratic(0, 0, 1), Quadratic(0, Fraction(1, 2), 0))),
    # q = 2z: {1, z^2}
    HYPERBOLIC: (Quadratic(0, 1, 0), (Quadratic(0, 0, 1), Quadratic(1, 0, 0))),
    # q = 1 + z^2: {2z, z^2 - 1}
    ELLIPTIC: (Quadratic(1, 0, 1), (Quadratic(0, 1, 0), Quadratic(1, 0, -1))),
}


def default_tau_basis(q: Quadratic) -> Optional[Tuple[Quadratic, Quadratic]]:
    """The classical torus basis when q is a multiple of the canonical q of
    its class, else None (transported specs carry their own basis)."""
    canonical, tau = _CLASSICAL[conic_type(q)]
    return tau if q.is_multiple_of(canonical) else None


def sigma_from_tau(tau: Quadratic, q: Quadratic) -> Quadratic:
    """Solve the cross-product equation sigma x q = -tau for the quadratic
    sigma entering mu+ = -sigma(x,y)/q(x,y), with the canonical gauge fix.

    The cross product is `quadratics.cross`.  For tau _|_ q the identity
    (u x tau) x q = -<u, q> tau / 2 makes sigma = 2 (u x tau) / <u, q> a
    solution for any u with <u, q> != 0; the solutions differ by multiples
    of q, the kernel of sigma -> sigma x q.  The representative is fixed by
    <sigma, q> = 0 when <q, q> != 0, which u = q gives.  Else it is fixed by
    a zero in the first coefficient slot where q is nonzero, which the
    transversal u gives: a null q is s (a z - b)^2, and u = 1 (no z^2 term
    in u x tau) when a != 0, u = z^2 (no constant term) when a = 0."""
    if inner(tau, q) != 0:
        raise ValueError("tau is not orthogonal to q")
    u = q if inner(q, q) != 0 else transversal(q)
    return cross(u, tau).scaled(2 / inner(u, q))


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------

LatticeMatrix = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def _as_lattice(mat) -> LatticeMatrix:
    rows = tuple(tuple(rat(v) for v in json_list(row)) for row in json_list(mat))
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("lattice must be a 2x2 matrix")
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det == 0:
        raise ValidationError("lattice matrix is singular")
    return rows


def lattice_inverse(lattice: LatticeMatrix):
    """(rows, den): the inverse e adj(M) / det M of the lattice matrix
    M / e, M integral, as integer rows over den > 0."""
    (a, b, c, d), e = _over_common(lattice[0] + lattice[1])
    det = a * d - b * c
    e = e if det > 0 else -e
    return ((e * d, -e * b), (-e * c, e * a)), abs(det)


def _lattice_numerators(inverse, vec: Sequence[Fraction]):
    """(w0, w1, den): the lattice coordinates of a vector, w / den."""
    (r0, r1), den = inverse
    (v0, v1), f = _over_common([rat(v) for v in vec])
    return r0[0] * v0 + r0[1] * v1, r1[0] * v0 + r1[1] * v1, den * f


def lattice_contains(inverse, vec: Sequence[Fraction]) -> bool:
    """Exact membership of a rational vector in the lattice generated by the
    matrix columns, from its `lattice_inverse`: by integer divisibility."""
    w0, w1, den = _lattice_numerators(inverse, vec)
    return w0 % den == 0 and w1 % den == 0


class AnsatzSpec(Record):
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
        for name, P in (("A", self.A), ("B", self.B)):
            if P.degree > 4:    # A and B are weight-2 quartics
                raise ValidationError(f"{name} has degree {P.degree}, above 4")
        object.__setattr__(self, "lattice", _as_lattice(self.lattice))
        if self.tau_basis is None:
            tau = default_tau_basis(self.q)
            if tau is None:
                raise ValidationError(
                    "q is not canonical-up-to-scale; supply an explicit tau_basis "
                    "(gauge transport does this automatically)")
            object.__setattr__(self, "tau_basis", tau)
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

    @cached_property
    def sigma_basis(self) -> Tuple[Quadratic, Quadratic]:
        """The companions (sigma1, sigma2) of the torus basis, solved once."""
        return tuple(sigma_from_tau(t, self.q) for t in self.tau_basis)

    @cached_property
    def tau_cross(self) -> Fraction:
        """k with tau1 x tau2 = k q, solved once: the tau_i span q-perp, so
        their cross product is orthogonal to q-perp, a multiple of q."""
        c, q = cross(*self.tau_basis).coeffs(), self.q.coeffs()
        i = next(i for i in range(3) if q[i] != 0)
        return c[i] / q[i]

    @cached_property
    def tau_dual(self):
        """The `dual_frame` of (tau1, tau2, q), built once, or for parabolic
        q, which lies in span(tau), of (tau1, tau2, `transversal(q)`).  The
        '-' moment frame and `boundary`'s compatible normals read it."""
        t1, t2 = self.tau_basis
        return dual_frame(t1, t2, self.q) or dual_frame(t1, t2, transversal(self.q))

    @cached_property
    def moment_frames(self) -> dict:
        """sign -> the moment frame of `moment._frame`, built on first use."""
        return {}

    @cached_property
    def moment_floats(self) -> dict:
        """sign -> the float coefficients of `moment.moment_map`, built on
        first use."""
        return {}

    @cached_property
    def lattice_inverse(self):
        """The `lattice_inverse` of the lattice, built on first use."""
        return lattice_inverse(self.lattice)

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
        # from_dict restores the basis only for canonical q
        if self.tau_basis != default_tau_basis(self.q):
            d["tau_basis"] = [[fr(c) for c in t.coeffs()] for t in self.tau_basis]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AnsatzSpec":
        """The spec that `to_dict` wrote; a missing or malformed field raises
        a ValidationError that names it."""
        def quadratic(v):
            return Quadratic(*json_list(v))

        def metric(m):
            return metric_gp(quadratic(m["gp"])) if isinstance(m, dict) else MetricChoice(m)

        return cls(
            q=json_field(d, "q", quadratic),
            A=json_field(d, "A", lambda v: Poly(json_list(v))),
            B=json_field(d, "B", lambda v: Poly(json_list(v))),
            x_interval=json_field(d, "x_interval", Interval.from_json),
            y_interval=json_field(d, "y_interval", Interval.from_json),
            lattice=json_field(d, "lattice", _as_lattice),
            metric=json_field(d, "metric", metric) if "metric" in d else METRIC_G0,
            tau_basis=(json_field(d, "tau_basis", lambda t: tuple(map(quadratic, json_list(t))))
                       if d.get("tau_basis") is not None else None),
        )


# ---------------------------------------------------------------------------
# exact sign cells
# ---------------------------------------------------------------------------
#
# A one-variable cylindrical decomposition of the open box minus the folds
# {x = y} and {q = 0}.  On every vertical line the folds leave at most two
# cut points, y = x and the graph y = -(c1 x + c2)/(c0 x + c1) of the
# involution of q, so the open pieces of a fibre are told apart by their
# sign pair (sign(x - y), sign q).  The fibre structure changes only at
# critical x-values: where a fold leaves the box through a y-end, at the
# pole of the involution and where the folds cross (the roots of q(t, t),
# possibly quadratic surds).  Between consecutive critical values lie
# slabs.  Pieces of neighbouring slabs with the same sign pair join exactly
# when that sign pair also occurs on the critical line (the wall) between
# them: a point of the wall off the folds has a neighbourhood of one sign
# pair, which meets the pieces of that pair on both sides.  So a cell is a
# run of pieces of one sign pair in consecutive slabs.  Every sign and
# comparison is an integer cross-multiplication of numerators, surds as
# (P + R sqrt(N)) / d included; a midpoint is one Fraction.

def _sign(v) -> int:
    n = v.numerator                     # of an int or a Fraction
    return (n > 0) - (n < 0)


class _Surd:
    """p + r*sqrt(D) for rationals p, r and a rational non-square D > 0;
    as (P + R sqrt(N)) / d in integers (`ints`), N = num(D) den(D), d > 0."""

    __slots__ = ("p", "r", "D", "ints")

    def __init__(self, p: Fraction, r: Fraction, D: Fraction):
        self.p, self.r, self.D = p, r, D
        pd, rd, dd = p.denominator, r.denominator, D.denominator
        self.ints = (p.numerator * rd * dd, r.numerator * pd,
                     D.numerator * dd, pd * rd * dd)

    def __float__(self):
        return float(self.p) + float(self.r) * math.sqrt(self.D)

    def __repr__(self):
        return f"{self.p} + {self.r}*sqrt({self.D})"


def _sign_uvD(u: int, v: int, D: int) -> int:
    """sign(u + v*sqrt(D)) for integers, exactly."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if sv == 0 or D == 0:
        return su
    if su == 0 or su == sv:
        return sv
    return su * _sign(u * u - v * v * D)


def _cmp(a, b) -> int:
    """sign(a - b) for rationals and quadratic surds, exactly, by integer
    cross-multiplication; two surds may have different radicands."""
    if not isinstance(a, _Surd) and not isinstance(b, _Surd):
        return _sign(a.numerator * b.denominator - b.numerator * a.denominator)
    (p, r, D, d), (p2, r2, D2, d2) = (
        x.ints if isinstance(x, _Surd) else (x.numerator, 0, 0, x.denominator)
        for x in (a, b))
    u, v, w = p * d2 - p2 * d, r * d2, r2 * d
    if w == 0 or D2 == D:
        return _sign_uvD(u, v - w, D)
    # a - b = (alpha - beta) / (d d2), alpha = u + v sqrt(D), beta = w sqrt(D2)
    sa, sb = _sign_uvD(u, v, D), _sign(w)
    if sa != sb:
        return _sign(sa - sb)
    return sa * _sign_uvD(u * u + v * v * D - w * w * D2, 2 * u * v, D)


def _bounds(a, k: int) -> Tuple[int, int, int]:
    """(lo, hi, den): lo/den <= a <= hi/den, at most |r| 2^-k apart."""
    if not isinstance(a, _Surd):
        return a.numerator, a.numerator, a.denominator
    P, R, N, d = a.ints
    s = math.isqrt(N << 2 * k)              # sqrt(N) 2^k, rounded down
    lo, hi = (P << k) + R * s, (P << k) + R * (s + 1)
    return (lo, hi, d << k) if R > 0 else (hi, lo, d << k)


def _rational_between(a, b) -> Fraction:
    """A rational strictly between a < b; None is an infinite end."""
    if a is None and b is None:
        return Fraction(0)
    if a is None or b is None:
        lo, hi, den = _bounds(a if b is None else b, 0)
        return Fraction(lo // den - 1 if a is None else -(-hi // den) + 1)
    k = 8
    while True:
        _, hi, e = _bounds(a, k)
        lo, _, f = _bounds(b, k)
        if hi * f < lo * e:
            return Fraction(hi * f + lo * e, 2 * e * f)
        k *= 2


def _inside(iv: Interval, v) -> bool:
    """Exact strict membership of a rational or a surd."""
    return ((iv.lo is None or _cmp(v, iv.lo) > 0)
            and (iv.hi is None or _cmp(v, iv.hi) < 0))


def _roots(a: Fraction, b: Fraction, c: Fraction) -> list:
    """The real roots of a z^2 + b z + c, as rationals or surds."""
    if a == 0:
        return [] if b == 0 else [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = rational_sqrt(disc)
    if s is not None:
        return [(-b + s) / (2 * a), (-b - s) / (2 * a)]
    return [_Surd(-b / (2 * a), sgn / (2 * a), disc) for sgn in (1, -1)]


def _sorted_inside(values, iv: Interval) -> list:
    """The distinct values strictly inside the interval, ascending."""
    vals = sorted((v for v in values if _inside(iv, v)), key=cmp_to_key(_cmp))
    return [v for i, v in enumerate(vals) if i == 0 or _cmp(vals[i - 1], v)]


def _affine(c: Quadratic, x: Fraction) -> Tuple[int, int]:
    """(a, b) with c(x, y) = (a y + b) / (d den(x)) for the numerators
    (n0, n1, n2, d) of c: the fibre of {c = 0} over x is the point -b/a
    when a != 0."""
    n0, n1, n2, _ = c.numerators
    u, v = x.numerator, x.denominator
    return n0 * u + n1 * v, n1 * u + n2 * v


def _involution(c: Quadratic, x: Fraction) -> Optional[Fraction]:
    """The y with c(x, y) = 0, when the fibre of {c = 0} over x is one point."""
    a, b = _affine(c, x)
    return Fraction(-b, a) if a else None


def _graph_critical_values(c: Quadratic, Y: Interval,
                           other: Optional[Quadratic] = None) -> list:
    """The x-values where the involution graph of {c = 0} leaves the box
    through a y-end, has its pole, crosses {x = y} or crosses the graph of
    {other = 0}: between them its arcs stay inside or outside the box and
    off the folds."""
    d0, d1, d2 = c.coeffs()
    crit = [y for y in (_involution(c, t) for t in (Y.lo, Y.hi) if t is not None)
            if y is not None]
    if d0 != 0:
        crit.append(-d1 / d0)
    crit += _roots(d0, 2 * d1, d2)
    if other is not None:
        c0, c1, c2 = other.coeffs()
        crit += _roots(c1 * d0 - c0 * d1, c2 * d0 - c0 * d2, c2 * d1 - c1 * d2)
    return crit


#: names of the cuts bounding a fibre piece: the ends of Y, y = x, {q = 0}
_LO, _HI, _DIAG, _FOLD = "lo", "hi", "+", "-"


def _fibre(q: Quadratic, Y: Interval, x) -> list:
    """The open pieces of {x} x Y minus the folds, bottom to top, as
    (sign pair, lower cut, upper cut, rational y inside the piece)."""
    if isinstance(x, _Surd):
        # the folds cross at (x, x): q(x, y) = a (y - x) with a = c0 x + c1
        (n0, n1, _, _), (P, R, N, d) = q.numerators, x.ints
        sa = _sign_uvD(n0 * P + n1 * d, n0 * R, N)
        out = []
        if Y.lo is None or _cmp(Y.lo, x) < 0:
            out.append(((1, -sa), _LO, _DIAG, None))
        if Y.hi is None or _cmp(Y.hi, x) > 0:
            out.append(((-1, sa), _DIAG, _HI, None))
        return out
    a, b = _affine(q, x)
    if a == 0 and b == 0:
        return []                       # the whole fibre lies on {q = 0}
    cuts = {}
    if _inside(Y, x):
        cuts[x] = _DIAG
    if a and _inside(Y, Fraction(-b, a)):
        cuts.setdefault(Fraction(-b, a), _FOLD)
    bounds = [(Y.lo, _LO)] + sorted(cuts.items()) + [(Y.hi, _HI)]
    u, v = x.numerator, x.denominator
    out = []
    for (lo, klo), (hi, khi) in zip(bounds, bounds[1:]):
        y = _rational_between(lo, hi)
        m, n = y.numerator, y.denominator
        out.append(((_sign(u * n - m * v), _sign(a * m + b * n)), klo, khi, y))
    return out


def _limit(q: Quadratic, Y: Interval, cut: str, e, side: int):
    """The limit of a cut as x tends to e (a rational or +-inf) from the
    side `side` (+1: from above); +-inf where the cut runs off."""
    if cut == _LO:
        return -math.inf if Y.lo is None else Y.lo
    if cut == _HI:
        return math.inf if Y.hi is None else Y.hi
    if cut == _DIAG:
        return e
    n0, n1, _, _ = q.numerators
    if isinstance(e, float):
        return Fraction(-n1, n0) if n0 else -e
    a, b = _affine(q, e)
    if a:
        return Fraction(-b, a)
    if b == 0:
        return e                        # q = c0 (x - e)(y - e): the line y = e
    return -_sign(b) * _sign(n0) * side * math.inf


def _finite(v):
    """An exact end: the value, or None where it is infinite."""
    return None if isinstance(v, float) else v


class SignCells:
    """The cylindrical decomposition of one box (see the comment above).
    `crit` are the critical x-values, `slabs[i]` the fibre pieces over a
    rational x `xs[i]` of the i-th slab, and `members[n]` the run of
    (slab, sign pair) pieces of cell n.  Cells are ordered by sign pair,
    then by the x of their witness; `cell_of` maps a piece to its cell."""

    def __init__(self, spec: "AnsatzSpec"):
        self.q, self.X, self.Y = spec.q, spec.x_interval, spec.y_interval
        # {x = y} leaves the box at the y-ends; then the critical values of q
        ends_y = [t for t in (self.Y.lo, self.Y.hi) if t is not None]
        self.crit = _sorted_inside(
            ends_y + _graph_critical_values(self.q, self.Y), self.X)
        self.ends = [self.X.lo] + self.crit + [self.X.hi]
        self.xs = [_rational_between(a, b) for a, b in zip(self.ends, self.ends[1:])]
        self.slabs = [_fibre(self.q, self.Y, x) for x in self.xs]
        self.walls = [_fibre(self.q, self.Y, c) for c in self.crit]
        runs, last = [], {}
        for i, (slab, wall) in enumerate(zip(self.slabs, [()] + self.walls)):
            joined = {p[0] for p in wall} & last.keys()
            last = {s: last[s] if s in joined else [] for s, *_ in slab}
            for s, run in last.items():
                run.append((i, s))
            runs += [run for run in last.values() if len(run) == 1]
        self.members = sorted(runs, key=lambda ks: (ks[0][1], self.witness(ks)[0]))
        self.cell_of = {k: n for n, ks in enumerate(self.members) for k in ks}

    def witness(self, keys) -> Tuple[Fraction, Fraction]:
        """A rational point of the cell's middle slab piece."""
        i, s = keys[len(keys) // 2]
        return self.xs[i], next(p[3] for p in self.slabs[i] if p[0] == s)

    def cell_at(self, x: Fraction, y: Fraction) -> Optional[int]:
        """The cell holding a rational (or float, read exactly) point of the
        open box; None on a fold."""
        x, y = rat(x), rat(y)
        a, b = _affine(self.q, x)
        m, n = y.numerator, y.denominator
        s = (_sign(x.numerator * n - m * x.denominator), _sign(a * m + b * n))
        return self.cell_of.get((sum(_cmp(c, x) < 0 for c in self.crit), s))

    @cached_property
    def _crit_floats(self) -> List[float]:
        """The critical values as floats, converted on first use."""
        return [float(c) for c in self.crit]

    def slab_cell(self, x: float, pair: Tuple[int, int]) -> Optional[int]:
        """The cell of sign pair `pair` in the slab holding the float x (the
        slab left of a wall for a point on it); None when that slab has no
        piece of the pair."""
        return self.cell_of.get((bisect_left(self._crit_floats, x), pair))

    # -- the closure of each cell ----------------------------------------
    def _end_pieces(self, i: int, e, side: int):
        """(cell, lower limit, upper limit) of the pieces of slab i as x tends
        to its end e (None: the infinite end on that side)."""
        if e is None:
            e = -side * math.inf
        return [(self.cell_of[(i, s)], _limit(self.q, self.Y, lo, e, side),
                 _limit(self.q, self.Y, hi, e, side))
                for s, lo, hi, _ in self.slabs[i]]

    def closure(self):
        """Per cell: the box edges (axis, gamma) its closure meets along a
        segment, the box corners in it, and its folds.  A fold is
        (sign, vertical, base): `vertical` marks the line x = r of a line
        pair {q = 0}, and `base` is a rational point of the fold strictly
        inside the box, next to the cell.  Edges and corners come in
        first-seen order, folds in the order ('+', False), ('-', True),
        ('-', False).  Edges and corners are collected by end index (one
        index for OO at both ends), so no Fraction is hashed."""
        X, Y = self.X, self.Y
        n = len(self.members)
        edges = [{} for _ in range(n)]
        corners = [{} for _ in range(n)]
        ylo = -math.inf if Y.lo is None else Y.lo
        yhi = math.inf if Y.hi is None else Y.hi
        gy = Y.endpoints_proj()
        gx = X.endpoints_proj()
        jx = (0, 0 if gx[1] is gx[0] else 1)
        jy = (0, 0 if gy[1] is gy[0] else 1)
        for j, e, i, side in ((jx[0], X.lo, 0, 1),
                              (jx[1], X.hi, len(self.slabs) - 1, -1)):
            for cell, lo, hi in self._end_pieces(i, e, side):
                if lo < hi:
                    edges[cell]["X", j] = None
                if lo == ylo:
                    corners[cell][j, jy[0]] = None
                if hi == yhi:
                    corners[cell][j, jy[1]] = None
        for k, j in ((0, jy[0]), (-1, jy[1])):
            for i, slab in enumerate(self.slabs):
                edges[self.cell_of[(i, slab[k][0])]]["Y", j] = None
        folds = [{} for _ in range(n)]
        for i, slab in enumerate(self.slabs):
            x = self.xs[i]
            for s, lo, hi, _ in slab:
                for cut in {lo, hi} & {_DIAG, _FOLD}:
                    # the base sits over the first slab where the fold bounds the cell
                    folds[self.cell_of[(i, s)]].setdefault(
                        (cut, False), (x, x if cut == _DIAG else _involution(self.q, x)))
        for j, c in enumerate(self.crit):
            if not self.walls[j]:
                # a vertical line of {q = 0}: the wall through the double root
                for i, side in ((j, -1), (j + 1, 1)):
                    for cell, lo, hi in self._end_pieces(i, c, side):
                        if lo < hi:
                            folds[cell][_FOLD, True] = (
                                c, _rational_between(_finite(lo), _finite(hi)))
        ends = {"X": gx, "Y": gy}
        return [(tuple((axis, ends[axis][j]) for axis, j in edges[k]),
                 tuple((gx[i], gy[j]) for i, j in corners[k]),
                 tuple((s, v, folds[k][s, v])
                       for s, v in ((_DIAG, False), (_FOLD, True), (_FOLD, False))
                       if (s, v) in folds[k]))
                for k in range(n)]

    # -- the zero locus of another quadratic --------------------------------
    def locus_points(self, p: Quadratic, cell: int) -> List[Tuple[Fraction, Fraction]]:
        """Rational points of {p = 0} inside the open cell: at most one on the
        line x = r when p = d0 (z - r)^2, then at most one on the involution
        graph of p.  Between consecutive critical values of p the graph
        stays in one cell or off the box, so one rational x in each gap
        samples every arc of it."""
        X, Y = self.X, self.Y
        r = p.double_root()
        line = []
        if r is not None and r is not OO and _inside(X, r):
            line = [(r, y) for *_, y in _fibre(self.q, Y, r)]
        ends = [X.lo] + _sorted_inside(_graph_critical_values(p, Y, self.q), X) + [X.hi]
        graph = []
        for a, b in zip(ends, ends[1:]):
            x = _rational_between(a, b)
            y = _involution(p, x)
            if y is not None and _inside(Y, y):
                graph.append((x, y))
        hits = (next((pt for pt in pts if self.cell_at(*pt) == cell), None)
                for pts in (line, graph))
        return [pt for pt in hits if pt is not None]


# ---------------------------------------------------------------------------
# validation into cells
# ---------------------------------------------------------------------------

class BoxComponent(Record, hidden=("cells", "index", "shared")):
    """One cell: a connected component of the open box minus the folds
    {x = y} and {q = 0}, found exactly by `SignCells`.

    On the cell, x - y has the sign sign_xy and q(x, y) the sign sign_q.
    One sign pair can hold several cells.  `witness` is a rational point
    inside the cell.  What bounds it is `edges` (the distinct box edges
    (axis, gamma) its closure meets along a segment), `corners` (the box
    corners in its closure, as projective pairs) and `folds` (one
    (sign, vertical, base) per fold class next to it; see
    `SignCells.closure`)."""

    x_range: Interval
    y_range: Interval
    sign_xy: int
    sign_q: int
    q: Quadratic
    witness: Tuple[Fraction, Fraction]
    edges: Tuple[Tuple[str, ProjPoint], ...]
    corners: Tuple[Tuple[ProjPoint, ProjPoint], ...]
    folds: Tuple[Tuple[str, bool, Tuple[Fraction, Fraction]], ...]
    cells: SignCells
    index: int
    shared: bool        # sign pair not unique

    def contains(self, x: float, y: float) -> bool:
        if not (self.x_range.contains(x) and self.y_range.contains(y)):
            return False
        if (1 if x - y > 0 else -1 if x - y < 0 else 0) != self.sign_xy:
            return False
        qv = self.q.polarize(x, y)
        if (1 if qv > 0 else -1 if qv < 0 else 0) != self.sign_q:
            return False
        return (not self.shared
                or self.cells.slab_cell(x, (self.sign_xy, self.sign_q)) == self.index)

    def sample_points(self, n: int = 12) -> List[Tuple[float, float]]:
        """The points of the 3n x 3n sample grid that lie in the cell (x
        outer, y inner), thinned by a stride to about n^2 of them; the
        witness alone when the grid misses the cell.

        The grid is walked column by column with the float tests of
        `contains`.  On a column the cell's y-samples are one run: it ends
        at y = x, found by bisection (for floats x - y > 0 iff x > y), and
        at the sign change of q(x, .), which is affine in y, found by
        bisecting for its root and moving the split with pointwise sign
        tests.  Only on a column where q(x, .) is zero up to rounding (the
        fold line x = r of a double root r of q) is every point tested."""
        xs, ys = self.x_range.samples(3 * n), self.y_range.samples(3 * n)
        (xlo, xhi), (ylo, yhi) = self.x_range.bounds, self.y_range.bounds
        y0, y1 = bisect_right(ys, ylo), bisect_left(ys, yhi)
        f0, f1, f2 = self.q.floats
        sxy, sq = self.sign_xy, self.sign_q

        def holds(x, y):
            qv = f0 * x * y + f1 * (x + y) + f2
            return (1 if qv > 0 else -1 if qv < 0 else 0) == sq

        runs = []          # (x, indices into ys of the cell's points)
        for x in xs[bisect_right(xs, xlo):bisect_left(xs, xhi)]:
            if self.shared and self.cells.slab_cell(x, (sxy, sq)) != self.index:
                continue
            if sxy > 0:
                j0, j1 = y0, min(y1, bisect_left(ys, x))
            else:
                j0, j1 = max(y0, bisect_right(ys, x)), y1
            a, b = f0 * x + f1, f1 * x + f2         # q(x, y) = a y + b
            if (abs(a) <= 1e-9 * (abs(f0 * x) + abs(f1))
                    and abs(b) <= 1e-9 * (abs(f1 * x) + abs(f2))):
                runs.append((x, [j for j in range(j0, j1) if holds(x, ys[j])]))
                continue
            # the cell is the part of the run on one side of the root of q
            suffix = (a >= 0) == (sq > 0)
            k = bisect_left(ys, -b / a if a else -math.copysign(math.inf, b), j0, j1)
            while k > j0 and holds(x, ys[k - 1]) == suffix:
                k -= 1
            while k < j1 and holds(x, ys[k]) != suffix:
                k += 1
            runs.append((x, range(k, j1) if suffix else range(j0, k)))
        total = sum(len(js) for _, js in runs)
        if not total:
            # the grid misses a thin cell; its witness stands in
            return [(float(self.witness[0]), float(self.witness[1]))]
        stride = max(1, total // (n * n))
        pts, seen = [], 0
        for x, js in runs:
            pts += [(x, ys[j]) for j in js[-seen % stride::stride]]
            seen += len(js)
        return pts


def _positivity_check(P: Poly, iv: Interval, name: str):
    """A > 0 on the open interval, decided on the integer numerators of P by
    an exact Sturm root count (`Poly.count_roots`) plus a sign sample
    (`Poly.sign`): a root of any multiplicity inside breaks strict
    positivity."""
    if P.is_zero():
        raise ValidationError(f"{name} is identically zero")
    if P.count_roots(iv.lo, iv.hi) > 0:
        raise ValidationError(f"{name} has a zero inside the interval {iv}")
    # no root inside, so the sign at one interior point is the sign throughout
    if P.sign(_rational_between(iv.lo, iv.hi)) <= 0:
        raise ValidationError(f"{name} is not positive on {iv}")


def validate(spec: AnsatzSpec) -> List[BoxComponent]:
    """Check positivity of A and B, and return the cells of the box, one
    per connected component of the open box minus the folds, sorted by
    sign pair and then by the x of their witness."""
    _positivity_check(spec.A, spec.x_interval, "A")
    _positivity_check(spec.B, spec.y_interval, "B")
    cells = SignCells(spec)
    pairs = [keys[0][1] for keys in cells.members]
    return [BoxComponent(spec.x_interval, spec.y_interval, *pairs[n], spec.q,
                         cells.witness(keys), *bound, cells, n, pairs.count(pairs[n]) > 1)
            for n, (keys, bound) in enumerate(zip(cells.members, cells.closure()))]


# ---------------------------------------------------------------------------
# pointwise scalars
# ---------------------------------------------------------------------------

def conformal_factor(spec: AnsatzSpec, x, y):
    """f(x, y) = q(x, y) / (x - y); g+ = f^-1 g0 and g- = f g0."""
    num = spec.q.polarize(x, y)
    den = x - y
    if den == 0:
        raise SingularEvaluation("the conformal factor has a pole on the fold x = y")
    return num / den
