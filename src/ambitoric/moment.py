"""Moment maps, fold conics, tangent lines, lattice identifications, and
the corner determinants of a moment polygon (`delzant_check`).

The moment coordinates are Hamiltonians of the torus generators
(d/dt1, d/dt2).  With tau_i the torus basis quadratics of the spec and
sigma_i the companion quadratics solving the cross-product equation
sigma_i x q = -tau_i (see ansatz.sigma_from_tau),

    mu_i^+ = -sigma_i(x, y) / q(x, y)
    mu_i^- = -tau_i(x, y) / (x - y)

which reproduces the classical displayed formulas in all three canonical
gauges.  A quadratic p _|_ q pairs with mu^sign through its coordinates
`identify_t(spec, p, sign)` in the torus basis, sigma for '+' and tau for
'-'.  The compatible edge normals of `boundary.edge_status` are read in the
'-' frame, `AnsatzSpec.tau_dual`, each with one lattice-membership flag.

The differential d mu of a moment map, and the Hamiltonian residual of
`check` built on it, live with the jets in `tensors`
(`tensors.moment_differential`), so `check` does not load this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .quadratics import (
    ProjPoint,
    Quadratic,
    Record,
    _inner_ints,
    _null_ints,
    _polar_ints,
    compatible_coordinates,
    coordinates,
    dual_frame,
    inner,
    is_exact,
    proj_ints,
    rat,
    to_float,
)
from .ansatz import AnsatzSpec, LatticeMatrix, _lattice_numerators, lattice_inverse


class MomentError(ValueError):
    pass


class MomentPoint(NamedTuple):
    """A point of the moment image; an immutable, hashable pair."""

    mu1: float
    mu2: float


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------

def _basis(spec: AnsatzSpec, sign: str) -> Tuple[Quadratic, Quadratic]:
    """The numerator basis of mu^sign: sigma for '+', tau for '-'."""
    if sign == "+":
        return spec.sigma_basis
    if sign == "-":
        return spec.tau_basis
    raise ValueError("sign must be '+' or '-'")


def _moment_floats(spec: AnsatzSpec, sign: str) -> tuple:
    """The float coefficients of q and of the basis of mu^sign, nine in a
    row, kept on the spec instance (`AnsatzSpec.moment_floats`).  The spec
    does not hold sigma, so a sigma coefficient that no float holds is
    named as one of sigma, not as a value of the spec."""
    s1, s2 = _basis(spec, sign)
    what = "a coefficient of sigma (sigma x q = -tau)" if sign == "+" else "a value"
    coeffs = spec.moment_floats[sign] = spec.q.floats + tuple(
        to_float(c, what) for c in s1.coeffs() + s2.coeffs())
    return coeffs


def moment_map(spec: AnsatzSpec, sign: str, x, y) -> MomentPoint:
    """mu^sign at (x, y), in the domain `is_exact` picks.  Numerators and
    denominator are polarizations in the order of operations of
    `Quadratic.polarize`.  At a float point the coefficients come from
    `_moment_floats`, one tuple per spec and sign."""
    if type(x) is float and type(y) is float:
        coeffs = spec.moment_floats.get(sign) or _moment_floats(spec, sign)
    elif is_exact(x, y):
        s1, s2 = _basis(spec, sign)
        coeffs = spec.q.coeffs() + s1.coeffs() + s2.coeffs()
    else:
        x, y = float(x), float(y)
        coeffs = spec.moment_floats.get(sign) or _moment_floats(spec, sign)
    c0, c1, c2, a0, a1, a2, b0, b1, b2 = coeffs
    s = x + y
    den = c0 * x * y + c1 * s + c2 if sign == "+" else x - y
    if den == 0:
        pole = "q(x, y)" if sign == "+" else "x - y"
        raise MomentError(f"mu{sign} pole: {pole} = 0")
    return tuple.__new__(MomentPoint, (-(a0 * x * y + a1 * s + a2) / den,
                                       -(b0 * x * y + b1 * s + b2) / den))


class _Frame(NamedTuple):
    """The moment frame of a spec and sign (`_frame`)."""

    dual: tuple                     # `dual_frame` of (b1, b2, q) or (b1, b2, u)
    conic: "Conic"
    twice: Optional[tuple]          # 2 conic.matrix in ints, None for a point pair
    adjugate: Optional[tuple]       # of twice, in ints


def _frame(spec: AnsatzSpec, sign: str) -> _Frame:
    """The moment frame of mu^sign, built on first use and kept on the spec
    instance (`AnsatzSpec.moment_frames`), so every exact moment call reads
    it without hashing the spec.  It holds the `dual_frame` of (b1, b2, q)
    for the basis b of mu^sign, the fold conic Q, and 2Q with its adjugate
    as integer matrices: the conic is scaled to primitive integer
    coefficients, so 2Q is integral, and `_line_ints` reads these two.
    The dual frame holds integer triples over one denominator, so the
    edge lines and compatible normals of `_edge_image` and
    `quadratics.compatible_coordinates` are integer inner products.
    (b1, b2, q) spans all quadratics except for '-' with parabolic q, where
    q lies in span(tau) = q-perp; the '-' frame reads `AnsatzSpec.tau_dual`,
    which then takes a transversal u of q in place of q."""
    frame = spec.moment_frames.get(sign)
    if frame is None:
        b1, b2 = _basis(spec, sign)
        dual = dual_frame(b1, b2, spec.q) if sign == "+" else spec.tau_dual
        conic = _fold_conic(spec, sign, dual)
        twice = adj = None
        if conic.matrix is not None:
            twice = tuple(tuple(int(2 * v) for v in row) for row in conic.matrix)
            adj = _adjugate(twice)
        frame = spec.moment_frames[sign] = _Frame(dual, conic, twice, adj)
    return frame


def identify_t(spec: AnsatzSpec, p: Quadratic, sign: str = "+") -> Tuple[Fraction, Fraction]:
    """Coordinates (v1, v2) of the q-orthogonal quadratic p in the torus
    basis, b = sigma for sign '+' and b = tau for sign '-', read off the
    frame: p = v1 b1 + v2 b2 + lambda q (lambda is 0 for '-' with parabolic
    q).  The part lambda * q of p that span(b) misses only shifts mu+ by a
    constant."""
    if inner(p, spec.q) != 0:
        raise MomentError("p is not orthogonal to q")
    v1, v2, _ = coordinates(p, _frame(spec, sign).dual)
    return (v1, v2)


# ---------------------------------------------------------------------------
# conics and lines
# ---------------------------------------------------------------------------

def _primitive(ints: Sequence[int]) -> Tuple[int, ...]:
    """Scale an integer vector to the primitive one, first nonzero > 0."""
    g = gcd(*ints)
    if g:
        first = next(v for v in ints if v != 0)
        g = g if first > 0 else -g
        ints = [v // g for v in ints]
    return tuple(ints)


class Conic(Record):
    """Symmetric 3x3 coefficient matrix Q in homogeneous (mu1, mu2, 1);
    a point (m1, m2) lies on the conic iff v^T Q v = 0 for v = (m1, m2, 1).
    A degenerate image (a point pair) has matrix None and carries the
    explicit point list."""

    matrix: Optional[Tuple[Tuple[Fraction, ...], ...]]
    points: Tuple[Tuple[Fraction, Fraction], ...] = ()


class TangencyCertificate(Record):
    """Double-root certificate: the line substituted into the conic gives a
    quadratic with the recorded leading coefficient and discriminant."""

    leading: Fraction
    discriminant: Fraction

    @property
    def ok(self) -> bool:
        # leading 0 with zero discriminant means the double intersection
        # sits at infinity (the line is an asymptote of the conic)
        return self.discriminant == 0


class LineInTstar(Record):
    """Line {normal . mu = offset}; the normal is stored primitive-integer
    whenever the data is rational."""

    normal: Tuple[Fraction, Fraction]
    offset: Fraction
    tangency: Optional[TangencyCertificate] = None
    degenerate_point: Optional[Tuple[Fraction, Fraction]] = None


def _line_ints(l: Sequence[int], frame: _Frame) -> LineInTstar:
    """The line {n1 mu1 + n2 mu2 = c} of an integer multiple l of
    (n1, n2, -c), with primitive integers formed once, and its tangency
    certificate against the fold conic Q of the moment frame `frame`,
    unless Q is a point pair.  With n . mu = c, a point P of the
    line and its direction D = (-n2, n1, 0), the line meets Q where
    (P + t D)^T Q (P + t D) = 0: leading coefficient D^T Q D, discriminant
    4 ((P^T Q D)^2 - (P^T Q P)(D^T Q D)).  By
    (u^T Q u)(v^T Q v) - (u^T Q v)^2 = (u x v)^T adj(Q) (u x v) and
    P x D = (-n1, -n2, c), that is -l^T adj(2Q) l for l = (n1, n2, -c).
    Both are read off the integers of l and of 2Q and adj(2Q) (`_frame`)."""
    n1, n2, c = _primitive(l)
    tangency = None
    if frame.adjugate is not None:
        (q00, q01, _), (_, q11, _), _ = frame.twice
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = frame.adjugate
        lal = (a00 * n1 * n1 + a11 * n2 * n2 + a22 * c * c
               + 2 * (a01 * n1 * n2 + a02 * n1 * c + a12 * n2 * c))
        tangency = TangencyCertificate(
            leading=Fraction(q00 * n2 * n2 - 2 * q01 * n1 * n2 + q11 * n1 * n1, 2),
            discriminant=Fraction(-lal))
    return LineInTstar(normal=(Fraction(n1), Fraction(n2)), offset=Fraction(-c),
                       tangency=tangency)


def _adjugate(Q):
    """The adjugate of the symmetric 3x3 matrix Q."""
    (a, b, d), (_, c, e), (_, _, f) = Q
    return ((c * f - e * e, d * e - b * f, b * e - c * d),
            (d * e - b * f, a * f - d * d, b * d - a * e),
            (b * e - c * d, b * d - a * e, a * c - b * b))


def fold_conic(spec: AnsatzSpec, sign: str) -> Conic:
    """The image conic of the fold Z_sign under mu^sign (`_fold_conic`),
    built once per spec and sign with the moment frame (`_frame`), which is
    kept on the spec instance; every call returns the same object."""
    return _frame(spec, sign).conic


def _fold_conic(spec: AnsatzSpec, sign: str, frame) -> Conic:
    """The image conic of the fold Z_sign under mu^sign, in closed form,
    from the Gram matrix H of the frame's dual vectors, scaled to primitive
    integer coefficients of (mu1^2, mu1 mu2, mu2^2, mu1, mu2, 1).

    With l = (z - x)(z - y), every quadratic p has p(x, y) = -<p, l>, and
    <l, l> = (x - y)^2 / 2.  For a basis with Gram matrix G and determinant
    D = num / den, the dual vectors have Gram matrix D^2 G^-1; the frame
    holds them as integer triples over e, so H = e^2 D^2 G^-1 is integral.
    On Z+ = {x = y} l is null: in the basis (sigma1, sigma2, q), w^T H w = 0
    for w = (-mu1, -mu2, 1).  On Z- = {q(x, y) = 0} l lies in q-perp =
    span(tau), and H mixes no tau with q: mu^T G^-1 mu = 1/2 on span(tau)
    reads 2 d^2 mu^T H mu = num^2, with den = d e.  The '+' dual vectors
    are (-tau2, tau1, sigma1 x sigma2) up to one factor (sigma_i x q =
    -tau_i), so the two conics share their quadratic part.
    For parabolic q, Z- is the line pair x = r, y = r at the double root r
    of q (OO included), and its '-' image the point pair p, -p: p is the
    image of the edge {x = r}, and mu- is odd under x <-> y."""
    if sign == "-":
        r = spec.q.double_root()
        if r is not None:
            p = _edge_image(spec, sign, "X", r)
            return Conic(matrix=None, points=(p, (-p[0], -p[1])))
    ns, e, num, den = frame
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = [[_inner_ints(u, v) for v in ns] for u in ns]
    if sign == "+":
        coeffs = (h00, 2 * h01, h11, -2 * h02, -2 * h12, h22)
    else:
        k = 2 * (den // e) ** 2
        coeffs = (k * h00, 2 * k * h01, k * h11, 0, 0, -num * num)
    a, b, c, d, f, g = map(Fraction, _primitive(coeffs))
    return Conic(matrix=((a, b / 2, d / 2), (b / 2, c, f / 2), (d / 2, f / 2, g)))


def _edge_image(spec: AnsatzSpec, sign: str, axis: str, gamma: ProjPoint):
    """The image of {axis = gamma}: a line, or the point it collapses to,
    from the integer representative (a, b) of gamma and the frame."""
    a, b = proj_ints(gamma)
    if sign == "+":
        # n . mu+ = c along the edge iff n1 sigma1 + n2 sigma2 + c q is
        # orthogonal to every quadratic with root gamma, i.e. a multiple of
        # (b z - a)^2: its coordinates, up to one factor
        frame, null = _frame(spec, sign), _null_ints(a, b)
        l1, l2, l3 = (_inner_ints(null, n) for n in frame.dual[0])
        if l1 == 0 and l2 == 0:
            raise MomentError(f"mu+ has its pole along the edge {axis} = {gamma}")
        return _line_ints((l1, l2, -l3), frame)
    # mu- is antisymmetric under x <-> y, hence the axis sign
    sgn = 1 if axis == "X" else -1
    coords = compatible_coordinates(spec.q, spec.tau_dual, a, b)
    if coords is None:
        # gamma is the double root of q: the edge is a fold line, along which
        # mu-_i = -tau_i(gamma, delta) / (gamma - delta) is constant; read it
        # at delta = (-b : a)
        return tuple(Fraction(-sgn * _polar_ints(t.numerators, a, b, -b, a),
                              t.numerators[3] * (a * a + b * b))
                     for t in _basis(spec, sign))
    # n . mu- = sgn q(a, b) / 2 for n = (u1, u2) / k, times 2 dq k
    u1, u2, k = coords
    q = spec.q.numerators
    return _line_ints((2 * q[3] * u1, 2 * q[3] * u2, -sgn * _polar_ints(q, a, b, a, b) * k),
                      _frame(spec, sign))


def level_set_line(spec: AnsatzSpec, sign: str, axis: str,
                   gamma: ProjPoint) -> LineInTstar:
    """Image line of the level set {axis = gamma} with tangency certificate
    against the fold conic (None when either object is degenerate)."""
    image = _edge_image(spec, sign, axis, gamma)
    if isinstance(image, tuple):
        return LineInTstar(normal=(Fraction(0), Fraction(0)), offset=Fraction(0),
                           degenerate_point=image)
    return image


# ---------------------------------------------------------------------------
# corner determinants, convexity
# ---------------------------------------------------------------------------

def delzant_check(normals: Sequence[Tuple[Fraction, Fraction]],
                  lattice: LatticeMatrix) -> List[Optional[Fraction]]:
    """The corner determinants of a polygon with inward normals `normals`:
    for corner i, the det of normals i and i + 1 (cyclically) in the lattice
    basis, or None when either is not a lattice vector.  The corner is
    smooth iff it is +-1, and its absolute value is the orbifold order.  With
    the coordinates w / d of a normal (`ansatz._lattice_numerators`), it is
    a lattice vector iff d divides both w; the det is a Fraction over d1 d2."""
    inverse = lattice_inverse([[rat(v) for v in row] for row in lattice])
    coords = [_lattice_numerators(inverse, n) for n in normals]
    return [None if a0 % d1 or a1 % d1 or b0 % d2 or b1 % d2
            else Fraction(a0 * b1 - a1 * b0, d1 * d2)
            for (a0, a1, d1), (b0, b1, d2) in zip(coords, coords[1:] + coords[:1])]


def convexity_check(samples):
    """Decide whether the sample cloud fills its own convex hull.

    A convex moment image sampled on a grid leaves no hole: every point of
    the hull is within 2.5 local nearest-neighbour spacings of a sample.
    A folded image leaves a conic-shaped void inside the hull; the witness
    returned is a hull point far from every sample.  Collinear clouds are
    convex by convention.  samples is any iterable of pairs (mu1, mu2).

    The verdict depends on the sampling density, not on the image alone:
    the mu- image of the Kerr interior cell (-1, -1) at M = 1, alpha = 3/4
    reads non-convex at `sample_points(20)`, convex at 28, and non-convex
    at 40 and 60.  ROADMAP item 2 replaces the test by the exact side of
    the fold conic."""
    import numpy as np

    samples = list(samples)
    if len(samples) < 3:
        raise MomentError("need at least 3 samples")
    if set(map(len, samples)) != {2}:
        raise MomentError("every sample must be a pair (mu1, mu2)")
    pts = np.fromiter(chain.from_iterable(samples), float, 2 * len(samples)).reshape(-1, 2)
    # collinearity / rank test
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] < 1e-9 * max(1.0, sv[0]):
        return True, None
    from scipy.spatial import ConvexHull, cKDTree

    hull = ConvexHull(pts)
    tree = cKDTree(pts)
    # per-sample local spacing, the median distance to the 5 nearest
    # neighbours, copes with strongly nonuniform images; the distances come
    # sorted, the point itself first at 0, so that median is column 3 of
    # the 4 nearest
    k = len(pts) - 1
    local = (tree.query(pts, k=4)[0][:, 3] if k >= 5
             else np.median(tree.query(pts, k=k + 1)[0][:, 1:], axis=1))
    scale = float(np.percentile(local, 90))
    # probe grid over the hull's bounding box
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], 48)
    ys = np.linspace(lo[1], hi[1], 48)
    gx, gy = np.meshgrid(xs, ys)
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    # keep probes strictly inside the hull (margin one spacing)
    eqs = hull.equations
    inside = np.all(probes @ eqs[:, :2].T + eqs[:, 2] <= -0.5 * scale, axis=1)
    probes = probes[inside]
    if len(probes) == 0:
        return True, None
    dists, idx = tree.query(probes)
    ratio = dists / np.maximum(local[idx], 1e-300)
    worst = int(np.argmax(ratio))
    if ratio[worst] > 2.5:
        return False, MomentPoint(*probes[worst])
    return True, None
