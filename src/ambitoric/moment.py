"""Moment maps, fold conics, tangent lines and lattice identifications.

The moment coordinates are Hamiltonians of the torus generators
(d/dt1, d/dt2).  With tau_i the torus basis quadratics of the spec and
sigma_i the companion quadratics solving the cross-product equation
sigma_i x q = -tau_i (see ansatz.sigma_from_tau),

    mu_i^+ = -sigma_i(x, y) / q(x, y)
    mu_i^- = -tau_i(x, y) / (x - y)

which reproduces the classical displayed formulas in all three canonical
gauges.  Pairings of quadratics p _|_ q with the moment maps are realized
by per-sign coordinate vectors `identify_t(spec, p, sign)`; the two signs
differ by a reflection of the second basis direction, which is why a
single global convention (the '+' one, fixed by identify_t(1) = (1, 0) in
the hyperbolic gauge) is used for reporting while lattice-membership tests
record both the vector and its negation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, hypot
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .quadratics import (
    ProjPoint,
    Quadratic,
    Record,
    _cross_ints,
    _inner_ints,
    _inv,
    _mul,
    _null_ints,
    _over_common,
    _polar_ints,
    coordinate_jets,
    coordinates,
    dual_frame,
    inner,
    is_exact,
    polar_jet,
    proj_ints,
    rat,
    transversal,
)
from .ansatz import AnsatzSpec, LatticeMatrix, lattice_coordinates, lattice_inverse


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
    row, kept on the spec instance (`AnsatzSpec.moment_floats`)."""
    s1, s2 = _basis(spec, sign)
    coeffs = spec.moment_floats[sign] = spec.q.floats + s1.floats + s2.floats
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


def moment_pairing(spec: AnsatzSpec, sign: str, p: Quadratic, x, y):
    """<mu^sign(x,y), identify_t(p, sign)>; equals lambda - p(x,y)/q(x,y)
    for '+', with lambda the q-coefficient of p in the basis (sigma1,
    sigma2, q) (zero unless q is parabolic), and -p(x,y)/(x-y) for '-'."""
    v = identify_t(spec, p, sign)
    mp = moment_map(spec, sign, x, y)
    return v[0] * mp.mu1 + v[1] * mp.mu2


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
    `_compatible_coordinates` are integer inner products.
    (b1, b2, q) spans all quadratics except for '-' with parabolic q, where
    q lies in span(tau) = q-perp; the frame then takes a transversal u of q
    in place of q, and every p of q-perp has u-coordinate 0."""
    frame = spec.moment_frames.get(sign)
    if frame is None:
        b1, b2 = _basis(spec, sign)
        dual = dual_frame(b1, b2, spec.q) or dual_frame(b1, b2, transversal(spec.q))
        conic = _fold_conic(spec, sign, dual[0])
        twice = adj = None
        if conic.matrix is not None:
            twice = tuple(tuple(int(2 * v) for v in row) for row in conic.matrix)
            adj = _adjugate(twice)
        frame = spec.moment_frames[sign] = _Frame(dual, conic, twice, adj)
    return frame


def _coordinates(spec: AnsatzSpec, p: Quadratic, sign: str):
    """(v1, v2, lambda) with p = v1 b1 + v2 b2 + lambda q for the basis b of
    mu^sign, from the frame; lambda is 0 for '-' with parabolic q."""
    if inner(p, spec.q) != 0:
        raise MomentError("p is not orthogonal to q")
    return coordinates(p, _frame(spec, sign).dual)


def identify_t(spec: AnsatzSpec, p: Quadratic, sign: str = "+") -> Tuple[Fraction, Fraction]:
    """Coordinates (v1, v2) of the q-orthogonal quadratic p in the torus
    basis, b = sigma for sign '+' and b = tau for sign '-'.  The part
    lambda * q of p that span(b) misses only shifts mu+ by a constant."""
    v1, v2, _ = _coordinates(spec, p, sign)
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


def _conic(Q) -> Conic:
    """Conic of the symmetric matrix Q, scaled to the primitive integer
    vector of its coefficients (mu1^2, mu1 mu2, mu2^2, mu1, mu2, 1)."""
    a, b, c, d, e, f = map(Fraction, _primitive(_over_common(
        (Q[0][0], 2 * Q[0][1], Q[1][1], 2 * Q[0][2], 2 * Q[1][2], Q[2][2]))[0]))
    return Conic(matrix=((a, b / 2, d / 2), (b / 2, c, e / 2), (d / 2, e / 2, f)))


def _line(n1, n2, offset, frame: Optional[_Frame] = None) -> LineInTstar:
    """The line {n1 mu1 + n2 mu2 = offset} of rationals (`_line_ints`)."""
    return _line_ints(_over_common((n1, n2, -offset))[0], frame)


def _line_ints(l: Sequence[int], frame: Optional[_Frame] = None) -> LineInTstar:
    """The line {n1 mu1 + n2 mu2 = c} of an integer multiple l of
    (n1, n2, -c), with primitive integers formed once, and its tangency
    certificate against the fold conic Q of the moment frame `frame`, if
    one is given and Q is no point pair.  With n . mu = c, a point P of the
    line and its direction D = (-n2, n1, 0), the line meets Q where
    (P + t D)^T Q (P + t D) = 0: leading coefficient D^T Q D, discriminant
    4 ((P^T Q D)^2 - (P^T Q P)(D^T Q D)).  By
    (u^T Q u)(v^T Q v) - (u^T Q v)^2 = (u x v)^T adj(Q) (u x v) and
    P x D = (-n1, -n2, c), that is -l^T adj(2Q) l for l = (n1, n2, -c).
    Both are read off the integers of l and of 2Q and adj(2Q) (`_frame`)."""
    n1, n2, c = _primitive(l)
    tangency = None
    if frame is not None and frame.adjugate is not None:
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


def _fold_conic(spec: AnsatzSpec, sign: str, duals) -> Conic:
    """The image conic of the fold Z_sign under mu^sign, in closed form,
    from the dual vectors of the frame.

    With l = (z - x)(z - y), every quadratic p has p(x, y) = -<p, l>, and
    <l, l> = (x - y)^2 / 2.  On Z+ = {x = y} the quadratic l is null; writing
    l in the basis b = (sigma1, sigma2, q) gives w^T G^-1 w = 0 for
    w = (-mu1, -mu2, 1) and G the Gram matrix of b; G^-1 is proportional
    to the Gram matrix of the dual vectors (b2 x b3, b3 x b1, b1 x b2) of
    the frame, which `duals` holds up to a positive factor.
    On Z- = {q(x, y) = 0} l lies in q-perp = span(tau); with G the Gram
    matrix of tau this gives mu^T G^-1 mu = 1/2.
    For parabolic q, Z- is the line pair x = r, y = r at the double root r
    of q (OO included), and its '-' image the point pair p, -p: p is the
    image of the edge {x = r}, and mu- is odd under x <-> y."""
    if sign == "+":
        H = [[_inner_ints(u, v) for v in duals] for u in duals]
        D = (-1, -1, 1)
        return _conic([[D[i] * D[j] * H[i][j] for j in range(3)] for i in range(3)])
    r = spec.q.double_root()
    if r is not None:
        p = _edge_image(spec, sign, "X", r)
        return Conic(matrix=None, points=(p, (-p[0], -p[1])))
    tau = _basis(spec, sign)
    (g11, g12), (_, g22) = [[inner(u, v) for v in tau] for u in tau]
    det = g11 * g22 - g12 * g12
    zero = Fraction(0)
    # mu^T adj(G) mu = det / 2
    return _conic([[g22, -g12, zero], [-g12, g11, zero], [zero, zero, -det / 2]])


def _compatible_coordinates(spec: AnsatzSpec, a: int, b: int) -> Optional[Tuple[int, int, int]]:
    """(u1, u2, k) with identify_t((b z - a)^2 x q, '-') = (u1 / k, u2 / k),
    or None where (a : b) is the double root of q and that product is 0.
    It is `_cross_ints` of (b^2, -ab, a^2) and q's numerators over 2 dq, so
    u is its inner products with the '-' dual triples, over 2 dq e num/den."""
    q = spec.q.numerators
    c = _cross_ints(_null_ints(a, b), q)
    if not any(c):
        return None
    ns, e, num, den = _frame(spec, "-").dual
    return _inner_ints(c, ns[0]) * den, _inner_ints(c, ns[1]) * den, 2 * q[3] * e * num


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
    coords = _compatible_coordinates(spec, a, b)
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


def p_image_line(spec: AnsatzSpec, sign: str, p: Quadratic) -> LineInTstar:
    """Image line of the vanishing locus {p(x,y) = 0} for p _|_ q.  Its
    normal is identify_t(spec, p, sign), and by moment_pairing the pairing
    equals lambda on the locus (lambda = 0 for '-')."""
    if p.c0 == 0 and p.c1 == 0:
        raise MomentError("constant p has empty vanishing locus")
    v1, v2, lam = _coordinates(spec, p, sign)
    if v1 == 0 and v2 == 0:
        raise MomentError("p is a multiple of q: {p = 0} is the pole set of mu+")
    return _line(v1, v2, lam)


# ---------------------------------------------------------------------------
# polygons, Delzant condition, convexity
# ---------------------------------------------------------------------------

class Polygon(Record):
    """Convex polygon in t*: ordered vertices with per-edge inward normals;
    edge i joins vertex i to vertex i+1."""

    vertices: Tuple[Tuple[float, float], ...]
    normals: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n != len(self.normals) or n < 3:
            raise ValueError("need matching vertex and normal counts, >= 3")

    def edge_check(self) -> bool:
        """Normals are orthogonal to their edges (to 1e-9) and point inward."""
        n = len(self.vertices)
        cx = sum(v[0] for v in self.vertices) / n
        cy = sum(v[1] for v in self.vertices) / n
        for i in range(n):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % n]
            nx, ny = float(self.normals[i][0]), float(self.normals[i][1])
            if abs(nx * (bx - ax) + ny * (by - ay)) > 1e-9 * max(1.0, hypot(bx - ax, by - ay)):
                return False
            if nx * (cx - ax) + ny * (cy - ay) <= 0:
                return False
        return True


class CornerVerdict(Record):
    index: int
    normals: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]
    determinant: Optional[Fraction]
    ok: bool


def delzant_check(polygon: Polygon, lattice: LatticeMatrix) -> List[CornerVerdict]:
    """Each adjacent normal pair, expressed in the lattice basis, must be an
    integer matrix of determinant +-1."""
    inverse = lattice_inverse([[rat(v) for v in row] for row in lattice])
    out = []
    n = len(polygon.normals)
    for i in range(n):
        n1 = polygon.normals[i]
        n2 = polygon.normals[(i + 1) % n]
        w1, w2 = lattice_coordinates(inverse, n1), lattice_coordinates(inverse, n2)
        integral = all(w.denominator == 1 for w in (*w1, *w2))
        dd = w1[0] * w2[1] - w1[1] * w2[0] if integral else None
        ok = integral and dd in (1, -1)
        out.append(CornerVerdict(index=i, normals=(tuple(n1), tuple(n2)),
                                 determinant=dd, ok=ok))
    return out


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
    k = min(5, len(pts) - 1)
    knn = tree.query(pts, k=k + 1)[0][:, 1:]
    # per-sample local spacing copes with strongly nonuniform images; the
    # distances come sorted, so the median of 5 is the third
    local = knn[:, 2] if k == 5 else np.median(knn, axis=1)
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


def moment_differential(spec: AnsatzSpec, sign: str, K: Sequence[Fraction],
                        x: float, y: float) -> tuple:
    """d mu_K at (x, y) in the frame (dx, dy, dt1, dt2): the first-order
    part of the jet of mu_K = K . mu^sign = -N(x,y)/D(x,y), with the
    numerator N and the denominator D of moment_map."""
    b1, b2 = _basis(spec, sign)
    N = b1.scaled(K[0]).plus(b2.scaled(K[1]))
    X, Y = coordinate_jets(x, y)
    exact = is_exact(X[0], Y[0])
    D = (polar_jet(spec.q.coeffs() if exact else spec.q.floats, X, Y) if sign == "+"
         else (X[0] - Y[0], 1, -1, 0, 0, 0))
    mu = _mul(polar_jet(N.coeffs() if exact else N.floats, X, Y), _inv(D))
    z = type(mu[0])(0)
    return (-mu[1], -mu[2], z, z)


def hamiltonian_residual(spec: AnsatzSpec, sign: str, K: Sequence[Fraction],
                         x: float, y: float, omega) -> float:
    """|d mu_K + K -| omega| / max(|d mu_K|, |K -| omega|) at (x, y), in the
    max-norm, where omega is the 4x4 omega^sign at (x, y) and
    (K -| omega)_b = K^a omega_ab.  Relative, because both terms grow
    without bound towards the folds."""
    k1, k2 = float(K[0]), float(K[1])
    Kw = [k1 * u + k2 * v for u, v in zip(omega[2], omega[3])]
    dmu = moment_differential(spec, sign, K, x, y)
    return float(max(abs(u + v) for u, v in zip(dmu, Kw))
                 / max(abs(u) for u in (*dmu, *Kw)))
