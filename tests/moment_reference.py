"""Reference tangency certificates and coordinate solves for `moment`.

`reference_tangency` is how the tangency certificate of `moment._line` was
formed before it read the adjugate of the fold conic: it substitutes a
point P of the line and its direction D into the bilinear form of the
conic and forms the quadratic a t^2 + b t + c of (P + t D)^T Q (P + t D).

`reference_coordinates` is the fresh Cramer solve that `moment._coordinates`
made on every call before the moment frame kept the dual vectors: it builds
the three cross products again, and against a transversal of q when
(b1, b2, q) is dependent (q parabolic under '-').

`reference_edge_line` is how `moment.level_set_line` built the image of a
box edge before it read the edge off the integer representative of its
end: the Fraction solve of `reference_coordinates`, then the primitive
integer normal with its sign rule (`reference_primitive`), then
`reference_tangency`.  The Fraction formulas of `quadratics_reference`
give the null and compatible quadratics and the polarizations.

`reference_moment_map` is the body `moment.moment_map` had before float
points read one coefficient tuple per spec and sign: the basis, the
`is_exact` test and the coefficient tuples on every call.

`reference_convexity_check` is the body `moment.convexity_check` had
before it read the samples in one pass and the median of 5 sorted k-NN
distances as the third: a tuple per sample, `np.array`, and `np.median`.

`form` and `evaluate` read a conic's matrix at homogeneous vectors and at
points of the plane.

The tests hold the frame's results equal to these, exactly.
"""

import math
from fractions import Fraction

import numpy as np

import quadratics_reference as qr
from ambitoric.moment import (
    Conic,
    LineInTstar,
    MomentError,
    MomentPoint,
    TangencyCertificate,
    fold_conic,
)
from ambitoric.quadratics import Quadratic, cross, inner, is_exact, transversal


def form(conic: Conic, u, v):
    """The bilinear form u^T Q v of homogeneous 3-vectors u, v."""
    Q = conic.matrix
    return sum(Q[i][j] * u[i] * v[j] for i in range(3) for j in range(3))


def evaluate(conic: Conic, m1, m2):
    """v^T Q v at v = (m1, m2, 1), in the domain `is_exact` picks: a
    Fraction entry of Q times a float rounds as its float would."""
    v = (m1, m2, 1) if is_exact(m1, m2) else (float(m1), float(m2), 1.0)
    return form(conic, v, v)


def reference_tangency(line: LineInTstar, conic: Conic):
    if conic.matrix is None:
        return None
    n1, n2 = line.normal
    c = line.offset
    # a point P on the line and its direction D, homogeneous
    P = (c / n1, Fraction(0), Fraction(1)) if n1 != 0 else (Fraction(0), c / n2, Fraction(1))
    D = (-n2, n1, Fraction(0))
    a, b, cc = form(conic, D, D), 2 * form(conic, P, D), form(conic, P, P)
    return TangencyCertificate(leading=a, discriminant=b * b - 4 * a * cc)


def cramer(p: Quadratic, b1: Quadratic, b2: Quadratic, b3: Quadratic):
    """(v1, v2, v3) with p = v1 b1 + v2 b2 + v3 b3 from three fresh cross
    products; None when the three are linearly dependent."""
    n1 = cross(b2, b3)
    det = inner(b1, n1)
    if det == 0:
        return None
    return (inner(p, n1) / det, inner(p, cross(b3, b1)) / det,
            inner(p, cross(b1, b2)) / det)


def reference_coordinates(spec, p: Quadratic, sign: str):
    """(v1, v2, lambda) of p in the basis (b1, b2, q) of mu^sign."""
    b1, b2 = spec.sigma_basis if sign == "+" else spec.tau_basis
    sol = cramer(p, b1, b2, spec.q)
    if sol is None:
        v1, v2, _ = cramer(p, b1, b2, transversal(spec.q))
        return v1, v2, Fraction(0)
    return sol


def reference_primitive(vec):
    """The rational vector scaled to primitive integers, first nonzero > 0,
    as Fractions."""
    d = math.lcm(*(Fraction(v).denominator for v in vec))
    ints = [int(v * d) for v in vec]
    g = math.gcd(*ints)
    if g and next(v for v in ints if v) < 0:
        g = -g
    return [Fraction(v, g) if g else Fraction(v) for v in ints]


def reference_edge_line(spec, sign: str, axis: str, gamma):
    """The image of {axis = gamma} under mu^sign from Fraction formulas: a
    LineInTstar, or one with the degenerate point where a '-' edge at the
    double root of q collapses; MomentError on the pole of mu+."""
    X, W = qr.proj_rep(gamma)
    if sign == "+":
        a1, a2, b = reference_coordinates(spec, qr.null_quadratic(gamma), "+")
        if a1 == 0 and a2 == 0:
            raise MomentError(f"mu+ has its pole along the edge {axis} = {gamma}")
        n1, n2, c = a1, a2, b
    else:
        sgn = 1 if axis == "X" else -1
        p = qr.compatible_quadratic(spec.q, gamma)
        if p.is_zero():
            point = tuple(-sgn * qr.polarize_hom(t, X, W, -W, X) / (X * X + W * W)
                          for t in spec.tau_basis)
            return LineInTstar(normal=(Fraction(0), Fraction(0)), offset=Fraction(0),
                               degenerate_point=point)
        n1, n2, _ = reference_coordinates(spec, p, "-")
        c = sgn * qr.polarize_hom(spec.q, X, W, X, W) / 2
    n1, n2, minus_c = reference_primitive((n1, n2, -c))
    line = LineInTstar(normal=(n1, n2), offset=-minus_c)
    conic = fold_conic(spec, sign)
    return LineInTstar(normal=line.normal, offset=line.offset,
                       tangency=reference_tangency(line, conic))


def reference_moment_map(spec, sign: str, x, y) -> MomentPoint:
    """mu^sign at (x, y), in the domain `is_exact` picks."""
    s1, s2 = spec.sigma_basis if sign == "+" else spec.tau_basis
    if is_exact(x, y):
        (c0, c1, c2), (a0, a1, a2), (b0, b1, b2) = spec.q.coeffs(), s1.coeffs(), s2.coeffs()
    else:
        x, y = float(x), float(y)
        (c0, c1, c2), (a0, a1, a2), (b0, b1, b2) = spec.q.floats, s1.floats, s2.floats
    den = c0 * x * y + c1 * (x + y) + c2 if sign == "+" else x - y
    if den == 0:
        raise MomentError(f"mu{sign} pole")
    return MomentPoint(-(a0 * x * y + a1 * (x + y) + a2) / den,
                       -(b0 * x * y + b1 * (x + y) + b2) / den)


def reference_convexity_check(samples):
    """(convex, witness) of the sample cloud, as `moment.convexity_check`."""
    from scipy.spatial import ConvexHull, cKDTree

    pts = np.array([tuple(s) for s in samples], dtype=float)
    if len(pts) < 3:
        raise MomentError("need at least 3 samples")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] < 1e-9 * max(1.0, sv[0]):
        return True, None
    hull = ConvexHull(pts)
    tree = cKDTree(pts)
    k = min(5, len(pts) - 1)
    knn = tree.query(pts, k=k + 1)[0][:, 1:]
    local = np.median(knn, axis=1)
    scale = float(np.percentile(local, 90))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], 48)
    ys = np.linspace(lo[1], hi[1], 48)
    gx, gy = np.meshgrid(xs, ys)
    probes = np.column_stack([gx.ravel(), gy.ravel()])
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
