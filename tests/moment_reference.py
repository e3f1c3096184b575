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

`form` and `evaluate` read a conic's matrix at homogeneous vectors and at
points of the plane.

The tests hold the frame's results equal to these, exactly.
"""

import math
from fractions import Fraction

import quadratics_reference as qr
from ambitoric.moment import Conic, LineInTstar, MomentError, TangencyCertificate, fold_conic
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
