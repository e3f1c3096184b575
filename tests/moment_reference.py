"""Reference tangency certificates and coordinate solves for `moment`.

`reference_tangency` is the body that `moment._tangency` had before it read
the adjugate of the fold conic: it substitutes a point P of the line and its
direction D into the bilinear form of the conic and forms the quadratic
a t^2 + b t + c of (P + t D)^T Q (P + t D).

`reference_coordinates` is the fresh Cramer solve that `moment._coordinates`
made on every call before the moment frame kept the dual vectors: it builds
the three cross products again, and against a transversal of q when
(b1, b2, q) is dependent (q parabolic under '-').

The tests hold the frame's results equal to these, exactly.
"""

from fractions import Fraction

from ambitoric.moment import Conic, LineInTstar, TangencyCertificate
from ambitoric.quadratics import Quadratic, cross, inner, transversal


def reference_tangency(line: LineInTstar, conic: Conic):
    if conic.matrix is None:
        return None
    n1, n2 = line.normal
    c = line.offset
    # a point P on the line and its direction D, homogeneous
    P = (c / n1, Fraction(0), Fraction(1)) if n1 != 0 else (Fraction(0), c / n2, Fraction(1))
    D = (-n2, n1, Fraction(0))
    a, b, cc = conic.form(D, D), 2 * conic.form(P, D), conic.form(P, P)
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
