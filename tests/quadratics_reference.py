"""Reference Fraction formulas for the exact kernels of `quadratics`.

These are the bodies the kernels had before they computed on integer
numerators: every product and sum is a Fraction operation.  The tests hold
`inner`, `cross`, `coordinates`, `null_quadratic`, `compatible_quadratic`,
`polarize_hom`, `Poly._deflate`, `Poly.root_multiplicity` and `Poly.jet`
at rational points equal to these, exactly and with the same type.
"""

from fractions import Fraction

from ambitoric.quadratics import Quadratic, proj_rep


def inner(q: Quadratic, p: Quadratic) -> Fraction:
    return 2 * q.c1 * p.c1 - q.c2 * p.c0 - q.c0 * p.c2


def cross(a: Quadratic, b: Quadratic) -> Quadratic:
    return Quadratic(a.c0 * b.c1 - a.c1 * b.c0, (a.c0 * b.c2 - a.c2 * b.c0) / 2,
                     a.c1 * b.c2 - a.c2 * b.c1)


def coordinates(p: Quadratic, b1: Quadratic, b2: Quadratic, b3: Quadratic):
    """(v1, v2, v3) with p = v1 b1 + v2 b2 + v3 b3 by Cramer's rule in
    triple products; None when the three are linearly dependent."""
    n1 = cross(b2, b3)
    det = inner(b1, n1)
    if det == 0:
        return None
    return inner(p, n1) / det, inner(p, cross(b3, b1)) / det, inner(p, cross(b1, b2)) / det


def null_quadratic(gamma) -> Quadratic:
    X, W = proj_rep(gamma)
    return Quadratic(W * W, -W * X, X * X)


def compatible_quadratic(q: Quadratic, gamma) -> Quadratic:
    return cross(null_quadratic(gamma), q)


def polarize_hom(q: Quadratic, X, W, Y, V) -> Fraction:
    return q.c0 * X * Y + q.c1 * (X * V + Y * W) + q.c2 * W * V


def deflate(coeffs, g: Fraction):
    """(m, Q) with P = (z - g)^m Q and Q(g) != 0 for the nonzero P of the
    ascending coefficients coeffs, by repeated synthetic division."""
    m = 0
    cs = list(coeffs)
    while True:
        quot = []
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * g + c
            quot.append(acc)
        if quot.pop() != 0:
            return m, cs
        m += 1
        cs = quot[::-1]


def poly_jet(coeffs, z, n: int):
    """The first n of (P, P', P'') at z by Horner's rule."""
    p = dp = ddp = 0
    for c in reversed(coeffs):
        if n == 3:
            ddp = ddp * z + 2 * dp
        if n > 1:
            dp = dp * z + p
        p = p * z + c
    return (p, dp, ddp)[:n]
