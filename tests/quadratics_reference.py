"""Reference Fraction formulas for the exact kernels of `quadratics` and
of the sign cells and lattice test of `ansatz`.

These are the bodies the kernels had before they computed on integer
numerators: every product and sum is a Fraction operation.  The tests hold
`inner`, `cross`, `coordinates`, `null_quadratic`, `compatible_quadratic`,
`quadratics._polar_ints` (against `polarize_hom`), `quadratics.proj_ints`
(against `proj_rep`), `quadratics._divide`, `Poly.root_multiplicity`,
`Poly.jet` at rational points, `Poly.count_roots`, `ansatz._cmp`,
`ansatz._rational_between`, `ansatz.lattice_coordinates` and
`ansatz.lattice_contains` equal to these, exactly and with the same type.
`reference_members` is how `ansatz.SignCells` joined slab pieces into
cells before it read each cell as one run: a union-find over the pieces,
joined across each wall that has a piece of their sign pair.
`reference_transvectant2` is `quadratics.transvectant2` as it was before
it took its closed form: the combination p R'' - 3 p' R' + 6 p'' R formed
from `Poly` products and the `Poly.derivative` that `quadratics` had
(`derivative`).
`plus`, the sum of two quadratics, serves the tests alone.
"""

import math
from fractions import Fraction

from ambitoric.quadratics import OO, Poly, Quadratic


def proj_rep(p):
    """Homogeneous representative (X, W) with p = X/W; OO -> (1, 0)."""
    if p is OO:
        return Fraction(1), Fraction(0)
    return Fraction(p), Fraction(1)


def plus(a: Quadratic, b: Quadratic) -> Quadratic:
    """The sum of two quadratics, coefficientwise."""
    return Quadratic(a.c0 + b.c0, a.c1 + b.c1, a.c2 + b.c2)


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


def poly_mod(p: Poly, other: Poly) -> Poly:
    """Remainder of division by a nonzero polynomial."""
    r = list(p.coeffs)
    n = len(other.coeffs)
    for k in range(len(r) - n, -1, -1):
        f = r[k + n - 1] / other.coeffs[-1]
        for j, c in enumerate(other.coeffs):
            r[k + j] -= f * c
    return Poly(r[:n - 1])


def sign_changes(seq, at, end: int) -> int:
    """Sign changes along a Sturm sequence at `at`, or at the infinite end
    of sign `end` when `at` is None."""
    signs = []
    for s in seq:
        v = s(at) if at is not None else s.coeffs[-1] * end ** s.degree
        if v != 0:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def derivative(P: Poly) -> Poly:
    """P', which the references alone need."""
    return Poly([k * c for k, c in enumerate(P.coeffs)][1:] or [0])


def count_roots(P: Poly, lo, hi) -> int:
    """Distinct real roots of the nonzero P in (lo, hi) by Sturm's theorem,
    after dividing out the roots at the finite ends."""
    p = P
    for e in (lo, hi):
        if e is not None:
            p = Poly(deflate(p.coeffs, e)[1])
    seq = [p, derivative(p)]
    while not seq[-1].is_zero():
        seq.append(poly_mod(seq[-2], seq[-1]) * -1)
    seq.pop()
    return sign_changes(seq, lo, -1) - sign_changes(seq, hi, 1)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sign_uvD(u, v, D) -> int:
    su, sv = _sign(u), _sign(v)
    if sv == 0 or D == 0:
        return su
    if su == 0 or su == sv:
        return sv
    return su * _sign(u * u - v * v * D)


def _parts(a):
    return (a, 0, 0) if isinstance(a, Fraction) else (a.p, a.r, a.D)


def cmp(a, b) -> int:
    """sign(a - b) for rationals and surds p + r sqrt(D) (`ansatz._Surd`)."""
    (p, r, D), (p2, r2, D2) = _parts(a), _parts(b)
    if r2 == 0 or D2 == D:
        return _sign_uvD(p - p2, r - r2, D)
    sa, sb = _sign_uvD(p - p2, r, D), _sign(r2)
    if sa != sb:
        return _sign(sa - sb)
    u = p - p2
    return sa * _sign_uvD(u * u + r * r * D - r2 * r2 * D2, 2 * u * r, D)


def bounds(a, k: int):
    """Rationals lo <= a <= hi, at most |r| 2^-k apart."""
    if isinstance(a, Fraction):
        return a, a
    n, d = a.D.numerator, a.D.denominator
    s = math.isqrt(n * d << 2 * k)
    lo = a.p + a.r * Fraction(s, d << k)
    hi = a.p + a.r * Fraction(s + 1, d << k)
    return min(lo, hi), max(lo, hi)


def rational_between(a, b) -> Fraction:
    """A rational strictly between a < b; None is an infinite end."""
    if a is None and b is None:
        return Fraction(0)
    if a is None:
        return Fraction(math.floor(bounds(b, 0)[0]) - 1)
    if b is None:
        return Fraction(math.ceil(bounds(a, 0)[1]) + 1)
    k = 8
    while True:
        hi, lo = bounds(a, k)[1], bounds(b, k)[0]
        if hi < lo:
            return (hi + lo) / 2
        k *= 2


def lattice_coordinates(lattice, vec):
    """Coordinates of a rational vector in the basis of the lattice matrix
    columns, by the inverse 2x2 matrix."""
    (a, b), (c, d) = lattice
    det = a * d - b * c
    v0, v1 = Fraction(vec[0]), Fraction(vec[1])
    return (d * v0 - b * v1) / det, (-c * v0 + a * v1) / det


def lattice_contains(lattice, vec) -> bool:
    return all(w.denominator == 1 for w in lattice_coordinates(lattice, vec))


def reference_members(cells):
    """The (slab, sign pair) pieces of each cell of the `SignCells` cells,
    ordered as `SignCells.members`."""
    parent = {(i, piece[0]): (i, piece[0])
              for i, slab in enumerate(cells.slabs) for piece in slab}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, wall in enumerate(cells.walls):
        for s, *_ in wall:
            if (i, s) in parent and (i + 1, s) in parent:
                parent[find((i, s))] = find((i + 1, s))
    classes = {}
    for k in parent:
        classes.setdefault(find(k), []).append(k)
    return sorted((sorted(ks) for ks in classes.values()),
                  key=lambda ks: (ks[0][1], cells.witness(ks)[0]))


def reference_transvectant2(p: Quadratic, R: Poly) -> Quadratic:
    """(p, R)^(2) = p*R'' - 3*p'*R' + 6*p''*R from `Poly` products, for R of
    degree <= 4; the quartic and cubic coefficients must cancel."""
    pp = p.as_poly()
    r1 = derivative(R)
    r2 = derivative(r1)
    p1 = derivative(pp)
    p2 = derivative(p1)
    total = pp * r2 - Poly([3]) * p1 * r1 + Poly([6]) * p2 * R
    cs = list(total.coeffs) + [Fraction(0)] * (5 - len(total.coeffs))
    if any(c != 0 for c in cs[3:]):
        raise AssertionError("transvectant degree cancellation failed")
    return Quadratic(cs[2], cs[1] / 2, cs[0])
