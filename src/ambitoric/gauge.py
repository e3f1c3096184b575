"""The Mobius gauge: maps of the projective line and their action on specs.

A Mobius map z -> (a z + b) / (c z + d) acts on points of the projective
line (infinity is the first-class value OO) and on polynomials as binary
forms: quadratics (q, the torus basis, the p of gp) with weight 1,
polynomials of degree <= 4 (A and B) as quartics, with weight 2.
`mobius_transport` moves a whole spec by one map; cells, verdicts and the
tensor fields are gauge invariant, which the tests check on transported
boxes.  `ambitoric gauge` runs this module, and no other subcommand loads
it.
"""

from __future__ import annotations

from fractions import Fraction

from .quadratics import OO, Poly, ProjPoint, Quadratic, Record, is_exact, rat
from .ansatz import GP, AnsatzSpec, Interval, ValidationError, metric_gp


class Mobius(Record):
    """z -> (a*z + b) / (c*z + d) with exact rational entries, det != 0,
    stored as given."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a, b, c, d):
        a, b, c, d = rat(a), rat(b), rat(c), rat(d)
        if a * d - b * c == 0:
            raise ValueError("degenerate Mobius map")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def pole(self) -> ProjPoint:
        """The point mapped to infinity."""
        if self.c == 0:
            return OO
        return -self.d / self.c

    def apply(self, p: ProjPoint) -> ProjPoint:
        """(a p + b)/(c p + d) in the domain `is_exact` picks.  An exact
        pole goes to OO; a float one raises ZeroDivisionError."""
        if p is OO:
            return OO if self.c == 0 else self.a / self.c
        if not is_exact(p):
            a, b, c, d = (float(v) for v in (self.a, self.b, self.c, self.d))
            return (a * p + b) / (c * p + d)
        den = self.c * p + self.d
        if den == 0:
            return OO
        return (self.a * p + self.b) / den


def poly_transport(p: Poly, m: Mobius, weight: int) -> Poly:
    """Binary-form action: homogenize p to degree 2*weight, substitute the
    inverse map and divide by det^weight.  For weight 2 this realizes
    A~(x~) = A(x) * (dx~/dx)^2, for weight 1 it is q~(x~) = q(x) * dx~/dx."""
    deg = 2 * weight
    if p.degree > deg:
        raise ValueError(f"degree {p.degree} exceeds homogenization degree {deg}")
    det = m.det()
    u = Poly([-m.b, m.d])     # d*z - b
    v = Poly([m.a, -m.c])     # -c*z + a
    out = Poly([0])
    # powers of u and v
    upow = [Poly([1])]
    vpow = [Poly([1])]
    for _ in range(deg):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        out = out + (upow[k] * vpow[deg - k]) * c
    scale = Fraction(1) / det ** weight
    return out * scale


def transport_quadratic(q: Quadratic, m: Mobius) -> Quadratic:
    """Weight-1 binary action: q~(x~) = q(x) * dx~/dx."""
    out = poly_transport(q.as_poly(), m, weight=1)
    cs = list(out.coeffs) + [Fraction(0)] * (3 - len(out.coeffs))
    return Quadratic(cs[2], cs[1] / 2, cs[0])


def transport_interval(iv: Interval, m: Mobius) -> Interval:
    """Image interval under a Mobius map whose pole is not inside; an
    endpoint at the pole goes to the infinite end on its side.  The map
    preserves the orientation of RP^1 iff det > 0, and the image runs
    from m(lo) to m(hi) in that orientation."""
    pole = m.pole()
    if (pole is not OO and (iv.lo is None or iv.lo < pole)
            and (iv.hi is None or pole < iv.hi)):
        raise ValidationError(
            f"interval ({iv.lo}, {iv.hi}) straddles the Mobius pole {pole}")
    ends = [m.apply(e) for e in iv.endpoints_proj()]
    if m.det() < 0:
        ends.reverse()
    return Interval(*(None if e is OO else e for e in ends))


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
        x_interval=transport_interval(spec.x_interval, m),
        y_interval=transport_interval(spec.y_interval, m),
        lattice=spec.lattice,
        metric=metric2,
        tau_basis=tau2,
    )
