"""Exact algebra of quadratics and quartics.

Conventions used throughout the package:

* a quadratic is stored as the triple (c0, c1, c2) with
  p(z) = c0*z^2 + 2*c1*z + c2, i.e. c1 is HALF the linear coefficient;
* its polarization is the symmetric bivariate form
  p(x, y) = c0*x*y + c1*(x + y) + c2;
* the inner product of two quadratics is <q, p> = 2*q1*p1 - q2*p0 - q0*p2,
  a signature (2,1) form on the 3-space of quadratics;
* the cross product of two quadratics is
  a x b = (a0*b1 - a1*b0, (a0*b2 - a2*b0)/2, a1*b2 - a2*b1); it is
  orthogonal to a and b, vanishes iff a and b are parallel, and satisfies

      <a x b, c> = -det[a; b; c]
      (a x b) x c = -(<a, c> b - <b, c> a) / 2

  so every exact linear solve on quadratics is a cross product divided by
  an inner product (`dual_frame` with `coordinates`,
  `ansatz.sigma_from_tau`);
* infinity is the first-class point OO of the projective line.  The
  Mobius maps that act on it, and on polynomials as binary forms, live in
  `gauge`.

Coefficients are exact `fractions.Fraction` values.  Every evaluator of
the package follows one rule, `is_exact`: a point whose coordinates are
all Fractions is evaluated exactly, any other (ints included) in floats,
on float coefficients converted once per object by `to_float`, which
refuses a value no float holds.  `Poly.jet` gives the 1-D jet (P, P', P'')
of a polynomial; the jets in (x, y) and of the quadratics in x alone or y
alone, which the metric is made of, live in `tensors`.

The exact kernels compute on integers.  A Quadratic keeps its
coefficients as integer numerators over a common denominator,
(n0, n1, n2, d) = `numerators`, and a Poly keeps (ns, d); both are built
on first use, like `floats`.  Each product has one formula, on integer
triples (`_inner_ints`, `_cross_ints`, `_polar_ints`, `_null_ints`), and
`inner`, `cross`, `coordinates` and `compatible_coordinates` (from the
integer triples of a `dual_frame`) wrap it, forming each result as an
integer over a product of denominators.  A box end is read at its integer
representative (`proj_ints`), so `moment` and `boundary` form edge lines,
compatible normals and corner flags with no Fraction before the result.
At a point a/b in lowest terms, `Poly.jet` (`Poly.hom_jet`) and
`Poly.sign` run Horner's rule homogeneously at (a : b),
`Poly.root_multiplicity` divides by b z - a in integers (`_divide`), and
`Poly.count_roots` builds its Sturm sequence from integer
pseudo-remainders.  So each returned
value costs one normalised Fraction instead of one per product.  Every
exact result is a Fraction, never an int: `is_exact` reads an int as a
float, so a leaked int would move later code to floats.

`Record`, the base of every frozen record of the package, lives here
because this is the first package module that each subcommand loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# frozen records
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's frozen records.

    A subclass names its fields by annotations (only the names are read)
    in order, gives defaults as class attributes, and may list fields that
    stay out of repr, equality and hash in the class keyword `hidden`, as
    in `class BoxComponent(Record, hidden=("cells", "index", "shared"))`.
    Each subclass gets:

    * unless its body defines one, `__init__` taking the fields by position
      or name.  It fills the instance `__dict__` in one update and then
      calls `__post_init__` if the class has one.  A missing, unknown or
      repeated field raises TypeError;
    * unless its body defines one, `__repr__`, `Name(f=v, ...)` over the
      shown fields;
    * `__eq__` with instances of the same class on the shown fields in
      order, and `__hash__` of the same tuple.  Values that
      `cached_property` keeps in the instance are in neither.

    Assignment and deletion raise AttributeError.  The methods behave as
    the standard library's generated frozen records do, byte for byte in
    repr, but are closures: no subcommand imports the module that generates
    code (and with it `inspect`), and no class compiles code at import."""

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        names = tuple(own.get("__annotations__", ()))
        shown = tuple(n for n in names if n not in hidden)
        if len(shown) == 1:     # still a tuple, so the hash is that of the fields
            one = attrgetter(shown[0])

            def key(self):
                return (one(self),)
        else:
            key = attrgetter(*shown)

        if "__init__" not in own:
            n, fields = len(names), frozenset(names)
            defaults = {f: own[f] for f in names if f in own}
            post_init = getattr(cls, "__post_init__", None)

            def __init__(self, *args, **kw):
                if kw or len(args) != n:
                    if args:        # kw is this call's own dict
                        given = len(kw)
                        kw.update(zip(names, args))
                        if len(args) > n or len(kw) != given + len(args):
                            raise TypeError(f"{cls.__qualname__}() takes each of the "
                                            f"fields {names} once: got {args}")
                    if len(kw) != n:
                        kw = {**defaults, **kw}
                    if kw.keys() != fields:
                        raise TypeError(f"{cls.__qualname__}() takes the fields {names}: "
                                        f"got {tuple(kw)}")
                    self.__dict__.update(kw)
                else:
                    self.__dict__.update(zip(names, args))
                if post_init is not None:
                    post_init(self)
            cls.__init__ = __init__

        if "__repr__" not in own:
            def __repr__(self):
                items = ", ".join(map("{}={!r}".format, shown, key(self)))
                return f"{self.__class__.__qualname__}({items})"
            cls.__repr__ = __repr__

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))
        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# rationals and the projective line
# ---------------------------------------------------------------------------

def rat(v) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', Fractions and exact floats."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(v, (int, str)):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("non-finite float coefficient")
        return Fraction(v)
    raise TypeError(f"cannot convert {v!r} to an exact rational")


def to_float(v, what: str = "a value") -> float:
    """float(v), where a rational that no float holds, too large or a non-zero
    one that rounds to 0.0, is an input error about what."""
    try:
        f = float(v)
        if f or not v:
            return f
    except OverflowError:
        pass
    e = round(math.log10(abs(v.numerator)) - math.log10(v.denominator))
    raise ValueError(f"{what} near {'-' * (v < 0)}1e{e} does not fit in a float")


def _over_common(values) -> Tuple[Tuple[int, ...], int]:
    """(ns, d) with values[i] = ns[i] / d, for rationals (Fractions or
    ints) over their least common denominator d > 0."""
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def rational_sqrt(v: Fraction) -> Optional[Fraction]:
    """The rational square root of v, or None when v is not a rational
    square."""
    if v < 0:
        return None
    n = math.isqrt(v.numerator)
    d = math.isqrt(v.denominator)
    if n * n == v.numerator and d * d == v.denominator:
        return Fraction(n, d)
    return None


class _ProjInf:
    """The single point at infinity of the real projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OO"


OO = _ProjInf()

#: extended endpoint type: Fraction, or None meaning the infinite endpoint
#: (-oo in a lower slot, +oo in an upper slot); projectively both are OO.
ProjPoint = Union[Fraction, _ProjInf]


def proj_eq(a: ProjPoint, b: ProjPoint) -> bool:
    if a is OO or b is OO:
        return a is OO and b is OO
    return a == b


def proj_ints(p: ProjPoint) -> Tuple[int, int]:
    """Integer representative (a, b), p = a/b in lowest terms; OO -> (1, 0)."""
    if p is OO:
        return 1, 0
    return p.numerator, p.denominator


# ---------------------------------------------------------------------------
# generic dense polynomials (ascending coefficients)
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with exact rational coefficients, ascending order."""

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------------
    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

    @cached_property
    def floats(self) -> Tuple[float, ...]:
        """The coefficients as floats, converted on first use."""
        return tuple(map(to_float, self.coeffs))

    @cached_property
    def numerators(self) -> Tuple[Tuple[int, ...], int]:
        """(ns, d): the coefficients as integers ns over their least common
        denominator d, built on first use."""
        return _over_common(self.coeffs)

    def __call__(self, z):
        return self.jet(z, 1)[0]

    def jet(self, z, n: int):
        """The first n of (P, P', P'') at z, in the domain `is_exact` picks,
        by Horner's rule; at a rational z = a/b one Fraction per entry from
        `hom_jet`."""
        if not is_exact(z):
            p = dp = ddp = 0
            for c in reversed(self.floats):
                if n == 3:
                    ddp = ddp * z + 2 * dp
                if n > 1:
                    dp = dp * z + p
                p = p * z + c
            return (p, dp, ddp)[:n]
        vals, den = self.hom_jet(z.numerator, z.denominator, n)
        return tuple(Fraction(v, den) for v in vals)

    def hom_jet(self, a: int, b: int, n: int):
        """(vals, den): the first n of (P, P', P'') at a/b, b > 0, as integers
        over den, by Horner's rule on the numerators c/d at (a : b): after j
        steps each accumulator is an integer over d b^(j-1)."""
        cs, d = self.numerators
        p = dp = ddp = 0
        bk = 1
        for c in reversed(cs):
            if n == 3:
                ddp = ddp * a + 2 * dp * b
            if n > 1:
                dp = dp * a + p * b
            p = p * a + c * bk
            bk *= b
        return (p, dp, ddp)[:n], d * bk // b

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + Poly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        s = rat(other)
        return Poly([c * s for c in self.coeffs])

    __rmul__ = __mul__

    # -- roots -------------------------------------------------------------
    def root_multiplicity(self, gamma: ProjPoint) -> int:
        """Exact multiplicity of gamma as a root; at OO it is 4 - degree
        relative to the weight-2 (quartic) homogenization used for A and B."""
        if self.is_zero():
            raise ValueError("zero polynomial has no well-defined multiplicity")
        if gamma is OO:
            if self.degree > 4:
                raise ValueError("A/B of degree > 4 have no weight-2 action")
            return 4 - self.degree
        g = rat(gamma)
        return _divide(self.numerators[0], g.numerator, g.denominator)[0]

    def sign(self, z: Fraction) -> int:
        """The sign of P(z) at a rational z (`_sign_at`)."""
        return _sign_at(self.numerators[0], z.numerator, z.denominator)

    def count_roots(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
        """Number of distinct real roots in the open interval (lo, hi); None
        is an infinite end.  Roots at a finite end are divided out first, so
        that neither end is a root, and Sturm's theorem then counts exactly:
        the sign changes of the Sturm sequence drop by one across each
        distinct root, whatever its multiplicity.

        It runs on the integer numerators.  The Sturm sequence is p, p' and
        negated pseudo-remainders: a division step scales the dividend by
        |lc| of the divisor, never by a negative factor, and each remainder
        is divided by its positive content, so each entry is a positive
        multiple of the classical one, in small integers.  Its signs are
        read at (a : b), or at (+-1 : 0) for an infinite end (`_sign_at`)."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinitely many roots")
        p, ends = self.numerators[0], []
        for e, inf in ((lo, -1), (hi, 1)):
            e = (inf, 0) if e is None else rat(e).as_integer_ratio()
            if e[1]:
                p = _divide(p, *e)[1]
            ends.append(e)
        seq = [list(p), [k * c for k, c in enumerate(p)][1:]]
        while seq[-1]:
            r, g = list(seq[-2]), seq[-1]
            s, a = (1, g[-1]) if g[-1] > 0 else (-1, -g[-1])
            while len(r) >= len(g):
                top, r = s * r[-1], [a * c for c in r[:-1]]
                k = len(r) - len(g) + 1
                for j, c in enumerate(g[:-1]):
                    r[k + j] -= top * c
                while r and not r[-1]:
                    r.pop()
            content = math.gcd(*r)
            seq.append([-c // content for c in r])
        return _sign_changes(seq[:-1], *ends[0]) - _sign_changes(seq[:-1], *ends[1])


def _divide(cs: Sequence[int], a: int, b: int) -> Tuple[int, Sequence[int]]:
    """(m, qs) with cs = (b z - a)^m qs and qs(a/b) != 0, for a nonzero
    integer polynomial cs (ascending) and a/b in lowest terms, b > 0.  By
    Gauss's lemma b z - a divides an integer polynomial iff a/b is a root,
    so each step is an exact integer long division, and one with a
    remainder ends the count."""
    m = 0
    while True:
        quot, acc = [], 0
        for c in reversed(cs[1:]):
            acc, r = divmod(c + a * acc, b)
            if r:
                return m, cs
            quot.append(acc)
        if cs[0] + a * acc != 0:
            return m, cs
        m += 1
        cs = quot[::-1]


def _sign_at(cs: Sequence[int], a: int, b: int) -> int:
    """The sign of the integer polynomial cs (ascending) at (a : b), by
    Horner's rule on sum c_k a^k b^(n-k): at a/b for b > 0, and at the
    infinite end of sign a for b = 0."""
    acc, bk = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _sign_changes(seq: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign changes along an integer Sturm sequence at (a : b) (`_sign_at`)."""
    signs = [s for s in (_sign_at(p, a, b) for p in seq) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

class Quadratic(Record):
    """p(z) = c0*z^2 + 2*c1*z + c2 with its polarization p(x,y)."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __init__(self, c0, c1, c2):
        object.__setattr__(self, "c0", rat(c0))
        object.__setattr__(self, "c1", rat(c1))
        object.__setattr__(self, "c2", rat(c2))

    @cached_property
    def floats(self) -> Tuple[float, float, float]:
        """(c0, c1, c2) as floats, converted on first use."""
        return (to_float(self.c0), to_float(self.c1), to_float(self.c2))

    @cached_property
    def numerators(self) -> Tuple[int, int, int, int]:
        """(n0, n1, n2, d) with ci = ni / d and d > 0: over the least common
        denominator when built on first use, as computed for the results of
        `cross`."""
        ns, d = _over_common(self.coeffs())
        return (*ns, d)

    # -- evaluation --------------------------------------------------------
    def value(self, z):
        """p(z) = p(z, z); in floats 2 c1 z rounds as c1 (z + z)."""
        return self.polarize(z, z)

    __call__ = value

    def polarize(self, x, y):
        """Symmetric bivariate form p(x,y) = c0*xy + c1*(x+y) + c2."""
        if is_exact(x, y):
            c0, c1, c2 = self.coeffs()
        else:
            (c0, c1, c2), x, y = self.floats, float(x), float(y)
        return c0 * x * y + c1 * (x + y) + c2

    # -- structure ---------------------------------------------------------
    def coeffs(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def as_poly(self) -> Poly:
        return Poly([self.c2, 2 * self.c1, self.c0])

    def scaled(self, s) -> "Quadratic":
        s = rat(s)
        return Quadratic(self.c0 * s, self.c1 * s, self.c2 * s)

    def is_multiple_of(self, other: "Quadratic") -> bool:
        """True iff self = s * other for some scalar s (other nonzero)."""
        if other.is_zero():
            return self.is_zero()
        return not any(_cross_ints(self.numerators, other.numerators))

    def double_root(self) -> Optional[ProjPoint]:
        """The double root in RP^1 if the quadratic is parabolic, else None."""
        if self.is_zero():
            return None
        d = self.c1 * self.c1 - self.c0 * self.c2
        if d != 0:
            return None
        if self.c0 == 0:
            # c1 = 0 too (else two distinct roots); constant: double root at OO
            return OO
        return -self.c1 / self.c0

    def __repr__(self):
        return f"Quadratic({self.c0}, {self.c1}, {self.c2})"


def _inner_ints(a, b) -> int:
    """<a, b> of integer coefficient triples (or `numerators`)."""
    return 2 * a[1] * b[1] - a[2] * b[0] - a[0] * b[2]


def _cross_ints(a, b) -> Tuple[int, int, int]:
    """2 (a x b), integral, of integer coefficient triples (or `numerators`)."""
    a0, a1, a2 = a[0], a[1], a[2]
    b0, b1, b2 = b[0], b[1], b[2]
    return 2 * (a0 * b1 - a1 * b0), a0 * b2 - a2 * b0, 2 * (a1 * b2 - a2 * b1)


def _polar_ints(c, X: int, W: int, Y: int, V: int) -> int:
    """The homogenized polarization c0 X Y + c1 (X V + Y W) + c2 W V of c
    at integer representatives (X : W), (Y : V)."""
    return c[0] * X * Y + c[1] * (X * V + Y * W) + c[2] * W * V


def _null_ints(a: int, b: int) -> Tuple[int, int, int]:
    """The coefficients of (b z - a)^2, the null quadratic of (a : b)."""
    return b * b, -a * b, a * a


def inner(q: Quadratic, p: Quadratic) -> Fraction:
    """Signature (2,1) inner product 2*q1*p1 - q2*p0 - q0*p2."""
    return Fraction(_inner_ints(q.numerators, p.numerators),
                    q.numerators[3] * p.numerators[3])


def cross(a: Quadratic, b: Quadratic) -> Quadratic:
    """The cross product a x b of the (2,1) inner product (module docstring)."""
    return _from_numerators(*_cross_ints(a.numerators, b.numerators),
                            2 * a.numerators[3] * b.numerators[3])


def _from_numerators(n0: int, n1: int, n2: int, d: int) -> Quadratic:
    """The quadratic (n0, n1, n2) / d, d > 0, keeping these as its
    `numerators`."""
    q = Quadratic(Fraction(n0, d), Fraction(n1, d), Fraction(n2, d))
    q.__dict__["numerators"] = (n0, n1, n2, d)
    return q


def dual_frame(b1: Quadratic, b2: Quadratic, b3: Quadratic):
    """(ns, e, num, den): the dual vectors (b2 x b3, b3 x b1, b1 x b2) of a
    basis as integer triples ns over one denominator e > 0 (each is
    `_cross_ints` over 2 d_j d_k, so all are over 2 d1 d2 d3, here reduced
    by the common content), and the determinant <b1, b2 x b3> = num / den;
    None when the three are linearly dependent.  Build it once per basis;
    `coordinates` reads it."""
    bs = (b1.numerators, b2.numerators, b3.numerators)
    ns = [[bs[i][3] * c for c in _cross_ints(bs[i - 2], bs[i - 1])] for i in range(3)]
    e = 2 * bs[0][3] * bs[1][3] * bs[2][3]
    g = math.gcd(e, *ns[0], *ns[1], *ns[2])
    ns, e = tuple(tuple(c // g for c in n) for n in ns), e // g
    num = _inner_ints(bs[0], ns[0])
    return None if num == 0 else (ns, e, num, bs[0][3] * e)


def coordinates(p: Quadratic, frame) -> Tuple[Fraction, Fraction, Fraction]:
    """(v1, v2, v3) with p = v1 b1 + v2 b2 + v3 b3, for the `dual_frame` of
    (b1, b2, b3): by Cramer's rule in triple products v1 = <p, b2 x b3> /
    <b1, b2 x b3>, and cyclically, so 3 integer inner products and one
    Fraction each.  `moment` keeps the frame of each spec and sign on the
    spec instance."""
    ns, e, num, den = frame
    P = p.numerators
    scale = P[3] * e * num
    return tuple(Fraction(_inner_ints(P, n) * den, scale) for n in ns)


def transversal(q: Quadratic) -> Quadratic:
    """The first coordinate quadratic 1, 2z or z^2 not orthogonal to the
    nonzero q."""
    units = (Quadratic(0, 0, 1), Quadratic(0, 1, 0), Quadratic(1, 0, 0))
    return next(u for u in units if inner(u, q) != 0)


def compatible_coordinates(q: Quadratic, dual, a: int,
                           b: int) -> Optional[Tuple[int, int, int]]:
    """(u1, u2, k): (u1 / k, u2 / k) are the first two coordinates in the
    `dual_frame` `dual` of the compatible quadratic p = (b z - a)^2 x q of
    the box end (a : b); None at the double root of q, where p = 0.  At a
    finite end gamma, p(x,y) = (x-gamma) q(y,gamma)/2 + q(x,gamma) (y-gamma)/2.
    With c = 2 dq p (`_cross_ints`), u_i = den <c, n_i> for the dual
    triples n_i, and k = 2 dq e num."""
    Q = q.numerators
    c = _cross_ints(_null_ints(a, b), Q)
    if not any(c):
        return None
    ns, e, num, den = dual
    return _inner_ints(c, ns[0]) * den, _inner_ints(c, ns[1]) * den, 2 * Q[3] * e * num


def is_exact(*coords) -> bool:
    """The number-domain rule: a point is exact iff every coordinate is a
    Fraction; an int counts as float.  type() first: isinstance against
    Fraction goes through ABCMeta, slow on floats."""
    for v in coords:
        if type(v) is float or not isinstance(v, Fraction):
            return False
    return True


PARABOLIC = "Parabolic"
HYPERBOLIC = "Hyperbolic"
ELLIPTIC = "Elliptic"


def conic_type(q: Quadratic) -> str:
    """Classify by root structure over RP^1 (degree drop = root at infinity):
    two distinct real roots -> Hyperbolic, a double root -> Parabolic,
    no real roots -> Elliptic."""
    if q.is_zero():
        raise ValueError("zero polynomial has no conic type")
    d = q.c1 * q.c1 - q.c0 * q.c2
    if d > 0:
        return HYPERBOLIC
    if d == 0:
        return PARABOLIC
    return ELLIPTIC


# ---------------------------------------------------------------------------
# the second transvectant
# ---------------------------------------------------------------------------

def transvectant2(p: Quadratic, R: Poly) -> Quadratic:
    """The quadratic (p, R)^(2) = p*R'' - 3*p'*R' + 6*p''*R, for R of degree
    <= 4 read as a binary quartic (its missing top coefficients are 0).

    The quartic and cubic coefficients of the combination cancel identically,
    which leaves, for p = (c0, c1, c2) and R = r0 + ... + r4 z^4, this
    closed form."""
    if R.degree > 4:
        raise ValueError(f"the second transvectant needs a quartic, got degree {R.degree}")
    c0, c1, c2 = p.coeffs()
    r0, r1, r2, r3, r4 = R.coeffs + (0,) * (5 - len(R.coeffs))
    return Quadratic(12 * c2 * r4 - 6 * c1 * r3 + 2 * c0 * r2,
                     3 * c2 * r3 - 4 * c1 * r2 + 3 * c0 * r1,
                     2 * c2 * r2 - 6 * c1 * r1 + 12 * c0 * r0)
