"""Pointwise tensor fields of the ansatz and their curvature from exact jets.

All fields are evaluated in the frame (dx, dy, dt1, dt2) of the normal-form
coordinates.  With tau_i the torus basis quadratics of the spec and
q(x,y), (x - y) the two fold factors, the barycentric metric and the pair
of symplectic forms are

    g0      = dx^2/A + dy^2/B
              + [A tau(y) x tau(y) + B tau(x) x tau(x)] / ((x-y) q(x,y))^2
    omega+  = (dx ^ dtau(y) + dy ^ dtau(x)) / q(x,y)^2
    omega-  = (dx ^ dtau(y) - dy ^ dtau(x)) / (x-y)^2

where dtau(y) = sum_i tau_i(y) dt_i.  The metric choices scale g0 by 1,
f^-1, f, or (x-y) q / p^2; the complex structures are J+- = g+-^{-1} omega+-.

Every metric entry is a rational function of (x, y), so `_block_jets`, the
one place that spells out the formula above, gives `curvature` its second
jets (value, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2) with no truncation
error, and `metric_components` reads their values.
The formula is separable: A and tau_i(x) depend on x alone, B and tau_i(y)
on y alone, so each of these is a 1-D jet (value, d, d2), and the fibre
numerators A tau_i(y) tau_j(y) + B tau_i(x) tau_j(x) are formed from them
directly.  Only (x - y) q(x, y), the scale of the metric choice and their
products with these are full second jets.  The jet helpers live here
(`polar_jet`, `coordinate_jets` and the products of 1-D jets); `_block_jets`
hands them the coefficients that the rule `quadratics.is_exact` picks.  On
Fraction points the curvature is exact.  The same jets give d mu of the
moment maps (`moment_differential`), so `check`, which pairs d mu with
omega, does not load `moment`.

Curvature in closed form.  Every metric here is a dx^2 + b dy^2 + H, with
H = h_ij dt_i dt_j, and all of a, b, H depend on (x, y) alone.  With
R_abcd = g_ae R^e_bcd, R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb +
Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb, Greek indices in (x, y),
Latin ones in (t1, t2), and Gamma^gamma_{alpha beta} the Christoffel
symbols of the base a dx^2 + b dy^2:

    R_xyxy = -(a_yy + b_xx)/2 + (a_x b_x + a_y^2)/(4a) + (a_y b_y + b_x^2)/(4b)
    R_{i alpha j beta} = [d_beta H H^-1 d_alpha H]_ij / 4
                         - [d_alpha d_beta H - Gamma^gamma_{alpha beta} d_gamma H]_ij / 2
    R_{xy ij} = [d_y H H^-1 d_x H - d_x H H^-1 d_y H]_ij / 4
    R_t1t2t1t2 = -(det d_x H / a + det d_y H / b) / 4

The metric is invariant under t -> -t, so every component with an odd
number of fibre indices vanishes, and these 13 numbers (R_xyxy,
R_t1t2t1t2, R_xyt1t2 and the 10 R_{i alpha j beta}) give all 256 by the
symmetries of R.  With M^{alpha beta}_ij = R_{i alpha j beta} and
<P, Q> = P_ij Q_ij:

    Ric_xx = R_xyxy / b + <H^-1, M^xx>,   Ric_yy = R_xyxy / a + <H^-1, M^yy>,
    Ric_xy = <H^-1, M^xy>,   Ric_{alpha i} = 0,
    Ric_ij = M^xx_ij / a + M^yy_ij / b + R_t1t2t1t2 H_ij / det H,

and the scalar is their trace against g^-1.  At Fraction points these
equal the general 4x4 formulas exactly (tests/curvature_reference.py).

Float curvature loses digits next to a fold, where the fibre block
A tau(y) tau(y)^T + B tau(x) tau(x)^T is nearly singular and
s = |tau(x) ^ tau(y)| / (|tau(x)| |tau(y)|) tends to 0, though far fewer
than the general 4x4 formulas.  Max-norm relative error of float R against
exact R at (3/2, -3/2 - delta), q = 2z, A = -(z-1)(z-2), B = -z(z+3), for
the closed form and for the general formulas:

    delta     0.1      0.02     0.01     2e-3     1e-3     5e-4     1e-4
    s         0.046    0.0097   0.0049   9.9e-4   4.9e-4   2.5e-4   4.9e-5
    closed    1.0e-13  4.0e-12  5.2e-12  3.4e-11  8.2e-10  2.7e-9   2.1e-7
    general   1.2e-10  1.0e-7   1.1e-6   2.4e-4   4.2e-3   1.2e-1   1.6e+2

Near a double root of A or B the error still grows like the inverse square
of the distance, alike for both (2.1e-8 at 1e-3 from the double root -3 of
B in the golden case4_double_root_edges): it is in the jet of A or B, not
in the curvature.  Float points with s < MIN_FIBRE_SINE or a Newton step
|A/A'|, |B/B'| below MIN_ROOT_DISTANCE raise SingularEvaluation.  Over
the sample points of the goldens and Kerr in `scripts/curvature_sweep.py`
(which fails above 1e-9), none of the 6825 evaluations admitted is off by
more than 2.0e-10, and every Kerr sample is admitted, the interior ones
down to s = 5.5e-4.  Along (x0, -x0 -+ delta) next to the fold of the
table, the error stays below 4.2e-10 for s >= 1e-3 but reaches 3.9e-9 for
s in [5e-4, 1e-3): s alone does not fix the loss.

Every field is a 4x4 nested tuple, of Fractions at Fraction points; only
the `riemann` and `ricci` arrays of a `CurvaturePack` load numpy.  A
metric here is a dx^2 + b dy^2 + h_ij dt_i dt_j and omega pairs (dx, dy)
with (dt1, dt2) only, so J = g^{-1} omega is the block inverse

    J[0, 2:] = omega[0, 2:] / a,   J[1, 2:] = omega[1, 2:] / b,
    J[2:, :2] = h^{-1} omega[2:, :2],

zero elsewhere.  Formed from the entries of g+-, det h = h00 h11 - h01^2
cancels next to a fold.  But tau1(y) tau2(x) - tau2(y) tau1(x) is a
constant multiple of (x - y) q(x, y), so J+- has a closed form without
subtraction.  With d = x - y, q = q(x, y), eps = 1 for J+ and -1 for J-,
and c = -2k where tau1 x tau2 = k q (`AnsatzSpec.tau_cross`):

    J[0] = (0, 0, A tau1(y) / (d q), A tau2(y) / (d q))
    J[1] = (0, 0, eps B tau1(x) / (d q), eps B tau2(x) / (d q))
    J[2] = (-tau2(x) / (A c), eps tau2(y) / (B c), 0, 0)
    J[3] = (tau1(x) / (A c), -eps tau1(y) / (B c), 0, 0)

The coefficient of dx^dy^dt1^dt2 in dx ^ dcx ^ dy ^ dcy (dc u = -du o J)
is minus the minor J[0,2] J[1,3] - J[0,3] J[1,2].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

from .ansatz import (
    G0,
    GMINUS,
    GP,
    GPLUS,
    AnsatzSpec,
    MetricChoice,
    SingularEvaluation,
)
from .quadratics import Record, is_exact

if TYPE_CHECKING:
    import numpy as np


class FramePoint(Record):
    """A point (x, y); no field depends on the fibre coordinates t."""

    x: float          # or Fraction, for exact curvature
    y: float


# ---------------------------------------------------------------------------
# second jets in (x, y), (value, d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2), and
# 1-D jets (value, d, d2) of functions of x alone or of y alone, which the
# metric is made of
# ---------------------------------------------------------------------------

def _mul(a, b):
    """Product of two second jets."""
    (a0, ax, ay, axx, axy, ayy), (b0, bx, by, bxx, bxy, byy) = a, b
    return (a0 * b0, a0 * bx + ax * b0, a0 * by + ay * b0,
            a0 * bxx + 2 * ax * bx + axx * b0,
            a0 * bxy + ax * by + ay * bx + axy * b0,
            a0 * byy + 2 * ay * by + ayy * b0)


def _inv(a):
    """Reciprocal of a jet with nonzero value."""
    a0, ax, ay, axx, axy, ayy = a
    r = 1 / a0
    r2 = r * r
    return (r, -ax * r2, -ay * r2, (2 * ax * ax * r - axx) * r2,
            (2 * ax * ay * r - axy) * r2, (2 * ay * ay * r - ayy) * r2)


def _diag_jet(cs: Sequence, z):
    """1-D jet of p(z) = p(z, z), p with coefficients cs, in the order of
    operations of `polar_jet`."""
    c0, c1, c2 = cs
    return (c0 * (z * z) + c1 * (z + z) + c2, c0 * (z + z) + 2 * c1, 2 * c0)


def _mul1(u, v):
    """Product of two 1-D jets in the same variable."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (u0 * v0, u0 * v1 + u1 * v0, u0 * v2 + 2 * u1 * v1 + u2 * v0)


def _separable(A, T, B, S):
    """Jet of A(x) T(y) + B(y) S(x) from the 1-D jets of its four factors."""
    (a, ax, axx), (t, ty, tyy), (b, by, byy), (s, sx, sxx) = A, T, B, S
    return (a * t + b * s, ax * t + b * sx, a * ty + by * s,
            axx * t + b * sxx, ax * ty + by * sx, a * tyy + byy * s)


def _lift(u, axis: int):
    """The 1-D jet u of a function of x (axis 0) or of y (axis 1) as a jet
    in (x, y)."""
    u0, u1, u2 = u
    return (u0, u1, 0, u2, 0, 0) if axis == 0 else (u0, 0, u1, 0, 0, u2)


def polar_jet(cs: Sequence, X, Y):
    """Jet of the polarization c0 x y + c1 (x + y) + c2, cs = (c0, c1, c2),
    from the coordinate jets X, Y of x and y (`coordinate_jets`)."""
    x, y = X[0], Y[0]
    c0, c1, c2 = cs
    return (c0 * (x * y) + c1 * (x + y) + c2, c0 * y + c1, c0 * x + c1, 0, c0, 0)


def coordinate_jets(x, y):
    """The second jets of x and y: Fractions at an exact point (`is_exact`),
    floats otherwise."""
    if not is_exact(x, y):
        x, y = float(x), float(y)
    return (x, 1, 0, 0, 0, 0), (y, 0, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# the metric as a jet in (x, y)
# ---------------------------------------------------------------------------

def _block_jets(spec: AnsatzSpec, metric: MetricChoice, x, y) -> tuple:
    """Second jets of the blocks of the metric a dx^2 + b dy^2 + h_ij dt_i dt_j
    at (x, y): (a, b, (h00, h01, h11), (A, B, tx, ty)), where the last four
    are the 1-D jets of A(x), B(y), tau_i(x) and tau_i(y) that the blocks
    are made of.  The entries are Fractions at Fraction points, floats
    otherwise."""
    X, Y = coordinate_jets(x, y)
    x, y = X[0], Y[0]
    exact = is_exact(x, y)
    A, B = spec.A.jet(x, 3), spec.B.jet(y, 3)
    if A[0] == 0 or B[0] == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    q = polar_jet(spec.q.coeffs() if exact else spec.q.floats, X, Y)
    d = (x - y, 1, -1, 0, 0, 0)
    den = _mul(d, q)
    if den[0] == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    try:     # a float square below the float range is 0.0, though its root is not
        if metric.tag == G0:
            scale = (1, 0, 0, 0, 0, 0)
        elif metric.tag == GPLUS:
            scale = _mul(d, _inv(q))     # g+ = f^-1 g0 with f = q/(x-y)
        elif metric.tag == GMINUS:
            scale = _mul(q, _inv(d))
        else:
            p = polar_jet(metric.p.coeffs() if exact else metric.p.floats, X, Y)
            if p[0] == 0:
                raise SingularEvaluation("g_p is singular on the P-locus")
            scale = _mul(den, _inv(_mul(p, p)))
        w = _mul(_inv(_mul(den, den)), scale)
    except ZeroDivisionError:
        raise ValueError("the metric at the evaluation point leaves the float range") from None
    t1, t2 = spec.tau_basis
    t1, t2 = (t1.coeffs(), t2.coeffs()) if exact else (t1.floats, t2.floats)
    x1, x2 = _diag_jet(t1, x), _diag_jet(t2, x)
    y1, y2 = _diag_jet(t1, y), _diag_jet(t2, y)
    h = [_mul(_separable(A, _mul1(y1, y1), B, _mul1(x1, x1)), w),
         _mul(_separable(A, _mul1(y1, y2), B, _mul1(x1, x2)), w),
         _mul(_separable(A, _mul1(y2, y2), B, _mul1(x2, x2)), w)]
    return (_mul(_inv(_lift(A, 0)), scale), _mul(_inv(_lift(B, 1)), scale), h,
            (A, B, [x1, x2], [y1, y2]))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _omega_components(spec: AnsatzSpec, sign: str, x, y) -> tuple:
    r, sy, locus = ((spec.q.polarize(x, y), 1, "q(x, y) = 0") if sign == "+"
                    else (x - y, -1, "x = y"))
    if r == 0:
        raise SingularEvaluation(f"omega{sign} is singular on {locus}")
    den = r * r
    if den == 0:
        raise ValueError(f"omega{sign} at the evaluation point leaves the float range")
    (u1, v1), (u2, v2) = ((t.value(y) / den, sy * t.value(x) / den)
                          for t in spec.tau_basis)
    z = type(u1)(0)
    return ((z, z, u1, u2), (z, z, v1, v2), (-u1, -v1, z, z), (-u2, -v2, z, z))


def metric_components(spec: AnsatzSpec, metric: MetricChoice, x, y) -> tuple:
    """The 4x4 metric at (x, y), the values of `_block_jets`; Fractions when
    x and y are Fractions."""
    (a, *_), (b, *_), h, _ = _block_jets(spec, metric, x, y)
    h00, h01, h11 = (jet[0] for jet in h)
    z = type(a)(0)
    return ((a, z, z, z), (z, b, z, z), (z, z, h00, h01), (z, z, h01, h11))


def _complex_structure(spec: AnsatzSpec, sign: str, x, y) -> tuple:
    """J+- at (x, y) in the closed form of the module docstring."""
    c = -2 * spec.tau_cross
    if not is_exact(x, y):
        x, y, c = float(x), float(y), float(c)
    A, B = spec.A(x), spec.B(y)
    if A == 0 or B == 0:
        raise SingularEvaluation("A or B vanishes at the evaluation point")
    dq = (x - y) * spec.q.polarize(x, y)
    if dq == 0:
        raise SingularEvaluation("(x - y) q(x, y) vanishes at the evaluation point")
    eps = 1 if sign == "+" else -1
    (t1x, t1y), (t2x, t2y) = ((t.value(x), t.value(y)) for t in spec.tau_basis)
    Ac, Bc = A * c, eps * B * c
    z = type(dq)(0)
    return ((z, z, A * t1y / dq, A * t2y / dq),
            (z, z, eps * B * t1x / dq, eps * B * t2x / dq),
            (-t2x / Ac, t2y / Bc, z, z),
            (t1x / Ac, -t1y / Bc, z, z))


def eval_field(spec: AnsatzSpec, fieldname: str, pt: FramePoint) -> tuple:
    """One of g0, g+, g-, gp, omega+, omega-, J+, J- at pt, as a 4x4 tuple."""
    x, y = pt.x, pt.y
    if fieldname == "gp" and spec.metric.tag != GP:
        raise ValueError("spec metric is not gp")
    if fieldname in ("g0", "g+", "g-", "gp"):
        metric = spec.metric if fieldname == "gp" else MetricChoice(fieldname)
        return metric_components(spec, metric, x, y)
    if fieldname in ("omega+", "omega-"):
        return _omega_components(spec, fieldname[-1], x, y)
    if fieldname in ("J+", "J-"):
        return _complex_structure(spec, fieldname[-1], x, y)
    raise ValueError(f"unknown field {fieldname!r}")


# ---------------------------------------------------------------------------
# top-form helpers (fold degeneracy identity)
# ---------------------------------------------------------------------------

def pfaffian4(w) -> float:
    """Pfaffian of a 4x4 antisymmetric matrix: for omega, the coefficient of
    dx^dy^dt1^dt2 in omega^2 / 2 (the Liouville normalization, under which
    the fold-degeneracy identity against f^{-+2}/(A B) dx ^ dcx ^ dy ^ dcy
    holds with constant one)."""
    return w[0][1] * w[2][3] - w[0][2] * w[1][3] + w[0][3] * w[1][2]


def kaehler_volume_coefficient(J) -> float:
    """Coefficient of dx^dy^dt1^dt2 in dx ^ dcx ^ dy ^ dcy, where dc is
    taken with respect to J (dc u = -du o J): minus the minor of J's first
    two rows in the fibre columns."""
    return J[0][3] * J[1][2] - J[0][2] * J[1][3]


# ---------------------------------------------------------------------------
# curvature from the metric jet
# ---------------------------------------------------------------------------

#: float curvature refuses points below these (module docstring)
MIN_FIBRE_SINE = 5e-4
MIN_ROOT_DISTANCE = 1e-3


class CurvaturePack(Record):
    """The curvature of `_block_curvature` at a point: Fractions at Fraction
    points, floats otherwise.  `riemann` (fully lowered R_abcd, 4x4x4x4) and
    `ricci` (4x4) are arrays built from these on first read; only they load
    numpy."""

    components: tuple     # the 13 of `_COMPONENTS`
    base: tuple           # (Ric_xx, Ric_xy, Ric_yy)
    fibre: tuple          # (Ric_t1t1, Ric_t1t2, Ric_t2t1, Ric_t2t2)
    scalar: float

    @cached_property
    def riemann(self) -> np.ndarray:
        c = self.components
        values = self._array(c + (type(self.scalar)(0),) + tuple(-v for v in c))
        return values.take(_riemann_index()).reshape(4, 4, 4, 4)

    @cached_property
    def ricci(self) -> np.ndarray:
        (rxx, rxy, ryy), (r00, r01, _, r11) = self.base, self.fibre
        z = type(self.scalar)(0)
        return self._array((rxx, rxy, z, z, rxy, ryy, z, z,
                            z, z, r00, r01, z, z, r01, r11)).reshape(4, 4)

    def _array(self, entries):
        """entries as an array, of dtype object at Fraction points."""
        import numpy as np

        return np.array(entries, dtype=object if is_exact(self.scalar) else float)


#: the 13 components of `_block_curvature` as R_abcd, frame indices
#: (x, y, t1, t2) = (0, 1, 2, 3): R_xyxy, R_t1t2t1t2, R_xyt1t2, then
#: R_{i alpha j beta} for (alpha beta) = xx, yy (ij = 00, 01, 11) and
#: xy (ij = 00, 01, 10, 11)
_COMPONENTS = ((0, 1, 0, 1), (2, 3, 2, 3), (0, 1, 2, 3),
               (2, 0, 2, 0), (2, 0, 3, 0), (3, 0, 3, 0),
               (2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 3, 1),
               (2, 0, 2, 1), (2, 0, 3, 1), (3, 0, 2, 1), (3, 0, 3, 1))


@cache
def _riemann_index():
    """For each of the 256 entries of R in C order, its index into (the 13
    components, zero, the 13 negated), as an array made on first use:
    R_abcd = -R_bacd = -R_abdc = R_cdab, and an entry with an odd number of
    fibre indices is zero."""
    import numpy as np

    table = [13] * 256
    for k, (a, b, c, d) in enumerate(_COMPONENTS):
        for a, b, c, d in ((a, b, c, d), (c, d, a, b)):
            for i, j, l, m, s in ((a, b, c, d, 0), (b, a, c, d, 14),
                                  (a, b, d, c, 14), (b, a, d, c, 0)):
                table[64 * i + 16 * j + 4 * l + m] = k + s
    return np.array(table)


def _block_curvature(a, b, h) -> tuple:
    """(the 13 components of R, (Ric_xx, Ric_xy, Ric_yy), (Ric_ij), scalar)
    of a dx^2 + b dy^2 + h_ij dt_i dt_j from the second jets of a, b and
    h = (h00, h01, h11), by the closed form of the module docstring."""
    (a0, ax, ay, _, _, ayy), (b0, bx, by, bxx, _, _) = a, b
    ((p00, x00, y00, xx00, xy00, yy00), (p01, x01, y01, xx01, xy01, yy01),
     (p11, x11, y11, xx11, xy11, yy11)) = h     # symmetric 2x2 as (m00, m01, m11)
    det = p00 * p11 - p01 * p01
    if det == 0:
        raise SingularEvaluation("the fibre metric is degenerate at the evaluation point")

    def K(P0, P1, P2, Q0, Q1, Q2):
        """P H^-1 Q for symmetric P and Q, as (00, 01, 10, 11)."""
        n00, n01 = p11 * Q0 - p01 * Q1, p11 * Q1 - p01 * Q2
        n10, n11 = p00 * Q1 - p01 * Q0, p00 * Q2 - p01 * Q1
        return ((P0 * n00 + P1 * n10) / det, (P0 * n01 + P1 * n11) / det,
                (P1 * n00 + P2 * n10) / det, (P1 * n01 + P2 * n11) / det)

    def M(k00, k01, k10, k11, D0, D1, D2, gx, gy):
        """R_{i alpha j beta} from k = d_beta H H^-1 d_alpha H, D = d_alpha
        d_beta H and (gx, gy) = Gamma^(x, y)_{alpha beta}."""
        s01 = (D1 - gx * x01 - gy * y01) / 2
        return (k00 / 4 - (D0 - gx * x00 - gy * y00) / 2, k01 / 4 - s01, k10 / 4 - s01,
                k11 / 4 - (D2 - gx * x11 - gy * y11) / 2)

    def trace(m):
        """<H^-1, m> for m = (00, 01, 10, 11)."""
        return (p11 * m[0] - p01 * (m[1] + m[2]) + p00 * m[3]) / det

    a2, b2 = 2 * a0, 2 * b0
    Kyx = K(y00, y01, y11, x00, x01, x11)
    Mxx = M(*K(x00, x01, x11, x00, x01, x11), xx00, xx01, xx11, ax / a2, -ay / b2)
    Myy = M(*K(y00, y01, y11, y00, y01, y11), yy00, yy01, yy11, -bx / a2, by / b2)
    Mxy = M(*Kyx, xy00, xy01, xy11, ay / a2, bx / b2)
    r_xyxy = -(ayy + bxx) / 2 + (ax * bx + ay * ay) / (2 * a2) + (ay * by + bx * bx) / (2 * b2)
    r_fibre = -((x00 * x11 - x01 * x01) / a0 + (y00 * y11 - y01 * y01) / b0) / 4
    r_xy12 = (Kyx[1] - Kyx[2]) / 4
    (m00, m01, m10, m11), (n00, n01, n10, n11) = Mxx, Myy
    components = (r_xyxy, r_fibre, r_xy12, m00, m01, m11, n00, n01, n11) + Mxy
    base = (r_xyxy / b0 + trace(Mxx), trace(Mxy), r_xyxy / a0 + trace(Myy))
    f = r_fibre / det
    fibre = (m00 / a0 + n00 / b0 + f * p00, m01 / a0 + n01 / b0 + f * p01,
             m10 / a0 + n10 / b0 + f * p01, m11 / a0 + n11 / b0 + f * p11)
    scalar = base[0] / a0 + base[2] / b0 + trace(fibre)
    return components, base, fibre, scalar


def curvature(spec: AnsatzSpec, metric: MetricChoice, pt: FramePoint) -> CurvaturePack:
    """Riemann/Ricci/scalar from the exact second jet of the metric at pt;
    exact Fractions when pt.x and pt.y are Fractions."""
    a, b, h, (A, B, tx, ty) = _block_jets(spec, metric, pt.x, pt.y)
    if not is_exact(pt.x, pt.y):
        u1, u2, v1, v2 = tx[0][0], tx[1][0], ty[0][0], ty[1][0]
        if not (abs(u1 * v2 - u2 * v1) >= MIN_FIBRE_SINE * math.hypot(u1, u2) * math.hypot(v1, v2)
                and abs(A[0]) >= MIN_ROOT_DISTANCE * abs(A[1])
                and abs(B[0]) >= MIN_ROOT_DISTANCE * abs(B[1])):
            raise SingularEvaluation("float curvature is ill-conditioned this close "
                                     "to a fold or to a root of A or B")
    return CurvaturePack(*_block_curvature(a, b, h))


# ---------------------------------------------------------------------------
# the differential of a moment map
# ---------------------------------------------------------------------------

def moment_differential(spec: AnsatzSpec, sign: str, K: Sequence[Fraction],
                        x: float, y: float) -> tuple:
    """d mu_K at (x, y) in the frame (dx, dy, dt1, dt2): the first-order
    part of the jet of mu_K = -N(x,y)/D(x,y), with N = K1 b1 + K2 b2 and the
    denominator D of `moment.moment_map`, both in the domain `is_exact` picks."""
    b1, b2 = spec.sigma_basis if sign == "+" else spec.tau_basis
    X, Y = coordinate_jets(x, y)
    exact = is_exact(X[0], Y[0])
    k1, k2, q, u, v = (*K, spec.q.coeffs(), b1.coeffs(), b2.coeffs()) if exact else (
        *map(float, K), spec.q.floats, b1.floats, b2.floats)
    D = polar_jet(q, X, Y) if sign == "+" else (X[0] - Y[0], 1, -1, 0, 0, 0)
    mu = _mul(polar_jet([k1 * s + k2 * t for s, t in zip(u, v)], X, Y), _inv(D))
    z = type(mu[0])(0)
    return (-mu[1], -mu[2], z, z)

