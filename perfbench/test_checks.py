"""Tests of the benchmark's independent checks.

    python -m pytest perfbench          (from the repository root)
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import CANONICAL_Q, CANONICAL_TAU  # noqa: E402

HYP, ELL, PAR = (CANONICAL_Q[t] for t in ("Hyperbolic", "Elliptic", "Parabolic"))


@pytest.mark.parametrize("q, X, Y, n", [
    (HYP, (F(2), F(3)), (F(-1), F(0)), 1),               # off both folds
    (PAR, (F(1), F(2)), (F(-3), F(3)), 2),               # cut by x = y
    (HYP, (F(-1), F(1)), (F(-1), F(1)), 4),              # x = y and x + y = 0
    (ELL, (F(-2), F(2)), (F(-2), F(2)), 4),              # both branches of xy = -1
    ((F(1), F(0), F(-2)), (F(0), F(3)), (F(0), F(3)), 4),  # crossing at sqrt 2
    ((F(1), F(-1), F(1)), (F(0), F(2)), (F(0), F(2)), 6),  # lines x, y = 1
    (HYP, (F(1), None), (F(-2), F(-1)), 2),              # unbounded box
    # the two grid defects: a sliver, and six regions over four sign pairs
    (HYP, (F(2), F(3)), (F(-201, 100), F(-1)), 2),
    ((F(1), F(0), F(-1)), (F(-3), F(3)), (F(-3), F(3)), 6),
])
def test_count_components(q, X, Y, n):
    assert checks.count_components(q, X, Y) == n


def _grid_count(q, X, Y, n=160):
    """Flood fill over an n x n grid of rational cell centres, joining
    neighbours with the same sign pair: a slow reference for wide regions."""
    xs = [X[0] + (X[1] - X[0]) * F(2 * i + 1, 2 * n) for i in range(n)]
    ys = [Y[0] + (Y[1] - Y[0]) * F(2 * j + 1, 2 * n) for j in range(n)]
    sig = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            d, v = x - y, checks.polar(q, x, y)
            if d != 0 and v != 0:
                sig[i, j] = (d > 0, v > 0)
    seen, count = set(), 0
    for start in sig:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in sig and nb not in seen and sig[nb] == sig[i, j]:
                    seen.add(nb)
                    stack.append(nb)
    return count


def test_count_matches_flood_fill_on_wide_boxes():
    rng = random.Random(5)
    for _ in range(12):
        q = tuple(F(rng.randint(-2, 2)) for _ in range(3))
        if not any(q):
            continue
        x0, y0 = rng.randint(-3, 2), rng.randint(-3, 2)
        X, Y = (F(x0), F(x0 + rng.randint(1, 3))), (F(y0), F(y0 + rng.randint(1, 3)))
        assert checks.count_components(q, X, Y) == _grid_count(q, X, Y), (q, X, Y)


def test_folds_meet_open_box():
    assert not checks.folds_meet_open_box(HYP, (F(2), F(3)), (F(-1), F(0)))
    # q = 0 touches only the corner (1, -1)
    assert not checks.folds_meet_open_box(HYP, (F(1), F(3)), (F(-1), F(0)))
    assert checks.folds_meet_open_box(HYP, (F(1), F(2)), (F(-3), F(0)))
    assert checks.folds_meet_open_box(PAR, (F(0), F(2)), (F(1), F(3)))


def test_root_multiplicity():
    P = [F(-2), F(3), F(0), F(-1)]            # -(x - 1)^2 (x + 2)
    assert checks.root_multiplicity(P, F(1)) == 2
    assert checks.root_multiplicity(P, F(-2)) == 1
    assert checks.root_multiplicity(P, F(0)) == 0
    assert checks.root_multiplicity(P, checks.OO) == 1


def _cross(a, b):
    return (a[0] * b[1] - a[1] * b[0], (a[0] * b[2] - a[2] * b[0]) / 2,
            a[1] * b[2] - a[2] * b[1])


@pytest.mark.parametrize("ctype", ["Hyperbolic", "Elliptic", "Parabolic"])
def test_sigma_solves_the_cross_product_equation(ctype):
    q = CANONICAL_Q[ctype]
    for tau in CANONICAL_TAU[ctype]:
        s = checks.sigma(tau, q)
        assert _cross(s, q) == tuple(-t for t in tau)


@pytest.mark.parametrize("ctype, sign", sorted(checks.DISPLAYED_CONICS))
def test_own_mu_lies_on_the_displayed_conics(ctype, sign):
    q, tau = CANONICAL_Q[ctype], CANONICAL_TAU[ctype]
    basis = checks.moment_basis(sign, q, tau)
    pts = checks.fold_points(sign, q, n=8)
    assert len(pts) == 8
    for x, y in pts:
        m = checks.mu(sign, q, basis, x, y)
        assert checks.conic_value(checks.DISPLAYED_CONICS[ctype, sign], m) == 0


def test_parabolic_minus_limits_are_the_displayed_points():
    basis = checks.moment_basis("-", PAR, CANONICAL_TAU["Parabolic"])
    for s in (F(-3), F(1, 7), F(5)):
        m = checks.mu_at_infinity("-", PAR, basis, s)
        assert m in checks.DISPLAYED_POINTS["Parabolic", "-"]


def test_edge_images_are_lines():
    q, tau = HYP, CANONICAL_TAU["Hyperbolic"]
    for sign in "+-":
        basis = checks.moment_basis(sign, q, tau)
        (a1, a2), (b1, b2), (c1, c2) = [
            checks.mu(sign, q, basis, F(5, 2), s)
            for s in checks.edge_points((F(-1), F(0)))[:3]]
        assert (b1 - a1) * (c2 - a2) - (b2 - a2) * (c1 - a1) == 0


def test_edge_image_at_infinity():
    assert checks.edge_image_at_infinity("+", PAR, checks.OO)
    assert not checks.edge_image_at_infinity("-", PAR, checks.OO)
    assert checks.edge_image_at_infinity("+", (F(1), F(-1), F(1)), F(1))
    assert not checks.edge_image_at_infinity("+", HYP, F(1))


def test_proportional():
    Q = checks.DISPLAYED_CONICS["Elliptic", "-"]
    assert checks.proportional(tuple(tuple(-3 * c for c in r) for r in Q), Q)
    assert not checks.proportional(checks.DISPLAYED_CONICS["Hyperbolic", "-"], Q)


def test_scalar_closed_form_matches_the_library_formula():
    sys.path.insert(0, str(HERE.parent / "src"))
    from ambitoric import KerrParams, kerr
    from ambitoric.special import scalar_closed_form
    spec = kerr(KerrParams(1, F(1, 2)))
    for x, y in ((3.0, 0.1), (2.5, -0.3), (7.0, 0.45)):
        own = checks.scalar_minus_closed_form(tuple(spec.q.coeffs()),
                                              spec.A.coeffs, spec.B.coeffs, x, y)
        assert own == pytest.approx(scalar_closed_form(spec, "-", x, y), rel=1e-12)


def test_hull():
    hull = checks.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.9)])
    assert len(hull) == 4
    assert checks.in_hull(hull, (0.5, 0.5))
    assert checks.in_hull(hull, (1.0, 0.5))
    assert not checks.in_hull(hull, (1.2, 0.5))


SVG_TRACEBACK = """Traceback (most recent call last):
  File "cli.py", line 297, in _cmd_moment
    _line_segment(line, box), "#4e9a06", 1.0))
  File "cli.py", line 315, in _line_segment
    pts.append(((c - n2 * m2) / n1, m2))
ZeroDivisionError: float division by zero"""


def test_kept_faults_explain_only_their_own_symptoms():
    import workloads as w
    crash = w.CliRunner._crash(1, SVG_TRACEBACK)
    assert crash == "exit 1: ZeroDivisionError: float division by zero in _line_segment"
    assert w.FAULT_SVG_LINE.explains([crash])
    assert not w.FAULT_SVG_LINE.explains(
        [w.CliRunner._crash(1, SVG_TRACEBACK.replace("_line_segment", "_svg"))])
    residual = "exit 3: Hamiltonian mu+: residual 0.00020736"
    assert w.FAULT_CHECK_H.explains([residual, residual.replace("+", "-")])
    assert not w.FAULT_CHECK_H.explains([w.CliRunner._crash(1, SVG_TRACEBACK)])
    assert not w.FAULT_CHECK_H.explains([residual, "exit 3: Ricci-flat: 0.1"])
    assert not w.FAULT_CHECK_H.explains([])
    count = "1 components, 2 by exact count"
    assert w.FAULT_GRID.explains([count])
    assert not w.FAULT_GRID.explains([count, "verdicts differ from the golden file"])
    assert w.FAULT_LINE_PAIR.explains(["fold points - are not the displayed ones"])
    assert not w.FAULT_LINE_PAIR.explains(["fold points + are not the displayed ones"])
    ricci = "max |Ric| = 0.0313"
    scalar = "g- scalar / closed form = 1.001232 at (3.731, -0.07778)"
    assert w.stencil_fault(F(1, 2)) is None
    assert w.stencil_fault(F(1, 6)).explains([ricci])
    assert not w.stencil_fault(F(1, 6)).explains([ricci, scalar])
    assert w.stencil_fault(F(1, 12)).explains([ricci, scalar])
    assert not w.stencil_fault(F(1, 12)).explains([ricci])
    assert not w.stencil_fault(F(1, 3)).explains(["op raised: ValueError"])
