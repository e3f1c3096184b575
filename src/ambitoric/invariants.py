"""The invariant suite of `ambitoric check`.

`run_check` evaluates the fields of `tensors` at 12 points of every cell and
judges each identity by a relative residual (`relative_residual`) against
its bound in `_CHECK_BOUNDS`.  The Hamiltonian identities pair d mu with
omega through `tensors.hamiltonian_residual`, so `check` loads `tensors`
and not `moment`.  Only `check` loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .ansatz import conformal_factor, validate
from .cli import EXIT_INVARIANT, EXIT_OK, _dump_json, _load_spec
from .tensors import (
    FramePoint,
    eval_field,
    hamiltonian_residual,
    kaehler_volume_coefficient,
    pfaffian4,
)


def _size(m) -> float:
    """The max-norm of a matrix, or the absolute value of a number."""
    if isinstance(m, (int, float, Fraction)):
        return abs(float(m))
    return max(abs(float(v)) for row in m for v in row)


def _matmul(a, b) -> tuple:
    """The product of two matrices given as nested tuples."""
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in zip(*b))
                 for row in a)


def _sub(a, b) -> tuple:
    """The difference of two matrices given as nested tuples."""
    return tuple(tuple(u - v for u, v in zip(r, s)) for r, s in zip(a, b))


#: -Id on the frame (dx, dy, dt1, dt2)
_MINUS_ID = tuple(tuple(-1.0 if i == j else 0.0 for j in range(4)) for i in range(4))


def relative_residual(residual, *terms) -> float:
    """The size of an identity's residual over the size of its largest
    term, where the size of a term is the product of the sizes of its
    factors: entries that grow like 1/q near a fold then leave only the
    rounding in the ratio."""
    return _size(residual) / max(math.prod(_size(f) for f in t) for t in terms)


#: bounds of the invariants of `check`, on relative residuals
_CHECK_BOUNDS = {"J+^2=-Id": 1e-8, "J-J+ commute": 1e-8, "omega+=g+J+": 1e-8,
                 "g0=f g+": 1e-8, "omega+^2 identity": 1e-8,
                 "omega-^2 identity": 1e-8, "fibre volume relation": 1e-6,
                 "Hamiltonian mu+": 1e-8, "Hamiltonian mu-": 1e-8}


def run_check(args) -> int:
    """`ambitoric check`: pass/fail counts and the worst residual of each
    invariant; exit 3 when one fails."""
    spec = _load_spec(args.spec)
    comps = validate(spec)
    passed = failed = 0
    failures: List[str] = []
    worst = dict.fromkeys(_CHECK_BOUNDS, 0.0)

    def record(name: str, res: float):
        nonlocal passed, failed
        worst[name] = max(worst[name], res)
        if res < _CHECK_BOUNDS[name]:
            passed += 1
        else:
            failed += 1
            failures.append(f"{name}: residual {res:g}")

    K = (Fraction(1), Fraction(0))
    for comp in comps:
        pts = comp.sample_points(6)
        n = min(12, len(pts))
        for x, y in (pts[i * len(pts) // n] for i in range(n)):
            pt = FramePoint(x, y)
            g0, gp, gm, wp, wm, Jp, Jm = (
                eval_field(spec, name, pt)
                for name in ("g0", "g+", "g-", "omega+", "omega-", "J+", "J-"))
            record("J+^2=-Id", relative_residual(_sub(_matmul(Jp, Jp), _MINUS_ID),
                                                 (Jp, Jp), (_MINUS_ID,)))
            record("J-J+ commute", relative_residual(
                _sub(_matmul(Jp, Jm), _matmul(Jm, Jp)), (Jp, Jm)))
            record("omega+=g+J+", relative_residual(_sub(_matmul(gp, Jp), wp),
                                                    (gp, Jp), (wp,)))
            f = conformal_factor(spec, x, y)
            fgp = tuple(tuple(f * v for v in row) for row in gp)
            record("g0=f g+", relative_residual(_sub(g0, fgp), (g0,), (f, gp)))
            for s, ex, w, J in (("+", -2, wp, Jp), ("-", 2, wm, Jm)):
                lhs = pfaffian4(w)
                rhs = (f ** ex / (float(spec.A(x)) * float(spec.B(y)))
                       * kaehler_volume_coefficient(J))
                record(f"omega{s}^2 identity", abs(lhs - rhs) / max(1.0, abs(lhs)))
            # det h of the (dt1, dt2) blocks: h+ = h0 / f and h- = f h0
            h0, hp, hm = (g[2][2] * g[3][3] - g[2][3] * g[3][2] for g in (g0, gp, gm))
            record("fibre volume relation",
                   relative_residual(h0 * h0 - hp * hm, (h0, h0), (hp, hm)))
            for s, w in (("+", wp), ("-", wm)):
                record(f"Hamiltonian mu{s}", hamiltonian_residual(spec, s, K, x, y, w))
    report = {"passed": passed, "failed": failed, "failures": failures,
              "worst_residual": {k: float(f"{v:.3g}") for k, v in worst.items()}}
    _dump_json(report, args.out)
    return EXIT_OK if failed == 0 else EXIT_INVARIANT
