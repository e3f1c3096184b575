"""The invariant suite of `ambitoric check`.

`run_check` evaluates the fields of `tensors` at 12 points of every cell and
judges each identity of `_CHECK_NAMES`, entry by entry, by one rule
(`relative_residual`) against one bound (`_CHECK_BOUND`).  The Hamiltonian
identities pair d mu (`tensors.moment_differential`) with omega, so `check`
loads `tensors` and not `moment`.  Only `check` loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .ansatz import conformal_factor, validate
from .cli import EXIT_INVARIANT, EXIT_OK, _dump_json, _load_spec
from .tensors import (
    FramePoint,
    eval_field,
    kaehler_volume_coefficient,
    moment_differential,
    pfaffian4,
)


def _size(m) -> float:
    """The max-norm of a matrix, or the absolute value of a number."""
    if isinstance(m, (float, int)) or type(m) is Fraction:
        return float(abs(m))
    return float(max([max(map(abs, row)) for row in m]))


def _matmul(a, b) -> tuple:
    """The product of two matrices given as nested tuples."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _sub(a, b) -> tuple:
    """The difference of two matrices given as nested tuples."""
    return tuple(tuple(u - v for u, v in zip(r, s)) for r, s in zip(a, b))


#: -Id on the frame (dx, dy, dt1, dt2)
_MINUS_ID = tuple(tuple(-1.0 if i == j else 0.0 for j in range(4)) for i in range(4))


def relative_residual(residual, *terms) -> float:
    """The max-norm of an identity's residual over the size of its largest
    term, the product of its factors' max-norms (a number is its own size):
    entries that grow like 1/q near a fold then leave only the rounding in
    the ratio.  A largest term of size 0 or inf has left the float range."""
    size = max([math.prod(map(_size, t)) for t in terms])
    if not 0 < size < math.inf:
        raise ValueError("the terms of an identity leave the float range")
    return _size(residual) / size


#: the invariants of `check`, and the one bound on their relative residuals
_CHECK_NAMES = ("J+^2=-Id", "J-J+ commute", "omega+=g+J+", "g0=f g+", "g-=f g0",
                "omega+^2 identity", "omega-^2 identity", "Hamiltonian mu+", "Hamiltonian mu-")
_CHECK_BOUND = 1e-8


def run_check(args) -> int:
    """`ambitoric check`: pass/fail counts and the worst residual of each
    invariant; exit 3 when one fails."""
    spec = _load_spec(args.spec)
    comps = validate(spec)
    judged = []                 # (name, relative residual), in the order judged

    def judge(name: str, residual, *terms):
        judged.append((name, relative_residual(residual, *terms)))

    K = (Fraction(1), Fraction(0))          # d mu_K = -K -| omega for K = d/dt1
    k1, k2 = map(float, K)
    for comp in comps:
        pts = comp.sample_points(6)
        n = min(12, len(pts))
        for x, y in (pts[i * len(pts) // n] for i in range(n)):
            pt = FramePoint(x, y)
            fields = [eval_field(spec, name, pt)
                      for name in ("g0", "g+", "g-", "omega+", "omega-", "J+", "J-")]
            g0, gp, gm, wp, wm, Jp, Jm = fields
            N0, Np, Nm, Nwp, Nwm, NJp, NJm = map(_size, fields)
            f = conformal_factor(spec, x, y)
            judge("J+^2=-Id", _sub(_matmul(Jp, Jp), _MINUS_ID), (NJp, NJp), (1,))
            judge("J-J+ commute", _sub(_matmul(Jp, Jm), _matmul(Jm, Jp)), (NJp, NJm))
            judge("omega+=g+J+", _sub(_matmul(gp, Jp), wp), (Np, NJp), (Nwp,))
            for name, g, h, Ng, Nh in (("g0=f g+", g0, gp, N0, Np), ("g-=f g0", gm, g0, Nm, N0)):
                judge(name, _sub(g, [[f * v for v in row] for row in h]), (Ng,), (f, Nh))
            AB = float(spec.A(x)) * float(spec.B(y))
            for s, w, Nw, J, NJ in (("+", wp, Nwp, Jp, NJp), ("-", wm, Nwm, Jm, NJm)):
                # omega^2 = f^-+2 / (A B) dx ^ dcx ^ dy ^ dcy; f * f may overflow to inf
                c = (f * f) ** (-1 if s == "+" else 1) / AB
                judge(f"omega{s}^2 identity",
                      pfaffian4(w) - c * kaehler_volume_coefficient(J), (Nw, Nw), (c, NJ, NJ))
                Kw = [k1 * u + k2 * v for u, v in zip(w[2], w[3])]    # K^a omega_ab
                dmu = moment_differential(spec, s, K, x, y)
                judge(f"Hamiltonian mu{s}", ([u + v for u, v in zip(dmu, Kw)],),
                      ((dmu,),), ((Kw,),))
    failures = [f"{name}: residual {r:g}" for name, r in judged if not r < _CHECK_BOUND]
    worst = dict.fromkeys(_CHECK_NAMES, 0.0)
    for name, r in judged:
        worst[name] = max(worst[name], r)
    _dump_json({"passed": len(judged) - len(failures), "failed": len(failures),
                "failures": failures,
                "worst_residual": {k: float(f"{v:.3g}") for k, v in worst.items()}}, args.out)
    return EXIT_INVARIANT if failures else EXIT_OK
