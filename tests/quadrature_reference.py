"""Reference edge lengths by quadrature, the numerical cross-check of the
exact multiplicity rule of `boundary.edge_status`."""

import math
from fractions import Fraction
from typing import List, Sequence

from scipy.integrate import quad

from ambitoric import Poly


def improper_length_samples(P: Poly, gamma: Fraction, side: int,
                            outer: float, eps_list: Sequence[float]) -> List[float]:
    """Partial lengths int_{gamma+side*eps}^{gamma+side*outer} dx/sqrt|P|."""
    g = float(gamma)

    def f(x):
        return 1.0 / math.sqrt(abs(P(x)))

    out = []
    for eps in eps_list:
        a, b = g + side * eps, g + side * outer
        lo, hi = min(a, b), max(a, b)
        val, _ = quad(f, lo, hi, limit=200)
        out.append(val)
    return out
