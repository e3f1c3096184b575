import collections
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import one_of

from ambitoric import (
    Interval,
    Mobius,
    Poly,
    Quadratic,
    decompose_boundary,
    edge_status,
    estimate_r,
    fold_status,
    mobius_transport,
    validate,
)
from ambitoric.ansatz import (
    METRIC_G0,
    METRIC_GMINUS,
    METRIC_GPLUS,
    ValidationError,
    metric_gp,
)
from ambitoric.moment import level_set_line
from ambitoric.quadratics import OO, compatible_coordinates, cross
from ambitoric.boundary import (
    CORNER,
    EDGE,
    FINITE,
    FOLD,
    INFINITELY_DISTANT,
)

import quadratics_reference as qr
from conftest import (
    Z2,
    boxes_and_pole_transports,
    boxes_and_transports,
    canonical_boxes,
    geometry_specs,
    make_spec,
    respec,
    transported_boxes,
    z2_spec,
)
from moment_reference import reference_coordinates
from quadrature_reference import improper_length_samples


def _edges(spec):
    comp = validate(spec)[0]
    return [c for c in decompose_boundary(spec, comp) if c.kind == EDGE]


def test_simple_root_edge_is_finite(hyperbolic_spec):
    for e in _edges(hyperbolic_spec):
        st = edge_status(hyperbolic_spec, e)
        assert st.verdict == FINITE
        assert st.verdict == FINITE
        n, _member = st.compatible_normal
        # normals of this box are integral
        assert all(v.denominator == 1 for v in n)


def test_double_root_edge_infinitely_distant():
    # A = (x-1)^2 (x-2)^2 + shifted so roots at the endpoints are double
    spec = make_spec(Quadratic(0, 1, 0),
                     [4, -12, 13, -6, 1], [36, 60, 37, 10, 1],
                     (1, 2), (-3, -2))
    for e in _edges(spec):
        st = edge_status(spec, e)
        assert st.verdict == INFINITELY_DISTANT


def test_nonvanishing_endpoint_rejected():
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (F(21, 10), F(29, 10)), (-1, 0))
    from ambitoric import ValidationError
    e = _edges(spec)[0]
    with pytest.raises(ValidationError):
        edge_status(spec, e)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings(
    "ignore:The occurrence of roundoff error")
def test_quadrature_crosscheck_multiplicity_rule():
    rng = random.Random(11)
    for _ in range(10):
        mult = rng.choice([1, 2])
        # P = (x - 1)^mult * (positive factor)
        base = Poly([1, 0, F(rng.randint(1, 4))])
        root = Poly([-1, 1])
        P = base
        for _ in range(mult):
            P = P * root
        eps = [10.0 ** (-k) for k in range(2, 7)]
        vals = improper_length_samples(P, F(1), +1, 0.5, eps)
        if mult == 1:
            assert vals[-1] - vals[0] < 1.0          # converges
        else:
            assert vals[-1] > vals[0] + 2.0          # log divergence


def test_compatible_quadratic_vanishes_iff_double_root():
    q = Quadratic(1, -1, 1)   # (z-1)^2
    tau = (q, Quadratic(1, 0, -1))
    spec = make_spec(q, [1], [1], (2, 3), (-1, 0), tau_basis=tau)
    assert compatible_coordinates(q, spec.tau_dual, 1, 1) is None
    # at z = 2, u / k are the tau coordinates of (z - 2)^2 x q, not zero
    u1, u2, k = compatible_coordinates(q, spec.tau_dual, 2, 1)
    assert (u1, u2) != (0, 0)
    assert qr.plus(tau[0].scaled(F(u1, k)), tau[1].scaled(F(u2, k))) == cross(Quadratic(1, -2, 4), q)


def _check_fold_r(spec, comp, sign, expect):
    """Under each metric, the analytic r of the cell's proper `sign` fold is
    `expect[metric]`, and `estimate_r` fits it within 0.05."""
    [fold] = [c for c in decompose_boundary(spec, comp)
              if c.kind == FOLD and c.sign == sign]
    for met, r in expect.items():
        s = respec(spec, metric=met)
        st = fold_status(s, fold)
        assert st.r_exponent == r, met
        assert abs(estimate_r(s, fold) - r) < 0.05, met
        assert (st.verdict == INFINITELY_DISTANT) == (r >= 1.0)


def test_fold_r_exponents_positive_fold():
    # diagonal crosses the box: proper positive fold; p = 2z is orthogonal to
    # the parabolic q = 1, and so is p = q
    spec = make_spec(Quadratic(0, 0, 1), [-2, 3, -1], [0, 3, -1],
                     (1, 2), (0, 3))
    comp = [c for c in validate(spec) if c.sign_xy == 1][0]
    expect = {METRIC_G0: 0.0, METRIC_GPLUS: -0.5, METRIC_GMINUS: 0.5,
              metric_gp(Quadratic(0, 1, 0)): -0.5,
              metric_gp(Quadratic(0, 0, 1)): -0.5}
    _check_fold_r(spec, comp, "+", expect)


def test_fold_r_exponents_negative_fold():
    spec = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                     (1, 2), (-3, 0))
    comp = [c for c in validate(spec) if c.sign_q == 1][0]
    expect = {METRIC_G0: 0.0, METRIC_GPLUS: 0.5, METRIC_GMINUS: -0.5,
              metric_gp(Quadratic(1, 0, -4)): -0.5}
    _check_fold_r(spec, comp, "-", expect)
    # q = z^2: the fold x = 0 crosses the box; under gp with p = q it is
    # also the P-locus, and g_p = g+ / 9 for p = -3 q
    expect = {METRIC_G0: 0.0, METRIC_GPLUS: 0.5, METRIC_GMINUS: -0.5,
              metric_gp(Quadratic(0, 1, 0)): -0.5,
              metric_gp(Z2): 0.5, metric_gp(Quadratic(-3, 0, 0)): 0.5}
    spec = z2_spec([1, 0, -1], (-1, 1))
    for comp in validate(spec):
        _check_fold_r(spec, comp, "-", expect)


def test_p_locus_infinitely_distant():
    # gp with P-locus crossing the component interior
    p = Quadratic(1, 0, -4)   # xy = 4 passes through (2.5, 1.6)
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, 3, -1],
                     (2, 3), (F(5, 4), F(7, 4)), metric=metric_gp(p))
    comp = validate(spec)[0]
    ploci = [c for c in decompose_boundary(spec, comp) if c.kind == "PLocus"]
    assert ploci
    st = fold_status(spec, ploci[0])
    assert st.r_exponent == 1.0
    assert st.verdict == INFINITELY_DISTANT
    assert abs(estimate_r(spec, ploci[0]) - 1.0) < 0.05


def test_estimate_r_runs_without_numpy():
    """estimate_r is plain Python: with numpy blocked, it still fits the
    analytic r of case1's proper - fold under g0."""
    golden = pathlib.Path(__file__).parent / "golden" / "case1_proper_fold.json"
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ambitoric import (AnsatzSpec, decompose_boundary,\n"
        "                       estimate_r, fold_status, validate)\n"
        f"spec = AnsatzSpec.from_dict(json.load(open({str(golden)!r}))['spec'])\n"
        "[fold] = [c for c in decompose_boundary(spec, validate(spec)[0])\n"
        "          if c.kind == 'Fold' and c.sign == '-']\n"
        "r = fold_status(spec, fold).r_exponent\n"
        "assert abs(estimate_r(spec, fold) - r) < 0.05, r\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def _edges_by_level(spec):
    return {(e.axis, e.gamma): e for comp in validate(spec)
            for e in decompose_boundary(spec, comp) if e.kind == EDGE}


@given(one_of(boxes_and_transports(), boxes_and_pole_transports()))
@example((make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, 1, -1], (1, 2), (0, 1)),
          Mobius(0, 1, 1, -1)))
@settings(max_examples=60, deadline=None)
def test_edge_status_gauge_invariant(spec_m):
    """Moving the box by a Mobius map, also one that sends an endpoint to
    OO, keeps edge by edge the verdict, the exact compatible normal with its
    lattice membership, and the mu- image line.  (mu+ shifts by a constant
    under transport, so its lines are left out.)  The example shares the
    endpoint 1 between x and y, so the moved box is unbounded on both sides
    of OO."""
    spec, m = spec_m
    moved = mobius_transport(spec, m)
    before, after = _edges_by_level(spec), _edges_by_level(moved)
    assert {(axis, m.apply(g)) for axis, g in before} == set(after)
    for (axis, g), edge in before.items():
        mg = m.apply(g)
        st, st_moved = (edge_status(s, e)
                        for s, e in ((spec, edge), (moved, after[(axis, mg)])))
        assert (st.verdict, st.compatible_normal) == \
            (st_moved.verdict, st_moved.compatible_normal)
        lines = [level_set_line(s, "-", axis, h) for s, h in ((spec, g), (moved, mg))]
        assert len({(ln.normal, ln.offset, ln.degenerate_point) for ln in lines}) == 1


def test_edge_at_infinity_handled():
    spec = make_spec(Quadratic(0, 0, 1), [-1, 1, -1, 1], [-2, -3, -1],
                     (1, None), (-2, -1))
    edges = _edges(spec)
    inf_edges = [e for e in edges if e.gamma is OO]
    assert len(inf_edges) == 1
    st = edge_status(spec, inf_edges[0])
    # cubic A: multiplicity 4 - 3 = 1 at infinity, fold-edge there
    assert inf_edges[0].is_fold_and_edge
    assert st.verdict == FINITE


def test_p_locus_is_reported_in_the_cells_it_crosses(merged_spec):
    # {xy = -1} crosses two of the six cells of the merged box
    spec = respec(merged_spec, metric=metric_gp(Quadratic(1, 0, 1)))
    comps = validate(spec)
    cells = comps[0].cells
    crossed = {cells.cell_at(x, -1 / x) for x in (F(k, 50) for k in range(-149, 150))
               if x and abs(1 / x) < 3} - {None}
    reported = set()
    for c in comps:
        for b in decompose_boundary(spec, c):
            if b.kind == "PLocus":
                x, y = b.base_point
                assert x * y == -1 and cells.cell_at(x, y) == c.index
                reported.add(c.index)
    assert reported == crossed and len(crossed) == 2


def test_p_locus_line_pair():
    # p = z^2 vanishes on x = 0, which crosses the box; y = 0 misses it
    spec = make_spec(Quadratic(0, 1, 0), [1, 0, -1], [-6, 5, -1], (-1, 1), (2, 3),
                     metric=metric_gp(Quadratic(1, 0, 0)))
    [comp] = validate(spec)
    [plocus] = [b for b in decompose_boundary(spec, comp) if b.kind == "PLocus"]
    assert plocus.base_point[0] == 0 and 2 < plocus.base_point[1] < 3
    assert abs(estimate_r(spec, plocus) - 1.0) < 0.05


def _through_corner(spec, comps):
    """A gp spec whose p (orthogonal to q) vanishes at the first box corner,
    so that corner lies on the P-locus; None when no corner has one."""
    for comp in comps:
        for gx, gy in comp.corners:
            (X, W), (Y, V) = qr.proj_rep(gx), qr.proj_rep(gy)
            # p(gx, gy) = -<p, (W z - X)(V z - Y)>, and p = q x l is orthogonal to l
            p = cross(spec.q, Quadratic(W * V, -(W * Y + X * V) / 2, X * Y))
            if not p.is_zero():
                return respec(spec, metric=metric_gp(p))
    return None


def _check_boundary_against_fraction_formulas(spec, seen):
    """Every compatible normal of `edge_status` is
    s reference_coordinates(qr.compatible_quadratic(q, gamma), '-')[:2] / D
    with D = P'(gamma), or -a3 at OO, from Fraction formulas, and its
    lattice membership is the Fraction test; every corner flag of
    `decompose_boundary` is X V - Y W = 0, q(X, W, Y, V) = 0 or
    p(X, W, Y, V) = 0 at the Fraction representatives."""
    comps = validate(spec)
    for s in filter(None, (spec, _through_corner(spec, comps))):
        p = s.metric.p
        for comp in comps:
            for c in decompose_boundary(s, comp):
                if c.kind == CORNER:
                    (X, W), (Y, V) = (qr.proj_rep(g) for g in c.corner)
                    flags = (c.on_positive_fold, c.on_negative_fold, c.on_p_locus)
                    assert flags == (X * V - Y * W == 0,
                                     qr.polarize_hom(s.q, X, W, Y, V) == 0,
                                     p is not None and qr.polarize_hom(p, X, W, Y, V) == 0)
                    seen.update(f for f, hit in zip(("Z+", "Z-", "P"), flags) if hit)
                if c.kind != EDGE or c.is_fold_and_edge or s is not spec:
                    continue
                try:
                    st_ = edge_status(s, c)
                except ValidationError:
                    continue            # an end that is no root of A or B (Kerr)
                if st_.compatible_normal is None:
                    continue
                P, g = (s.A if c.axis == "X" else s.B), c.gamma
                D = -P.coeffs[3] if g is OO else qr.poly_jet(P.coeffs, g, 2)[1]
                v = reference_coordinates(s, qr.compatible_quadratic(s.q, g), "-")
                sc = (-2 if c.axis == "X" else 2) / D
                want = (sc * v[0], sc * v[1])
                n, member = st_.compatible_normal
                assert n == want and all(type(w) is F for w in n)
                assert member == qr.lattice_contains(s.lattice, want)
                seen.update(["OO normal" if g is OO else "normal",
                             "in lattice" if member else "not in lattice"])


def test_geometry_specs_boundary_equals_the_fraction_formulas():
    """The goldens and Kerr hold corners on Z+, on Z- and on the P-locus
    and finite normals in and out of the lattice; A with a simple root at
    OO off the folds adds a normal at OO."""
    seen = collections.Counter()
    at_infinity = make_spec(Quadratic(0, 1, 0), [-1, 1, -1, 1], [-2, -3, -1],
                            (1, None), (-2, -1))
    for spec in [*geometry_specs().values(), at_infinity]:
        _check_boundary_against_fraction_formulas(spec, seen)
    assert set(seen) == {"Z+", "Z-", "P", "normal", "OO normal",
                         "in lattice", "not in lattice"}, seen


_LATTICES = (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((F(1, 2), 0), (0, 3)),
             ((1, 1), (-1, 2)), ((F(2, 3), F(1, 3)), (0, F(1, 5))))


@given(one_of(canonical_boxes(), transported_boxes(),
              boxes_and_pole_transports().map(lambda sm: mobius_transport(*sm))),
       st.sampled_from(_LATTICES))
@settings(max_examples=80, deadline=None)
def test_boundary_from_integer_ends_equals_the_fraction_formulas(spec, lattice):
    """Boxes of all three conic types, their Mobius transports and
    transports that send an end to OO, under several lattices: edge normals,
    their lattice membership and corner flags equal the Fraction formulas
    (`_check_boundary_against_fraction_formulas`), under g0 and under a gp
    whose P-locus passes through a corner."""
    _check_boundary_against_fraction_formulas(respec(spec, lattice=lattice),
                                              collections.Counter())
