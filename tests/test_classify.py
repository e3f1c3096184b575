import collections
import importlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from ambitoric import (
    AnsatzSpec,
    Interval,
    Mobius,
    Poly,
    Quadratic,
    ValidationError,
    classify,
    completability_verdict,
    mobius_transport,
    validate,
)
from ambitoric.ansatz import METRIC_G0, METRIC_GMINUS, METRIC_GPLUS, metric_gp
from ambitoric.boundary import INFINITELY_DISTANT
from ambitoric.classify import (
    RULE_CORNER,
    RULE_EDGE_NORMAL,
    RULE_FOLD_EDGE,
    RULE_PROPER_FOLD,
)

from conftest import I2, boxes_and_transports, make_spec, respec, z2_spec


def violations(verdict):
    """The reports of a verdict whose rule fails."""
    return [r for r in verdict.reports if not r.ok]


def complete_orbifold_check(q, x_interval, y_interval, lattice, A, B):
    """Global g0-completeness of the quotient: the box must be a single
    cell of (x - y) q(x, y) != 0, and that cell completable under g0
    (rules (i)-(iv)).  The diagnostics are the report lines."""
    try:
        spec = AnsatzSpec(q=q, A=A, B=B, x_interval=x_interval,
                          y_interval=y_interval, lattice=lattice, metric=METRIC_G0)
        comps = validate(spec)
    except ValidationError as err:
        return False, [f"invalid ansatz data: {err}"]
    if len(comps) != 1:
        return False, ["(x - y) q(x, y) changes sign inside the box"]
    verdict = completability_verdict(spec, comps[0])
    return verdict.completable, [r.line() for r in verdict.reports]


def test_proper_fold_blocks_completability():
    spec = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                     (1, 2), (-3, 0))
    for _comp, v in classify(spec):
        assert not v.completable
        assert any(r.rule == RULE_PROPER_FOLD for r in violations(v))


def test_accepting_box_completable(hyperbolic_spec):
    [(comp, v)] = classify(hyperbolic_spec)
    assert v.completable
    assert v.extends_ambitoric
    assert not violations(v)


def test_fold_edge_metric_rule():
    spec = make_spec(Quadratic(0, 0, 1), [-1, 1, -1, 1], [-2, -3, -1],
                     (1, None), (-2, -1))
    [(_c, v0)] = classify(spec)
    assert not v0.completable
    assert any(r.rule == RULE_FOLD_EDGE for r in violations(v0))
    [(_c, vm)] = classify(respec(spec, metric=METRIC_GMINUS))
    assert vm.completable
    assert not vm.extends_ambitoric   # the fold-edge stays finite under g-


def test_fold_corner_rule():
    spec = make_spec(Quadratic(0, 1, 0), [-3, 4, -1], [0, -1, -1],
                     (1, 3), (-1, 0))
    [(_c, v)] = classify(spec)
    assert any(r.rule == RULE_CORNER for r in violations(v))
    [(_c, vm)] = classify(respec(spec, metric=METRIC_GMINUS))
    assert vm.completable and not vm.extends_ambitoric


def test_extends_implies_completable_and_distant_folds():
    cases = [
        make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                  (1, 2), (-3, 0)),
        make_spec(Quadratic(0, 1, 0), [4, -12, 13, -6, 1],
                  [36, 60, 37, 10, 1], (1, 2), (-3, -2)),
        make_spec(Quadratic(0, 1, 0), [-3, 4, -1], [0, -1, -1],
                  (1, 3), (-1, 0), metric=METRIC_GMINUS),
    ]
    for spec in cases:
        for _comp, v in classify(spec):
            if v.extends_ambitoric:
                assert v.completable
                from ambitoric.classify import _is_fold_piece
                for r in v.reports:
                    if _is_fold_piece(r.component):
                        assert r.status.verdict == "InfinitelyDistant"


def test_lattice_monotone():
    # refining the lattice can only help: superlattice accepts whenever
    # the sublattice accepts
    spec_fine = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                          (2, 3), (-1, 0),
                          lattice=((F(1, 2), F(0)), (F(0), F(1, 2))))
    spec_coarse = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                            (2, 3), (-1, 0))
    [(_, v_coarse)] = classify(spec_coarse)
    [(_, v_fine)] = classify(spec_fine)
    if v_coarse.completable:
        assert v_fine.completable


def test_coarse_lattice_rejects():
    lat = ((F(3), F(0)), (F(0), F(3)))
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 3), (-1, 0), lattice=lat)
    [(_, v)] = classify(spec)
    assert not v.completable
    assert all(r.rule == RULE_EDGE_NORMAL for r in violations(v))


def test_verdict_gauge_invariant():
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 3), (-1, 0))
    rng = random.Random(3)
    done = 0
    while done < 5:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        try:
            spec2 = mobius_transport(spec, Mobius(a, b, c, d))
        except Exception:
            continue
        done += 1
        flags1 = [(v.completable, v.extends_ambitoric)
                  for _c, v in classify(spec)]
        flags2 = [(v.completable, v.extends_ambitoric)
                  for _c, v in classify(spec2)]
        assert flags1 == flags2


def test_p_locus_corner_rejected_under_gp():
    spec = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -1, -1],
                     (1, 2), (-1, 0), metric=metric_gp(Quadratic(1, 0, 2)))
    [(_, v)] = classify(spec)
    assert not v.completable
    bad = [r for r in violations(v) if r.rule == RULE_CORNER]
    assert bad and "P-locus" in bad[0].detail


def test_complete_orbifold_check_accepts(hyperbolic_spec):
    ok, diags = complete_orbifold_check(
        hyperbolic_spec.q, hyperbolic_spec.x_interval,
        hyperbolic_spec.y_interval, I2,
        hyperbolic_spec.A, hyperbolic_spec.B)
    assert ok, diags
    # the diagnostics are the report lines of the g0 verdict
    [comp] = validate(hyperbolic_spec)
    v = completability_verdict(hyperbolic_spec, comp)
    assert diags == [r.line() for r in v.reports]


def test_edges_at_infinity_on_opposite_unbounded_sides():
    # x in (1, oo), y in (-oo, 0): A = x - 1 and B = -y vanish to order
    # 4 - 1 = 3 at OO, so both edges at OO and the corner (oo, oo) are
    # infinitely distant; no Mobius gauge is involved
    spec = make_spec(Quadratic(0, 1, 0), [-1, 1], [0, -1], (1, None), (None, 0))
    seen = set()
    for _comp, v in classify(spec):
        for r in v.reports:
            name = r.component.describe()
            assert "gauge" not in r.line()
            if name in ("Edge X=oo", "Edge Y=oo") or name.startswith("Corner (oo, oo)"):
                assert r.ok and r.status.verdict == INFINITELY_DISTANT, r.line()
                seen.add(name.split(" [")[0])
    assert seen == {"Edge X=oo", "Edge Y=oo", "Corner (oo, oo)"}


def test_complete_orbifold_check_rejects_fold():
    ok, diags = complete_orbifold_check(
        Quadratic(0, 1, 0), Interval(1, 2), Interval(-3, 0), I2,
        Poly([-2, 3, -1]), Poly([0, -3, -1]))
    assert not ok
    assert any("fold" in d or "changes sign" in d for d in diags)


def test_cell_reports_only_the_pieces_its_closure_meets():
    # q = 2z on (-1, 1)^2: the cell (+, +) is {x > |y|}, whose closure meets
    # the edge X = 1 and, of the other edges, only the corners (1, +-1)
    spec = make_spec(Quadratic(0, 1, 0), [1, 0, -1], [1, 0, -1], (-1, 1), (-1, 1))
    [v] = [v for c, v in classify(spec) if (c.sign_xy, c.sign_q) == (1, 1)]
    names = [r.component.describe() for r in v.reports]
    assert [n for n in names if n.startswith("Edge")] == ["Edge X=1"]
    assert [n for n in names if n.startswith("Corner")] == [
        "Corner (1, -1) [on Z-]", "Corner (1, 1) [on Z+]"]
    assert sorted(n for n in names if n.startswith("Fold")) == [
        "Fold + (proper)", "Fold - (proper)"]


@pytest.mark.parametrize("name, count", [("sliver_spec", 2), ("merged_spec", 6)])
def test_every_cell_is_classified(request, name, count):
    results = classify(request.getfixturevalue(name))
    assert len(results) == count
    for _comp, v in results:
        assert any(r.rule == RULE_PROPER_FOLD for r in violations(v))


@given(boxes_and_transports())
@settings(max_examples=40, deadline=None)
def test_cells_and_verdicts_are_gauge_invariant(spec_m):
    """A Mobius transport with its pole off the closed box maps cells to
    cells one to one and keeps the verdict flags; each witness lies in its
    cell exactly."""
    spec, m = spec_m
    before, after = classify(spec), classify(mobius_transport(spec, m))
    assert len(before) == len(after)
    flags = [sorted((v.completable, v.extends_ambitoric) for _c, v in r)
             for r in (before, after)]
    assert flags[0] == flags[1]
    for comps in (before, after):
        for c, _v in comps:
            assert c.cells.cell_at(*c.witness) == c.index
    moved = after[0][0].cells
    assert {moved.cell_at(m.apply(x), m.apply(y))
            for x, y in (c.witness for c, _v in before)} == set(range(len(after)))


def test_classify_decides_each_edge_once(merged_spec, monkeypatch):
    """The six cells of merged_spec meet its four edges 8 times; classify
    decides each edge once, and every verdict equals the cell's verdict
    decided alone."""
    classify_module = importlib.import_module("ambitoric.classify")
    decide, calls = classify_module.edge_status, collections.Counter()
    monkeypatch.setattr(classify_module, "edge_status",
                        lambda spec, edge: calls.update([(edge.axis, edge.gamma)])
                        or decide(spec, edge))
    results = classify(merged_spec)
    met = collections.Counter(e for comp, _v in results for e in comp.edges)
    assert set(calls) == set(met) and set(calls.values()) == {1}
    assert len(met) == 4 and sum(met.values()) == 8
    monkeypatch.setattr(classify_module, "edge_status", decide)
    assert [v for _c, v in results] == [
        completability_verdict(merged_spec, c) for c, _v in results]


def _rule_outcomes(spec):
    return [[(r.rule, r.ok, r.status and r.status.verdict, r.status and r.status.r_exponent)
             for r in v.reports] for _c, v in classify(spec)]


@pytest.mark.parametrize("spec", [
    z2_spec([1, 0, -1], (-1, 1)),       # the proper - fold x = 0
    z2_spec([0, 0, 1, -1], (0, 1)),     # the fold-edge X = 0, a double root of A
], ids=["proper-fold", "fold-edge"])
def test_gp_with_p_a_multiple_of_q_classifies_as_gplus(spec):
    """g_p with p = lambda q is g+ / lambda^2: every report has the rule,
    outcome, verdict and r of g+, where a p orthogonal to q but not a
    multiple of it decides otherwise."""
    want = _rule_outcomes(respec(spec, metric=METRIC_GPLUS))
    for lam in (1, 3, F(-1, 2)):
        p = Quadratic(lam, 0, 0)
        assert _rule_outcomes(respec(spec, metric=metric_gp(p))) == want, lam
    assert _rule_outcomes(respec(spec, metric=metric_gp(Quadratic(0, 1, 0)))) != want
