import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitoric import (
    AnsatzSpec,
    Interval,
    Mobius,
    Poly,
    Quadratic,
    ValidationError,
    conformal_factor,
    delzant_check,
    mobius_transport,
    validate,
)
from ambitoric import classify
from ambitoric.ansatz import (
    METRIC_G0,
    METRIC_GMINUS,
    METRIC_GPLUS,
    _cmp,
    _rational_between,
    _roots,
    _Surd,
    lattice_contains,
    lattice_inverse,
    metric_gp,
)
from ambitoric.gauge import transport_interval
from ambitoric.quadratics import rational_sqrt
from ambitoric.tensors import metric_components

import quadratics_reference

from conftest import (
    boxes_and_transports,
    canonical_boxes,
    geometry_specs,
    make_spec,
    respec,
    transported_boxes,
)


def test_rejects_nonpositive_A():
    # A has a root at 3 inside the interval; caught at validation time
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 4), (-1, 0))
    with pytest.raises(ValidationError):
        validate(spec)


def test_rejects_degenerate_interval():
    with pytest.raises(ValidationError):
        Interval(F(2), F(2))


def test_validate_single_component(hyperbolic_spec):
    comps = validate(hyperbolic_spec)
    assert len(comps) == 1
    assert comps[0].sign_xy == 1 and comps[0].sign_q == 1


def test_validate_finds_fold_components():
    # q = x + y changes sign on (1,2) x (-3,0)
    spec = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                     (1, 2), (-3, 0))
    comps = validate(spec)
    assert {(c.sign_xy, c.sign_q) for c in comps} == {(1, 1), (1, -1)}


def test_validate_idempotent(any_spec):
    a = [(c.sign_xy, c.sign_q) for c in validate(any_spec)]
    b = [(c.sign_xy, c.sign_q) for c in validate(any_spec)]
    assert a == b


def test_conformal_factor_exact(hyperbolic_spec):
    # f = q(x,y)/(x-y) on rationals stays rational
    f = conformal_factor(hyperbolic_spec, F(5, 2), F(-1, 2))
    assert f == F(2) / F(3)


def _assert_fibre_volume_relation(spec):
    # g+ = g0 / f and g- = f g0, so the fibre blocks h of (dt1, dt2) have
    # det h0^2 = det h+ det h-, the relation `check` tests
    for comp in validate(spec):
        x, y = comp.witness
        g0, gp, gm = (metric_components(spec, m, x, y)
                      for m in (METRIC_G0, METRIC_GPLUS, METRIC_GMINUS))
        h0, hp, hm = (g[2][2] * g[3][3] - g[2][3] * g[3][2] for g in (g0, gp, gm))
        assert isinstance(h0, F) and h0 != 0
        assert h0 * h0 == hp * hm


def test_fibre_volume_relation_is_exact(any_spec):
    _assert_fibre_volume_relation(any_spec)


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_fibre_volume_relation_on_the_geometry_specs(name):
    _assert_fibre_volume_relation(geometry_specs()[name])


def test_lattice_membership():
    lat = ((F(2), F(1)), (F(0), F(1)))   # generators (2,0) and (1,1)
    assert lattice_contains(lattice_inverse(lat), (F(3), F(1)))
    assert not lattice_contains(lattice_inverse(lat), (F(1), F(0)))


@pytest.mark.parametrize("name, coeffs", [("A", [1, 0, 0, 0, 0, 1]),
                                          ("B", [1, 0, 0, 0, 0, 0, 2])])
def test_rejects_A_or_B_of_degree_above_four(hyperbolic_spec, name, coeffs):
    # the ansatz needs weight-2 quartics: validate, classify and the Mobius
    # transport used to treat A = 1 + z^5 differently
    with pytest.raises(ValidationError, match=f"^{name} has degree"):
        respec(hyperbolic_spec, **{name: Poly(coeffs)})
    d = hyperbolic_spec.to_dict()
    d[name] = [str(c) for c in coeffs]
    with pytest.raises(ValidationError, match=f"^{name} has degree"):
        AnsatzSpec.from_dict(d)


#: rationals with zeros, signs and denominators up to 10^30
_wide = st.one_of(st.just(F(0)), st.integers(-6, 6).map(F),
                  st.fractions(min_value=-8, max_value=8, max_denominator=12),
                  st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
_radicands = st.sampled_from([F(2), F(3), F(1, 2), F(8), F(5, 3)]) | st.builds(
    F, st.integers(1, 10**30), st.integers(1, 10**30)).filter(
        lambda D: rational_sqrt(D) is None)
_surds = st.builds(_Surd, _wide, _wide.filter(bool), _radicands)
#: the values the sign cells compare: rationals, drawn surds with different
#: radicands, and the roots of quadratics as `_roots` forms them
_values = st.one_of(_wide, _surds, st.builds(
    lambda a, b, c: _roots(a, b, c), _wide, _wide, _wide).filter(bool).flatmap(
        st.sampled_from))


@given(_values, _values, _wide, _wide)
@settings(max_examples=300, deadline=None)
def test_sign_cell_comparisons_equal_their_fraction_references(a, b, dp, dr):
    """`_cmp` by integer cross-multiplication and `_rational_between` on
    integer bounds equal the Fraction bodies exactly, the latter as one
    Fraction strictly between, also next to an infinite end; surds that
    share their rational part or differ slightly are compared too."""
    near = [b]
    if isinstance(a, _Surd):
        near += [_Surd(a.p, a.r + dr, a.D) if a.r + dr else a.p,
                 _Surd(a.p + dp / 10**40, a.r, a.D)]
    for u, v in [(a, v) for v in near] + [(a, a)]:
        c = _cmp(u, v)
        assert c == quadratics_reference.cmp(u, v) == -_cmp(v, u)
        if c:
            lo, hi = (u, v) if c < 0 else (v, u)
            got = _rational_between(lo, hi)
            assert got == quadratics_reference.rational_between(lo, hi)
            assert type(got) is F and _cmp(lo, got) < 0 < _cmp(hi, got)
    for lo, hi in ((a, None), (None, a), (None, None)):
        got = _rational_between(lo, hi)
        assert got == quadratics_reference.rational_between(lo, hi) and type(got) is F


_lattice_entries = st.one_of(_wide, st.sampled_from([F(k, d) for k in range(-3, 4)
                                                     for d in (1, 2, 3)]))
_lattices = st.tuples(st.tuples(_lattice_entries, _lattice_entries),
                      st.tuples(_lattice_entries, _lattice_entries)).filter(
    lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0])


@given(_lattices, st.integers(-5, 5), st.integers(-5, 5), _wide, _wide)
@settings(max_examples=200, deadline=None)
def test_lattice_test_equals_its_fraction_reference(lattice, k1, k2, v0, v1):
    """Membership from the integer inverse equals the Fraction solve for
    members k1 col1 + k2 col2, for drawn vectors and for a drawn vector
    scaled by the denominators of its Fraction coordinates w, a member iff
    they are right.  The Delzant determinant of the member and the member
    L v, L the lcm of those denominators, is k1 L w1 - k2 L w0, a Fraction."""
    (a, b), (c, d) = lattice
    inverse = lattice_inverse(lattice)
    member = (k1 * a + k2 * b, k1 * c + k2 * d)
    w = quadratics_reference.lattice_coordinates(lattice, (v0, v1))
    L = math.lcm(w[0].denominator, w[1].denominator)
    for s in (1, w[0].denominator, w[1].denominator, L):
        vec = (s * v0, s * v1)
        assert lattice_contains(inverse, vec) == quadratics_reference.lattice_contains(
            lattice, vec)
    assert lattice_contains(inverse, member)
    det = delzant_check((member, (L * v0, L * v1), member), lattice)[0]
    assert det == k1 * L * w[1] - k2 * L * w[0] and type(det) is F


@given(boxes_and_transports(), _lattices)
@settings(max_examples=40, deadline=None)
def test_lattice_test_on_the_normals_of_transported_specs(spec_m, lattice):
    """Every compatible normal that `classify` tests, on a box and on its
    Mobius transport, has the membership of the Fraction solve."""
    spec, m = spec_m
    spec = respec(spec, lattice=lattice)
    seen = 0
    for s in (spec, mobius_transport(spec, m)):
        for _c, v in classify(s):
            for r in v.reports:
                if r.status is not None and r.status.compatible_normal is not None:
                    n, member = r.status.compatible_normal
                    assert member == quadratics_reference.lattice_contains(lattice, n)
                    seen += 1
    assert seen


def test_serialization_roundtrip(any_spec):
    d = any_spec.to_dict()
    json.dumps(d)   # must be JSON-clean
    back = AnsatzSpec.from_dict(d)
    assert back == any_spec


def test_serialization_keeps_a_basis_of_noncanonical_q():
    # from_dict needs tau_basis for any q that is not canonical up to
    # scale, whichever basis the spec carries
    spec = AnsatzSpec(q=Quadratic(1, 0, -4), A=Poly([9, 0, -1]), B=Poly([9, 0, -1]),
                      x_interval=Interval(-3, 3), y_interval=Interval(-3, 3),
                      lattice=((1, 0), (0, 1)),
                      tau_basis=(Quadratic(0, 1, 0), Quadratic(F(1, 4), 0, 1)))
    d = spec.to_dict()
    assert d["tau_basis"] == [["0", "1", "0"], ["1/4", "0", "1"]]
    assert AnsatzSpec.from_dict(d) == spec


@pytest.mark.parametrize("field, value", [
    ("q", "010"), ("A", "123"), ("B", "123"), ("x_interval", "23"),
    ("y_interval", "01"), ("lattice", "1001"), ("lattice", ["10", "01"]),
    ("tau_basis", ["010", "101"]), ("metric", {"gp": "001"}),
])
def test_a_string_where_a_list_is_required_names_the_field(hyperbolic_spec, field, value):
    # a string would otherwise be read as the list of its characters
    d = dict(hyperbolic_spec.to_dict(), **{field: value})
    with pytest.raises(ValidationError, match=f"field '{field}': expected a list"):
        AnsatzSpec.from_dict(d)


def test_sigma_basis_is_solved_once(any_spec):
    assert any_spec.sigma_basis is any_spec.sigma_basis


def test_serialization_infinite_interval():
    spec = make_spec(Quadratic(0, 0, 1), [-1, 1, -1, 1], [-2, -3, -1],
                     (1, None), (-2, -1))
    back = AnsatzSpec.from_dict(spec.to_dict())
    assert back.x_interval.hi is None
    assert back == spec


def test_gp_metric_requires_orthogonal_p(hyperbolic_spec):
    with pytest.raises(ValidationError):
        make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                  (2, 3), (-1, 0), metric=metric_gp(Quadratic(0, 1, 1)))


def test_mobius_transport_preserves_conformal_factor(hyperbolic_spec):
    m = Mobius(1, 1, 0, 1)   # z -> z + 1
    spec2 = mobius_transport(hyperbolic_spec, m)
    x, y = F(5, 2), F(-1, 2)
    assert conformal_factor(spec2, m.apply(x), m.apply(y)) == \
        conformal_factor(hyperbolic_spec, x, y)


def test_interval_transport_is_exact():
    # a translation far beyond float resolution used to read as straddling
    big = 10 ** 17
    assert (transport_interval(Interval(big, big + 1), Mobius(1, 1, 0, 1))
            == Interval(big + 1, big + 2))
    # an endpoint at the pole goes to the infinite end on its side, and a
    # map with det < 0 reverses the order
    assert transport_interval(Interval(0, 1), Mobius(0, 1, 1, 0)) == Interval(1, None)
    assert transport_interval(Interval(-1, 0), Mobius(0, 1, 1, 0)) == Interval(None, -1)
    assert transport_interval(Interval(1, None), Mobius(0, 1, 1, 0)) == Interval(0, 1)
    assert transport_interval(Interval(0, 1), Mobius(1, 0, 1, -1)) == Interval(None, 0)
    with pytest.raises(ValidationError, match="straddles"):
        transport_interval(Interval(None, 1), Mobius(0, 1, 1, 0))


def test_mobius_transport_rejects_pole_in_interval(hyperbolic_spec):
    with pytest.raises(ValidationError):
        mobius_transport(hyperbolic_spec, Mobius(0, 1, 1, F(-5, 2)))


mob_entries = st.integers(min_value=-4, max_value=4)


@given(st.tuples(mob_entries, mob_entries, mob_entries, mob_entries))
@settings(max_examples=40, deadline=None)
def test_transport_roundtrip_exact(abcd):
    spec = make_spec(Quadratic(0, 1, 0), [-12, 10, -2], [0, -2, -2],
                     (2, 3), (-1, 0))
    a, b, c, d = abcd
    if a * d - b * c == 0:
        return
    m = Mobius(a, b, c, d)
    try:
        spec2 = mobius_transport(spec, m)
    except ValidationError:
        return   # pole inside an interval: correctly refused
    assert AnsatzSpec.from_dict(spec2.to_dict()) == spec2
    spec3 = mobius_transport(spec2, m.inverse())
    assert spec3.to_dict() == spec.to_dict()


def _reference_sample_points(comp, n):
    pts = [(x, y)
           for x in comp.x_range.samples(3 * n)
           for y in comp.y_range.samples(3 * n)
           if comp.contains(x, y)]
    return pts[::max(1, len(pts) // (n * n))]


def _assert_sample_points_match(spec, ns=(2, 5, 6, 24, 28)):
    for comp in validate(spec):
        for n in ns:
            got = comp.sample_points(n)
            # a cell the grid misses gives its witness
            want = (_reference_sample_points(comp, n)
                    or [(float(comp.witness[0]), float(comp.witness[1]))])
            assert all(type(x) is float and type(y) is float for x, y in got)
            assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in want]


@pytest.mark.parametrize("name", sorted(geometry_specs()))
def test_sample_points_match_pointwise_double_loop(name):
    """The column walk keeps the points, order and floats of a double loop
    over the grid with BoxComponent.contains, at the grids of `check` (6)
    and `moment` (24) among others."""
    _assert_sample_points_match(geometry_specs()[name])


def test_sample_points_match_on_shared_and_thin_cells(sliver_spec, merged_spec):
    _assert_sample_points_match(sliver_spec)
    _assert_sample_points_match(merged_spec)


def test_sample_points_on_a_column_along_the_fold_line():
    """q = (z - 2/5)^2 has the fold line x = 2/5, which is the middle sample
    column for odd 3n; there the float q(x, y) is rounding noise of either
    sign, and the column keeps exactly the points `contains` accepts."""
    r = F(2, 5)
    spec = AnsatzSpec(q=Quadratic(1, -r, r * r), A=Poly([0, 2 * r, -1]),
                      B=Poly([-6, 5, -1]), x_interval=Interval(0, 2 * r),
                      y_interval=Interval(2, 3), lattice=((1, 0), (0, 1)),
                      tau_basis=(Quadratic(1, -r, r * r), Quadratic(0, 1, -2 * r)))
    x = spec.x_interval.samples(15)[7]
    assert x == float(r)
    assert len({spec.q.polarize(x, y) > 0 for y in spec.y_interval.samples(15)}) == 2
    _assert_sample_points_match(spec, (3, 5, 7))


@given(st.one_of(boxes_and_transports().map(lambda sm: sm[0]), transported_boxes()),
       st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_sample_points_match_pointwise_on_planted_boxes(spec, n):
    _assert_sample_points_match(spec, (n,))


#: sha256 prefixes of the sample_points(2, 5, 28) floats of every cell,
#: recorded before cells replaced sign-pair grid components
_SAMPLE_DIGESTS = {
    "case1_proper_fold": "cabe912d5f5098dd",
    "case2_fold_edge_g0": "2156373d4960cde3",
    "case3_fold_corner_g0": "d8e3466285ef6538",
    "case4_double_root_edges": "0606b6e3b58e8530",
    "case5_accept": "0a3062f314eed5dd",
    "case6_kerr_exterior": "6b6344237772fcbb",
    "case7_p_corner_gp": "0fde14a5bf4c1313",
    "case8_fold_corner_gminus": "d8e3466285ef6538",
    "kerr-exterior": "cd3c7bebe652c743",
    "kerr-interior": "8dcb462dd1260eee",
}


@pytest.mark.parametrize("name", sorted(_SAMPLE_DIGESTS))
def test_sample_points_pinned(name):
    """Where each sign pair is one cell, the cells keep the sample points,
    their order and their floats bit for bit."""
    h = hashlib.sha256()
    for comp in validate(geometry_specs()[name]):
        assert not comp.shared
        for n in (2, 5, 28):
            for x, y in comp.sample_points(n):
                h.update(f"{x.hex()},{y.hex()};".encode())
    assert h.hexdigest()[:16] == _SAMPLE_DIGESTS[name]


def test_sliver_has_two_cells(sliver_spec):
    comps = validate(sliver_spec)
    assert [(c.sign_xy, c.sign_q) for c in comps] == [(1, -1), (1, 1)]
    sliver = comps[0]
    assert sliver.corners == ((F(2), F(-201, 100)),)
    assert sliver.edges == (("X", 2), ("Y", F(-201, 100)))


def _strictly_inside(iv, v):
    return (iv.lo is None or iv.lo < v) and (iv.hi is None or v < iv.hi)


@st.composite
def line_pair_boxes(draw):
    """A canonical box with q = (z - r)^2 instead, r strictly inside the
    x-interval: {q = 0} is the line pair x = r, y = r.  No transport of a
    canonical box puts the double root inside it."""
    spec = draw(canonical_boxes(st.integers(1, 2)))
    X = spec.x_interval
    r = X.lo + (X.hi - X.lo) * draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]))
    q = Quadratic(1, -r, r * r)
    return respec(spec, q=q, tau_basis=(q, Quadratic(0, 1, -2 * r)))


@given(st.one_of(canonical_boxes(st.integers(1, 2)), transported_boxes(),
                 line_pair_boxes()))
@settings(max_examples=80, deadline=None)
def test_closure_holds_what_bounds_each_cell(spec):
    """Edges and corners are listed once each, and every fold base lies
    exactly on its fold, strictly inside the box, with the cell on the
    side of it that the cell's sign of x - y or q picks."""
    q = spec.q
    for comp in validate(spec):
        assert len(set(comp.edges)) == len(comp.edges)
        assert len(set(comp.corners)) == len(comp.corners)
        hash(comp)
        classes = [(sign, vertical) for sign, vertical, _ in comp.folds]
        assert classes == [c for c in (("+", False), ("-", True), ("-", False))
                           if c in classes]
        for sign, vertical, (x, y) in comp.folds:
            if sign == "+":
                assert x == y and not vertical
                step, s = (1, -1), comp.sign_xy
            else:
                assert q.polarize(x, y) == 0
                step, s = (q.c0 * y + q.c1, q.c0 * x + q.c1), comp.sign_q
            assert _strictly_inside(spec.x_interval, x)
            assert _strictly_inside(spec.y_interval, y)
            assert any(comp.cells.cell_at(x + s * step[0] / 2 ** k,
                                          y + s * step[1] / 2 ** k) == comp.index
                       for k in range(41))


def test_merged_box_has_six_cells(merged_spec):
    comps = validate(merged_spec)
    assert [(c.sign_xy, c.sign_q) for c in comps] == [
        (-1, -1), (-1, 1), (-1, 1), (1, -1), (1, 1), (1, 1)]
    # same-pair cells come in witness order and are told apart exactly
    assert comps[1].witness[0] < comps[2].witness[0]
    for c in comps:
        for x, y in c.sample_points(8):
            assert c.cells.cell_at(F(x), F(y)) == c.index
    # every grid point off the folds lies in exactly one cell
    for x in merged_spec.x_interval.samples(30):
        for y in merged_spec.y_interval.samples(30):
            if x != y and merged_spec.q.polarize(x, y) != 0:
                assert sum(c.contains(x, y) for c in comps) == 1


def test_witness_lies_in_its_cell(merged_spec, sliver_spec):
    for spec in (merged_spec, sliver_spec, *geometry_specs().values()):
        for c in validate(spec):
            x, y = c.witness
            assert type(x) is F and type(y) is F
            assert c.x_range.lo is None or c.x_range.lo < x
            assert c.x_range.hi is None or x < c.x_range.hi
            assert c.y_range.lo is None or c.y_range.lo < y
            assert c.y_range.hi is None or y < c.y_range.hi
            assert (x > y) - (x < y) == c.sign_xy
            qv = spec.q.polarize(x, y)
            assert (qv > 0) - (qv < 0) == c.sign_q
            assert c.cells.cell_at(x, y) == c.index
