"""`quadratics.Record` against a frozen dataclass twin of each record.

The twin of a record class is made from the class's own body (its
annotations, defaults and the methods it writes itself) by
`dataclasses.dataclass(frozen=True)`, with `field(repr=False,
compare=False)` on the record's hidden fields.  Built from the same
arguments, record and twin must agree on repr, equality and hash, and on
which arguments they reject."""

import dataclasses
import itertools
import pickle
from fractions import Fraction as F

import pytest

from ambitoric import (
    OO,
    AnsatzSpec,
    BoxComponent,
    CSCData,
    Interval,
    KerrParams,
    LineInTstar,
    MetricChoice,
    Mobius,
    Poly,
    Quadratic,
    validate,
)
from ambitoric.boundary import BoundaryComponent, DistanceStatus
from ambitoric.moment import TangencyCertificate
from ambitoric.special import CSCReport
from ambitoric.tensors import FramePoint

from conftest import respec

HIDDEN = {BoxComponent: ("cells", "index", "shared")}


def twin(cls):
    """`cls` rebuilt as a frozen dataclass from its own class body."""
    body = {k: v for k, v in vars(cls).items()
            if k not in ("__dict__", "__weakref__")
            and "<locals>" not in getattr(v, "__qualname__", "")}
    for name in HIDDEN.get(cls, ()):
        body[name] = dataclasses.field(repr=False, compare=False)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def fields(cls):
    return tuple(cls.__annotations__)


def _cells(spec):
    return [(c, {n: getattr(c, n) for n in fields(BoxComponent)}) for c in validate(spec)]


SPEC = dict(q=Quadratic(1, 0, -1), A=Poly([9, 0, -1]), B=Poly([9, 0, -1]),
            x_interval=Interval(-3, 3), y_interval=Interval(-3, 3), lattice=((1, 0), (0, 1)),
            tau_basis=(Quadratic(1, 0, 1), Quadratic(0, 1, 0)))

#: (class, [(args, kwargs), ...]): records with defaults (BoundaryComponent,
#: LineInTstar, DistanceStatus, AnsatzSpec), __post_init__ (MetricChoice,
#: AnsatzSpec), their own __init__ (Quadratic, Interval, Mobius, KerrParams) and their
#: own __repr__ (Quadratic, Interval, MetricChoice); BoxComponent, with
#: hidden fields, is built from the cells of a spec in the tests below
CASES = [
    (BoundaryComponent, [(("edge",), {"axis": "X", "gamma": F(2)}),
                         (("edge", "X", F(2)), {}),
                         (("edge",), {"axis": "X", "gamma": OO, "is_fold_and_edge": True}),
                         ((), {"kind": "corner", "corner": (F(1), OO), "on_p_locus": True}),
                         ((), {"kind": "fold", "sign": "+", "base_point": (F(1), F(-1))})]),
    (LineInTstar, [(((F(1), F(0)), F(2)), {}),
                   (((F(1), F(0)), F(2)), {"tangency": TangencyCertificate(F(1), F(0))}),
                   (((F(1), F(0)),), {"offset": F(2), "degenerate_point": (F(0), F(1))})]),
    (DistanceStatus, [(("finite",), {}), (("finite", 1.5), {}),
                      ((), {"verdict": "finite", "compatible_normal": ((F(1), F(2)), True)})]),
    (MetricChoice, [(("g0",), {}), (("g-", None), {}), (("gp", Quadratic(1, 0, 1)), {}),
                    ((), {"tag": "gp", "p": Quadratic(1, 0, 1)})]),
    (Quadratic, [((1, 0, -1), {}), ((F(1), 0, "-1"), {}), ((0, 1, 0), {})]),
    (Interval, [((-3, 3), {}), ((None, 3), {}), ((F(-3), "3"), {})]),
    (Mobius, [((1, 2, 0, 1), {}), ((0, 1, -1, 0), {}), ((2, 4, 0, 2), {})]),
    (KerrParams, [((1, F(3, 4)), {}), ((F(1), F(3, 4)), {}), ((2, 0), {})]),
    (CSCReport, [((True,), {}), ((False,), {}), ((), {"einstein": True})]),
    (FramePoint, [((0.5, -0.25), {}), ((F(1, 2), F(-1, 4)), {}), ((1.0, 2.0), {})]),
    (TangencyCertificate, [((F(1), F(0)), {}), ((F(0), F(0)), {})]),
    (AnsatzSpec, [((), SPEC),
                  ((), {**SPEC, "metric": MetricChoice("g-")}),
                  ((), {**SPEC, "tau_basis": (Quadratic(1, 0, 1), Quadratic(1, 1, 1))}),
                  ((), {**SPEC, "lattice": [[2, 0], [0, 1]]})]),
    (CSCData, [((Quadratic(0, 1, 0), Quadratic(1, 0, 0), Quadratic(1, 0, 0), Poly([1])), {})]),
]


def _built(cls, calls):
    tw = twin(cls)
    return [(cls(*a, **k), tw(*a, **k)) for a, k in calls]


def _agree(pairs):
    for rec, tw in pairs:
        assert repr(rec) == repr(tw)
        assert hash(rec) == hash(tw)
        assert rec != tw and tw != rec
        assert pickle.loads(pickle.dumps(rec)) == rec
    for (r1, t1), (r2, t2) in itertools.product(pairs, repeat=2):
        assert (r1 == r2) is (t1 == t2)
        assert (r1 != r2) is (t1 != t2)


@pytest.mark.parametrize("cls, calls", CASES, ids=[c.__name__ for c, _ in CASES])
def test_repr_eq_and_hash_equal_the_dataclass_twin(cls, calls):
    _agree(_built(cls, calls))


@pytest.mark.parametrize("cls, calls", CASES, ids=[c.__name__ for c, _ in CASES])
def test_assignment_and_deletion_raise(cls, calls):
    for rec, _tw in _built(cls, calls):
        for name in fields(cls) + ("other",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)


@pytest.mark.parametrize("cls, calls", CASES, ids=[c.__name__ for c, _ in CASES])
def test_missing_and_unknown_arguments_raise_type_error(cls, calls):
    tw = twin(cls)
    args, kwargs = calls[0]
    named = dict(zip(fields(cls), args), **kwargs)
    first = fields(cls)[0]
    every = tuple(getattr(cls(*args, **kwargs), n) for n in fields(cls))
    bad = [((), {k: v for k, v in named.items() if k != first}),     # missing
           ((), {**named, "other": 1}),                               # unknown
           ((named[first],), named),                                  # repeated
           (every + (1,), {})]                                        # too many
    for a, k in bad:
        for make in (cls, tw):
            with pytest.raises(TypeError):
                make(*a, **k)


def test_hidden_fields_stay_out_of_repr_eq_and_hash(merged_spec, sliver_spec):
    BoxTwin = twin(BoxComponent)
    pairs = [(c, BoxTwin(**named)) for spec in (merged_spec, sliver_spec)
             for c, named in _cells(spec)]
    _agree(pairs)
    for c, named in _cells(merged_spec):
        other = BoxComponent(**{**named, "index": -1, "shared": not c.shared, "cells": None})
        assert other == c and hash(other) == hash(c) and repr(other) == repr(c)
        assert "cells" not in repr(c) and "index=" not in repr(c)


def test_post_init_runs_and_rejects_as_the_twin_does():
    for cls, a in ((MetricChoice, ("gx",)), (MetricChoice, ("gp",)),
                   (MetricChoice, ("g0", Quadratic(1, 0, 0)))):
        for make in (cls, twin(cls)):
            with pytest.raises(ValueError):
                make(*a)


def test_cached_values_stay_out_of_eq_and_hash(merged_spec):
    """`cached_property` values live in the instance: a record whose caches
    are filled equals, and hashes as, a new one whose caches are empty."""
    spec = respec(merged_spec)
    assert spec.sigma_basis and spec.lattice_inverse and spec.moment_frames == {}
    validate(spec)
    fresh = respec(merged_spec)
    assert "sigma_basis" in vars(spec) and "sigma_basis" not in vars(fresh)
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    q = Quadratic(1, 0, -1)
    assert q.floats and q.numerators and "floats" in vars(q)
    assert q == Quadratic(1, 0, -1) and hash(q) == hash(Quadratic(1, 0, -1))
    [c, *_] = validate(merged_spec)
    assert c.sample_points(2)


def test_a_class_keeps_the_init_and_repr_it_defines():
    """The twin copies whatever the class holds, so these pin the class's
    own `__init__` (coercion, checks) and `__repr__` directly."""
    assert repr(Quadratic(1, 0, "-1/2")) == "Quadratic(1, 0, -1/2)"
    assert repr(Interval(None, F(3, 2))) == "Interval(-oo, 3/2)"
    assert repr(MetricChoice("gp", Quadratic(1, 0, 1))) == "MetricChoice(gp, p=Quadratic(1, 0, 1))"
    assert all(type(v) is F for v in (*vars(Quadratic(1, 0, 2)).values(),
                                      *vars(Mobius(1, 2, 0, 1)).values(),
                                      *vars(KerrParams(1, 0)).values()))
    for make, args in ((Interval, (3, -3)), (Mobius, (1, 1, 1, 1)), (KerrParams, (1, 2))):
        with pytest.raises(ValueError):
            make(*args)
