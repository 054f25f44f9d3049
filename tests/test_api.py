"""The public API: every exported name is unique and resolves, and the
value types copy and pickle."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import curvadd
from curvadd import (
    QQ,
    Curve,
    FqContext,
    LinearizedMap,
    RationalFunction,
    UniPoly,
    affine_points,
    analyze,
    decide_by_hyperplanes,
    field_domain,
    parse_bipoly,
)


def test_all_has_no_duplicates():
    assert len(curvadd.__all__) == len(set(curvadd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in curvadd.__all__ if not hasattr(curvadd, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from curvadd import *", namespace)
    assert set(curvadd.__all__) <= set(namespace)


def _values():
    """One of each value type, over several domains."""
    f3, f5, f9 = FqContext(3), FqContext(5), FqContext(3, 2)
    g = f9.gen()
    over_q = UniPoly(QQ, (Fraction(1, 2), 0, 3))
    over_f3 = UniPoly(field_domain(f3), (1, 1))
    identity = LinearizedMap.identity(f9)
    circle = Curve(parse_bipoly("x^2 + y^2 - 1", f9))
    points = affine_points(circle)
    # over F_9 the circle has the trace map x + x^3 as a witness
    verdict = decide_by_hyperplanes(points, f9)
    assert verdict.exists_nonzero
    return [
        g + 1,
        over_q,
        UniPoly(field_domain(f5), (4, 0, 1)),
        UniPoly(field_domain(f9), (g, 1)),
        RationalFunction(over_q, UniPoly(QQ, (1, 1))),
        RationalFunction(over_f3, UniPoly(field_domain(f3), (2, 0, 1))),
        parse_bipoly("x^2 + g*y - 1", f9),
        identity,
        identity.kernel(),
        LinearizedMap(f9, [g, 1]).kernel(),
        points,
        verdict,
        analyze(circle),
    ]


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle(round_trip):
    for value in _values():
        twin = round_trip(value)
        assert type(twin) is type(value)
        assert twin == value, value


def test_six_value_types_stay_immutable():
    values = _values()[:10]
    assert {type(v).__name__ for v in values} == {
        "FqElement", "UniPoly", "RationalFunction", "SparsePoly",
        "LinearizedMap", "Subspace",
    }
    for value in values:
        for field in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field.name, None)
        assert hash(value) == hash(copy.deepcopy(value))


def test_six_value_types_refuse_new_attributes():
    """Assigning a name that is not a field raises too, and changes
    nothing.  On Python 3.10 and 3.11 the error is TypeError, not
    AttributeError: the __setattr__ that dataclass(frozen=True) writes
    calls super() with the class that slots=True then replaces."""
    for value in _values()[:10]:
        before = copy.deepcopy(value)
        with pytest.raises((TypeError, AttributeError)):
            value.extra = 1
        assert not hasattr(value, "extra")
        assert value == before and hash(value) == hash(before)
