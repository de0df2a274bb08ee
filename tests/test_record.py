"""record, the value-class decorator: fields from the annotations, defaults
from class attributes, __post_init__, equality and hashing on the field
tuple, no assignment or deletion, the repr; and the library's records,
every one of which is such a value."""

import json
from fractions import Fraction

import pytest

from aquiver.ar import PROVEN_NONEXISTENT, ar_ending_at
from aquiver.homological import proj_presentation
from aquiver.jsonio import parse_document
from aquiver.intervals import Interval
from aquiver.orientation import Orientation
from aquiver.record import record


@record
class Point:
    x: int
    y: int = 0
    tag: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative x")


@record
class Twin:
    x: int
    y: int
    tag: str


def _fields(value) -> tuple:
    return tuple(getattr(value, n) for n in type(value).__annotations__)


def test_positional_keyword_and_default_arguments():
    assert _fields(Point(1)) == (1, 0, "p")
    assert _fields(Point(1, 2, tag="q")) == (1, 2, "q")
    assert Point(y=3, x=1) == Point(1, 3)
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, "q", 4)


def test_post_init_runs_and_may_set_through_object():
    with pytest.raises(ValueError, match="negative x"):
        Point(-1)

    @record
    class Squared:
        n: int

        def __post_init__(self):
            object.__setattr__(self, "square", self.n * self.n)

    assert Squared(3).square == 9


def test_equality_only_against_the_same_class():
    assert Point(1, 2) == Point(1, 2)
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2, "p") != Twin(1, 2, "p")
    assert Point(1, 2) != (1, 2, "p")
    assert Point(1).__eq__((1, 0, "p")) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Point(1, 2)) == hash((1, 2, "p"))
    assert len({Point(1), Point(1, 0), Point(2)}) == 2


def test_no_assignment_or_deletion():
    p = Point(1)
    for name in ("x", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 2)
    with pytest.raises(AttributeError):
        del p.x
    assert p == Point(1) and not hasattr(p, "other")


def test_repr_names_each_field():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, tag='p')"


def test_a_field_without_a_default_may_not_follow_one_with_one():
    with pytest.raises(TypeError, match="Late: a field without a default follows one with one"):
        @record
        class Late:
            x: int = 0
            y: int


ZIGZAG = Orientation.make([(0, "sink"), (1, "source")])


def _library_records():
    doc = parse_document(json.dumps({
        "orientation": {"criticals": [{"pos": "0", "kind": "sink"}]},
        "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False, "mult": 2}]}))
    exists = ar_ending_at(ZIGZAG, Interval.make(Fraction(1, 4), Fraction(1, 2), False, True))
    none = ar_ending_at(ZIGZAG, Interval.point(Fraction(1, 2)))
    assert exists.sequence is not None and none.status == PROVEN_NONEXISTENT
    pres = proj_presentation(ZIGZAG, Interval.make(0, 1, True, True))
    return [doc, pres, pres.p0[0], exists, exists.sequence, none, ZIGZAG,
            ZIGZAG.segments[0], Interval.point(0)]


@pytest.mark.parametrize("value", _library_records(),
                         ids=lambda v: type(v).__name__)
def test_library_records_are_values(value):
    fields = _fields(value)
    assert type(value)(*fields) == value
    try:
        expected = hash(fields)
    except TypeError:  # a field that is a list or a multiset has no hash
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    first = next(iter(type(value).__annotations__))
    with pytest.raises(AttributeError):
        setattr(value, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert _fields(value) == fields
