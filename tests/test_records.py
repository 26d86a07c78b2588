"""Value semantics of the package's records, as frozen dataclasses had them.

Every record type derives from nilbu.seifert.Record.  For each of them: repr
is the frozen dataclass form of the same fields, equal fields give equal
records with equal hashes, a record of another class or a tuple of the same
values is never equal, fields can be neither assigned nor deleted, and copy
and pickle give back an equal record.
"""

import copy
import dataclasses
import pickle

import pytest

from nilbu import (AbelianGroup, ConeSlide, ConeSwap, CoveringDescriptor,
                   EpiClass, EpiClassPartition, FiberFlip, FinitePresentation,
                   KleinSwap, NilManifold, SeifertInvariant, TorusShear,
                   Z2Char, char_for, h1)
from nilbu.seifert import Record


def _t2():
    return NilManifold("T", 2)


def _char(v):
    return char_for(_t2(), v=v, h=0)


def _cls(v):
    return EpiClass((_char(v),))


# class -> (a record, a record differing from it in the last field only);
# records without fields have no second one
CASES = {
    SeifertInvariant: (lambda: SeifertInvariant(0, 1, 0, ((6, 5), (2, 1), (3, 1))),
                       lambda: SeifertInvariant(0, 1, 0, ((2, 1), (3, 2), (6, 5)))),
    NilManifold: (lambda: NilManifold("236", 0, (1, 5)),
                  lambda: NilManifold("236", 0, (2, 5))),
    FinitePresentation: (lambda: FinitePresentation(("a", "b"), (((1, 2), (2, -1)),)),
                         lambda: FinitePresentation(("a", "b"), (((1, 2), (2, 1)),))),
    AbelianGroup: (lambda: AbelianGroup(1, (2,), {"a": (1, 0)}),
                   lambda: AbelianGroup(1, (2,), {"a": (1, 1)})),
    Z2Char: (lambda: _char((1, 0)), lambda: _char((0, 1))),
    FiberFlip: (lambda: FiberFlip((1,)), lambda: FiberFlip((2,))),
    ConeSwap: (lambda: ConeSwap(1, 2), lambda: ConeSwap(1, 3)),
    TorusShear: (lambda: TorusShear(1), lambda: TorusShear(2)),
    KleinSwap: (KleinSwap, None),
    ConeSlide: (ConeSlide, None),
    EpiClass: (lambda: _cls((1, 0)), lambda: _cls((0, 1))),
    EpiClassPartition: (lambda: EpiClassPartition(_t2(), (_cls((1, 0)),)),
                        lambda: EpiClassPartition(_t2(), (_cls((0, 1)),))),
    CoveringDescriptor: (
        lambda: CoveringDescriptor(_char((1, 0)), NilManifold("T", 4), 2),
        lambda: CoveringDescriptor(_char((1, 0)), NilManifold("T", 4), 3)),
}

RECORDS = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_type_is_covered():
    import nilbu
    public = {obj for obj in vars(nilbu).values()
              if isinstance(obj, type) and issubclass(obj, Record)}
    assert public == set(CASES)


@RECORDS
def test_repr_is_the_frozen_dataclass_form(cls):
    record = CASES[cls][0]()
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    assert repr(record) == repr(twin(*_values(record)))


@RECORDS
def test_equal_fields_equal_and_hash_alike(cls):
    make, other = CASES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if cls is AbelianGroup:  # gen_images is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if other is not None:
        assert a != other() and not a == other()


@RECORDS
def test_other_class_and_tuple_are_unequal(cls):
    a = CASES[cls][0]()
    assert a != _values(a) and _values(a) != a
    for other_cls, (make, _) in CASES.items():
        if other_cls is not cls:
            assert a != make() and make() != a


def test_field_free_records_of_two_classes_differ():
    assert KleinSwap() == KleinSwap() and ConeSlide() == ConeSlide()
    assert KleinSwap() != ConeSlide()
    assert hash(KleinSwap()) == hash(ConeSlide()) == hash(())


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = CASES[cls][0]()
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _values(a) == _values(CASES[cls][0]())


@RECORDS
def test_copy_and_pickle_round_trip(cls):
    a = CASES[cls][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


@pytest.mark.parametrize("cls", [NilManifold, SeifertInvariant, Z2Char],
                         ids=lambda cls: cls.__name__)
def test_not_iterable(cls):
    with pytest.raises(TypeError):
        iter(CASES[cls][0]())


def test_equal_manifolds_share_a_cache_entry():
    a, b = NilManifold("K", 7), NilManifold("K", 7)
    group = h1(a)
    hits = h1.cache_info().hits
    assert h1(b) is group
    assert h1.cache_info().hits == hits + 1
