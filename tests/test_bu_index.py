import re
from collections import Counter

import pytest

from nilbu import (InvalidCharacter, NilManifold, char_for, cup_cube_nonzero,
                   enumerate_epis, index_is_one, index_one_case, index_report,
                   index_three_case, sweep, z2_index)


def test_index_one_torus_and_klein():
    t = NilManifold("T", 3)
    assert index_is_one(char_for(t, v=(1, 0), h=0))
    t2 = NilManifold("T", 2)
    assert not index_is_one(char_for(t2, v=(0, 0), h=1))
    k = NilManifold("K", 1)
    assert index_is_one(char_for(k, v=(1, 1), h=0))
    assert not index_is_one(char_for(k, v=(1, 0), h=0))


def test_cup_cube_bundle_cases():
    t2 = NilManifold("T", 2)
    assert cup_cube_nonzero(char_for(t2, v=(0, 0), h=1))
    t4 = NilManifold("T", 4)
    assert not cup_cube_nonzero(char_for(t4, v=(0, 0), h=1))
    t6 = NilManifold("T", 6)
    assert cup_cube_nonzero(char_for(t6, v=(0, 0), h=1))
    k2 = NilManifold("K", 2)
    assert cup_cube_nonzero(char_for(k2, v=(0, 0), h=1))
    k4 = NilManifold("K", 4)
    assert not cup_cube_nonzero(char_for(k4, v=(0, 0), h=1))


def test_cup_cube_even_cone_cases():
    q = NilManifold("244", 0, (1, 3))
    assert z2_index(char_for(q, s=(1, 0, 1))) == 3
    assert z2_index(char_for(q, s=(1, 1, 0))) == 3
    assert z2_index(char_for(q, s=(0, 1, 1))) == 2
    m = NilManifold("2222", 0)
    assert all(z2_index(phi) == 2 for phi in enumerate_epis(m))
    w = NilManifold("22", 0)
    assert all(z2_index(phi) == 2 for phi in enumerate_epis(w))
    x = NilManifold("236", 0, (1, 5))
    assert all(z2_index(phi) == 2 for phi in enumerate_epis(x))


def test_cup_cube_333_cases():
    m = NilManifold("333", 1, (1, 1, 1))
    phi, = enumerate_epis(m)
    assert z2_index(phi) == 3
    m = NilManifold("333", 3, (1, 1, 1))
    phi, = enumerate_epis(m)
    assert z2_index(phi) == 2
    m = NilManifold("333", 0, (1, 1, 2))
    phi, = enumerate_epis(m)
    assert z2_index(phi) == 2
    m = NilManifold("333", 2, (1, 1, 2))
    phi, = enumerate_epis(m)
    assert z2_index(phi) == 3


def test_index_multisets():
    t2 = NilManifold("T", 2)
    assert Counter(z2_index(p) for p in enumerate_epis(t2)) == \
        Counter({1: 3, 3: 4})
    t4 = NilManifold("T", 4)
    assert Counter(z2_index(p) for p in enumerate_epis(t4)) == \
        Counter({1: 3, 2: 4})
    k2 = NilManifold("K", 2)
    assert Counter(z2_index(p) for p in enumerate_epis(k2)) == \
        Counter({3: 4, 2: 2, 1: 1})


def test_catalogs_match_generic_criteria(sweep16):
    for m in sweep16:
        for phi in enumerate_epis(m):
            index = z2_index(phi)
            assert (index == 1) == (index_one_case(m, phi) is not None), \
                (m.encode(), phi.describe())
            assert (index == 3) == (index_three_case(m, phi) is not None), \
                (m.encode(), phi.describe())


def test_index_report():
    t2 = NilManifold("T", 2)
    report = index_report(char_for(t2, v=(0, 0), h=1))
    assert report == {
        "manifold": "T(2)",
        "phi": {"s": [], "v": [0, 0], "h": 1},
        "index": 3,
        "kills_torsion": False,
        "cup_cube_nonzero": True,
        "catalog": "class T with b = 2 mod 4 and phi(h) = 1",
    }
    t3 = NilManifold("T", 3)
    report = index_report(char_for(t3, v=(1, 0), h=0))
    assert report["index"] == 1
    assert report["catalog"] == "class T with phi(h) = 0"
    t4 = NilManifold("T", 4)
    report = index_report(char_for(t4, v=(0, 0), h=1))
    assert report["index"] == 2
    assert report["catalog"] is None


@pytest.mark.parametrize("catalog", [index_one_case, index_three_case])
def test_catalogs_reject_a_character_of_another_manifold(catalog):
    # T(5)'s and T(7)'s characters are epimorphisms of their own groups and
    # have T(3)'s generator names; they still belong to another manifold
    m = NilManifold("T", 3)
    catalog(m, char_for(m, v=(1, 0), h=0))  # its own character passes
    for other in (NilManifold("T", 5), NilManifold("T", 7)):
        text = "character of %s used on T(3)" % other.encode()
        with pytest.raises(InvalidCharacter, match=re.escape(text)):
            catalog(m, char_for(other, v=(1, 0), h=0))
