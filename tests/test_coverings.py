from fractions import Fraction
from itertools import combinations

import pytest

from nilbu import (InvalidCharacter, NilManifold, char_for, double_cover,
                   enumerate_epis, equivalence_classes, euler_number,
                   expected_quotient_diagram, quotients_of, sweep,
                   verify_cover)
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _cover(m, s=(), v=(), h=0):
    return double_cover(char_for(m, s=s, v=v, h=h))


def test_torus_bundle_covers():
    assert _cover(NilManifold("T", 3), v=(0, 1), h=0) == NilManifold("T", 6)
    assert _cover(NilManifold("T", 4), v=(0, 0), h=1) == NilManifold("T", 2)


def test_klein_bundle_covers():
    assert _cover(NilManifold("K", 3), v=(1, 0), h=0) == NilManifold("K", 6)
    assert _cover(NilManifold("K", 3), v=(1, 1), h=0) == NilManifold("T", 6)
    assert _cover(NilManifold("K", 4), v=(0, 0), h=1) == NilManifold("K", 2)


def test_two_cone_covers():
    assert _cover(NilManifold("22", 1), s=(1, 1), v=(0,)) == NilManifold("K", 4)
    assert _cover(NilManifold("22", 1), s=(0, 0), v=(1,)) == NilManifold("2222", 2)


def test_four_cone_covers():
    assert _cover(NilManifold("2222", 1), s=(1, 1, 0, 0)) == NilManifold("2222", 4)
    assert _cover(NilManifold("2222", 1), s=(1, 1, 1, 1)) == NilManifold("T", 6)


def test_236_covers():
    assert _cover(NilManifold("236", 1, (1, 1)), s=(1, 0, 1)) == \
        NilManifold("333", 3, (1, 1, 1))
    assert _cover(NilManifold("236", 2, (2, 5)), s=(1, 0, 1)) == \
        NilManifold("333", 6, (2, 2, 2))


def test_244_covers():
    m = NilManifold("244", 2, (1, 3))
    assert _cover(m, s=(0, 1, 1)) == NilManifold("2222", 5)
    assert _cover(m, s=(1, 1, 0)) == NilManifold("244", 5, (3, 3))
    assert _cover(m, s=(1, 0, 1)) == NilManifold("244", 6, (1, 1))
    q = NilManifold("244", 1, (3, 3))
    assert _cover(q, s=(1, 0, 1)) == NilManifold("244", 4, (3, 3))
    assert _cover(q, s=(1, 1, 0)) == NilManifold("244", 4, (3, 3))
    assert _cover(q, s=(0, 1, 1)) == NilManifold("2222", 4)


def test_333_covers():
    assert _cover(NilManifold("333", 2, (1, 1, 2)), s=(1, 1, 0), h=1) == \
        NilManifold("333", 0, (1, 2, 2))
    assert _cover(NilManifold("333", 1, (1, 1, 1)), s=(1, 1, 1), h=1) == \
        NilManifold("333", -1, (2, 2, 2))


def test_cover_euler_number_scaling():
    for m in [NilManifold("T", 4), NilManifold("22", 0),
              NilManifold("244", 0, (1, 3))]:
        e = euler_number(m.seifert())
        for phi in enumerate_epis(m):
            cover = double_cover(phi)
            expected = e / 2 if phi.h else 2 * e
            assert euler_number(cover.seifert()) == expected


def test_double_cover_rejects_bad_characters():
    m = NilManifold("T", 3)
    with pytest.raises(InvalidCharacter):
        double_cover(char_for(m, v=(0, 0), h=0))
    with pytest.raises(InvalidCharacter):
        double_cover(char_for(m, v=(0, 0), h=1))


def test_verify_cover_accepts_truth():
    m = NilManifold("T", 3)
    phi = char_for(m, v=(0, 1), h=0)
    assert verify_cover(phi, NilManifold("T", 6))
    k = NilManifold("K", 2)
    tau = char_for(k, v=(0, 0), h=1)
    assert verify_cover(tau, NilManifold("K", 1))


def test_verify_cover_rejects_wrong_homology():
    m = NilManifold("T", 3)
    phi = char_for(m, v=(0, 1), h=0)
    assert not verify_cover(phi, NilManifold("T", 12))


def test_verify_cover_rejects_wrong_euler_number():
    # K(1) and K(3) have the same H1, so only the Euler check separates them
    k = NilManifold("K", 2)
    tau = char_for(k, v=(0, 0), h=1)
    assert not verify_cover(tau, NilManifold("K", 3))


def test_quotient_search_torus_bundles():
    descs = quotients_of(NilManifold("T", 1))
    assert [(d.base, d.index) for d in descs] == [(NilManifold("T", 2), 3)]
    d, = descs
    assert d.cover == NilManifold("T", 1)
    assert d.phi.bits == (0, 0, 1)
    assert double_cover(d.phi) == d.cover
    assert d.to_json_dict() == {"base": "T(2)",
                                "phi": {"s": [], "v": [0, 0], "h": 1},
                                "cover": "T(1)", "index": 3}

    descs = quotients_of(NilManifold("T", 2))
    assert [(d.base, d.index) for d in descs] == [
        (NilManifold("2222", -1), 2),
        (NilManifold("K", 1), 1),
        (NilManifold("T", 1), 1),
        (NilManifold("T", 4), 2),
    ]


def test_quotient_search_klein_bundles():
    descs = quotients_of(NilManifold("K", 2))
    assert [(d.base, d.index) for d in descs] == [
        (NilManifold("22", 0), 2),
        (NilManifold("K", 1), 2),
        (NilManifold("K", 4), 2),
    ]


def test_quotient_search_2222():
    descs = quotients_of(NilManifold("2222", 0))
    assert [(d.base, d.index) for d in descs] == [
        (NilManifold("22", 0), 2),
        (NilManifold("2222", -1), 2),
        (NilManifold("244", -1, (3, 3)), 2),
        (NilManifold("244", 0, (1, 1)), 2),
    ]


def test_quotient_search_333():
    descs = quotients_of(NilManifold("333", 1, (1, 1, 1)))
    assert [(d.base, d.index) for d in descs] == [
        (NilManifold("236", 0, (1, 1)), 2),
        (NilManifold("333", 2, (2, 2, 2)), 2),
    ]
    descs = quotients_of(NilManifold("333", 0, (1, 1, 2)))
    assert [(d.base, d.index) for d in descs] == [
        (NilManifold("236", -1, (1, 5)), 2),
        (NilManifold("333", 1, (1, 2, 2)), 2),
    ]


def test_never_covers():
    for m in [NilManifold("22", 0), NilManifold("236", 0, (1, 1)),
              NilManifold("244", 0, (1, 3))]:
        assert quotients_of(m) == ()
        assert expected_quotient_diagram(m) == ()


def test_expected_diagram_matches_search(sweep16):
    for m in sweep16[:60]:
        got = tuple((d.base, d.index) for d in quotients_of(m))
        assert got == expected_quotient_diagram(m), m.encode()


def test_a_descriptor_reads_its_base_from_its_character():
    for m in sweep(8):
        for d in quotients_of(m):
            assert d.base is d.phi.manifold
            assert d.to_json_dict()["base"] == d.phi.manifold.encode()


@pytest.mark.parametrize("family, betas", sorted(ROWS))
@settings(max_examples=10, deadline=None)
@given(offset=st.integers(0, 10 ** 12))
def test_distinct_classes_have_distinct_covers_for_a_reason(family, betas,
                                                            offset):
    # the closed forms tell any two classes apart: by phi(h), which halves or
    # doubles e, or else by the family row of the cover
    b_min = ROWS[(family, betas)].b_min
    for b in (b_min + offset, b_min + offset + 1):  # both parities
        m = NilManifold(family, b, betas)
        e = euler_number(m.seifert())
        reps = [c.representative for c in equivalence_classes(m).classes]
        covers = {phi: double_cover(phi) for phi in reps}
        for x, y in combinations(reps, 2):
            if x.h != y.h:
                assert family in ("T", "K") and b % 2 == 0
                assert {euler_number(covers[phi].seifert()) / e
                        for phi in (x, y)} == {Fraction(1, 2), 2}
            else:
                assert ((covers[x].family, covers[x].betas)
                        != (covers[y].family, covers[y].betas)), (m, x, y)
