import pytest

from nilbu import (ConeSlide, ConeSwap, FiberFlip, InvalidCharacter,
                   KleinSwap, MoveNotApplicable, NilManifold, TorusShear,
                   Z2Char, apply_move, available_moves, char_for,
                   enumerate_epis, equivalence_classes, expected_epi_count,
                   expected_partition_shape, h1, mod2_rank, sweep,
                   validate_char)
from nilbu.seifert import ROWS


def test_char_access():
    phi = char_for(NilManifold("22", 0), s=(1, 1), v=(0,), h=0)
    assert phi.bits == (1, 1, 0, 0)
    assert phi.s[0] == 1 and phi.v[0] == 0 and phi.h == 0
    assert phi.describe() == "s=(1,1) v=(0) h=0"
    assert phi.to_json_dict() == {"s": [1, 1], "v": [0], "h": 0}
    assert phi.with_bits((0, 0, 1, 0)).bits == (0, 0, 1, 0)


def test_char_for_rejects_wrong_shape():
    with pytest.raises(InvalidCharacter):
        char_for(NilManifold("22", 0), s=(1,), v=(0,), h=0)
    with pytest.raises(InvalidCharacter):
        char_for(NilManifold("T", 2), s=(1,), v=(0, 0), h=1)


def test_char_bits_must_be_zero_or_one():
    m = NilManifold("T", 2)
    for v, h in (((1, 0), 3), ((1, 0), 1.7), ((True, False), 0),
                 ((3, 0), 0), ((1, 0), "1"), ((-1, 0), 0)):
        with pytest.raises(InvalidCharacter):
            char_for(m, v=v, h=h)
    with pytest.raises(InvalidCharacter):
        char_for(m, v=(1, 0), h=1).with_bits((1, 0, 2))


def test_validate_char():
    m = NilManifold("T", 3)
    good = char_for(m, v=(1, 0), h=0)
    assert validate_char(m, good) is good
    with pytest.raises(InvalidCharacter):
        validate_char(m, char_for(m, v=(0, 0), h=1))  # kills no odd relator
    with pytest.raises(InvalidCharacter):
        validate_char(m, char_for(m, v=(0, 0), h=0))  # zero map
    with pytest.raises(InvalidCharacter):
        validate_char(m, char_for(NilManifold("22", 0), s=(1, 1), v=(0,), h=0))
    # same generator names, but another manifold's character
    with pytest.raises(InvalidCharacter):
        validate_char(m, char_for(NilManifold("T", 5), v=(1, 0), h=0))
    with pytest.raises(InvalidCharacter):
        validate_char(m, char_for(NilManifold("T", 7), v=(1, 1), h=0))


def test_char_is_checked_when_made():
    m = NilManifold("T", 3)
    phi = Z2Char(m, (1, 0, 0))
    assert phi == char_for(m, v=(1, 0), h=0) and phi.manifold == m
    assert (phi.s, phi.v, phi.h) == ((), (1, 0), 0)
    q = char_for(NilManifold("244", 0, (1, 3)), s=(1, 0, 1))
    assert (q.s, q.v, q.h) == ((1, 0, 1), (), 0)
    with pytest.raises(InvalidCharacter,
                       match=r"^relator v1 v2 v1\^-1 v2\^-1 h\^-3 has odd image$"):
        Z2Char(m, (0, 0, 1))
    with pytest.raises(InvalidCharacter, match="^phi kills every generator$"):
        Z2Char(m, (0, 0, 0))
    with pytest.raises(InvalidCharacter, match="^one bit per generator"):
        Z2Char(m, (1, 0))
    with pytest.raises(InvalidCharacter):
        phi.with_bits((0, 0, 1))
    # a character of T(5) is not one of T(3), although the bits agree
    assert Z2Char(NilManifold("T", 5), (1, 0, 0)) != phi


def test_enumerate_epis_frozen_lists():
    assert [phi.bits for phi in enumerate_epis(NilManifold("T", 3))] == \
        [(0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert len(enumerate_epis(NilManifold("T", 2))) == 7
    assert [phi.bits for phi in enumerate_epis(NilManifold("22", 0))] == \
        [(0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0)]
    only, = enumerate_epis(NilManifold("236", 0, (1, 5)))
    assert only.to_json_dict() == {"s": [1, 0, 1], "v": [], "h": 0}
    assert enumerate_epis(NilManifold("333", 0, (1, 1, 1))) == ()
    only, = enumerate_epis(NilManifold("333", 1, (1, 1, 1)))
    assert only.to_json_dict() == {"s": [1, 1, 1], "v": [], "h": 1}
    only, = enumerate_epis(NilManifold("333", 0, (1, 1, 2)))
    assert only.to_json_dict() == {"s": [1, 1, 0], "v": [], "h": 1}
    assert [phi.to_json_dict()["s"]
            for phi in enumerate_epis(NilManifold("244", 0, (1, 3)))] == \
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_epi_count_matches_closed_form_and_rank(sweep16):
    for m in sweep16:
        epis = enumerate_epis(m)
        assert len(epis) == expected_epi_count(m), m.encode()
        assert len(epis) == 2 ** mod2_rank(h1(m)) - 1, m.encode()


def test_fiber_flip():
    m = NilManifold("T", 2)
    phi = char_for(m, v=(0, 0), h=1)
    assert apply_move(phi, FiberFlip((1,)), m).bits == (1, 0, 1)
    assert apply_move(phi, FiberFlip((1, 2)), m).bits == (1, 1, 1)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(m, v=(1, 0), h=0), FiberFlip((1,)), m)
    with pytest.raises(MoveNotApplicable):
        apply_move(phi, FiberFlip((3,)), m)
    with pytest.raises(MoveNotApplicable):
        apply_move(phi, FiberFlip((1, 1)), m)


def test_cone_swap():
    m = NilManifold("2222", 0)
    phi = char_for(m, s=(1, 0, 0, 1), h=0)
    assert apply_move(phi, ConeSwap(1, 2), m).bits == (0, 1, 0, 1, 0)
    q = NilManifold("244", 0, (1, 3))
    psi = char_for(q, s=(0, 1, 1), h=0)
    with pytest.raises(MoveNotApplicable):
        apply_move(psi, ConeSwap(2, 3), q)  # (4,1) vs (4,3)
    with pytest.raises(MoveNotApplicable):
        apply_move(phi, ConeSwap(1, 1), m)
    with pytest.raises(MoveNotApplicable):
        apply_move(phi, ConeSwap(0, 5), m)


def test_torus_shear():
    m = NilManifold("T", 3)
    phi = char_for(m, v=(1, 0), h=0)
    assert apply_move(phi, TorusShear(1), m).bits == (1, 1, 0)
    assert apply_move(char_for(m, v=(1, 1), h=0), TorusShear(2), m).bits == \
        (0, 1, 0)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(m, v=(0, 1), h=0), TorusShear(1), m)
    with pytest.raises(MoveNotApplicable):
        apply_move(phi, TorusShear(3), m)
    k = NilManifold("K", 3)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(k, v=(1, 0), h=0), TorusShear(1), k)


def test_klein_swap():
    m = NilManifold("K", 1)
    phi = char_for(m, v=(1, 0), h=0)
    assert apply_move(phi, KleinSwap(), m).bits == (0, 1, 0)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(m, v=(1, 1), h=0), KleinSwap(), m)
    t = NilManifold("T", 1)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(t, v=(1, 0), h=0), KleinSwap(), t)


def test_cone_slide():
    m = NilManifold("22", 0)
    phi = char_for(m, s=(1, 1), v=(0,), h=0)
    assert apply_move(phi, ConeSlide(), m).bits == (1, 1, 1, 0)
    with pytest.raises(MoveNotApplicable):
        apply_move(char_for(m, s=(0, 0), v=(1,), h=0), ConeSlide(), m)


def test_apply_move_requires_valid_epimorphism():
    m = NilManifold("T", 3)
    with pytest.raises(InvalidCharacter):
        apply_move(char_for(m, v=(0, 0), h=1), TorusShear(1), m)


def test_available_moves():
    swaps = {n: tuple(ConeSwap(i, j) for i in range(1, n + 1)
                      for j in range(i + 1, n + 1)) for n in (3, 4)}
    expected = {
        ("T", ()): (FiberFlip((1,)), FiberFlip((2,)), TorusShear(1),
                    TorusShear(2)),
        ("K", ()): (FiberFlip((1,)), FiberFlip((2,)), KleinSwap()),
        ("22", ()): (FiberFlip((1,)), ConeSwap(1, 2), ConeSlide()),
        ("2222", ()): swaps[4],
        ("236", (1, 1)): (), ("236", (1, 5)): (),
        ("236", (2, 1)): (), ("236", (2, 5)): (),
        ("244", (1, 1)): (ConeSwap(2, 3),), ("244", (1, 3)): (),
        ("244", (3, 3)): (ConeSwap(2, 3),),
        ("333", (1, 1, 1)): swaps[3], ("333", (1, 1, 2)): (ConeSwap(1, 2),),
        ("333", (1, 2, 2)): (ConeSwap(2, 3),), ("333", (2, 2, 2)): swaps[3],
    }
    assert list(expected) == list(ROWS)
    for (family, betas), row in ROWS.items():
        for b in (row.b_min, row.b_min + 1):
            moves = available_moves(NilManifold(family, b, betas))
            assert type(moves) is tuple
            assert moves == expected[(family, betas)], (family, betas, b)
    # the moves of one family only are built once, not per call
    assert available_moves(NilManifold("T", 2))[2] is \
        available_moves(NilManifold("T", 3))[2]


def test_equivalence_classes_frozen():
    part = equivalence_classes(NilManifold("T", 3))
    assert part.shape == (3,)
    assert part.classes[0].representative.bits == (0, 1, 0)

    part = equivalence_classes(NilManifold("T", 2))
    assert part.shape == (3, 4)
    reps = [c.representative.bits for c in part.classes]
    assert reps == [(0, 0, 1), (0, 1, 0)]
    sizes = {rep: c.size for rep, c in zip(reps, part.classes)}
    assert sizes[(0, 0, 1)] == 4  # the four phi(h) = 1 characters
    assert sizes[(0, 1, 0)] == 3

    part = equivalence_classes(NilManifold("22", 0))
    assert [tuple(c.representative.bits) for c in part.classes] == \
        [(0, 0, 1, 0), (1, 1, 0, 0)]
    assert part.shape == (1, 2)

    part = equivalence_classes(NilManifold("2222", 0))
    assert part.shape == (1, 6)
    singleton = next(c for c in part.classes if c.size == 1)
    assert singleton.representative.bits == (1, 1, 1, 1, 0)

    part = equivalence_classes(NilManifold("244", 0, (1, 1)))
    assert part.shape == (1, 2)
    part = equivalence_classes(NilManifold("244", 0, (1, 3)))
    assert part.shape == (1, 1, 1)


def test_partition_shapes_match_closed_form(sweep16):
    for m in sweep16:
        part = equivalence_classes(m)
        assert part.manifold == m
        assert part.shape == expected_partition_shape(m), m.encode()
        members = [phi for c in part.classes for phi in c.members]
        assert sorted(phi.bits for phi in members) == \
            sorted(phi.bits for phi in enumerate_epis(m))


def test_distinct_classes_are_separated(sweep16):
    """The partition is no coarser than the involution classification: any
    two classes differ in their covering target or their Z2-index."""
    from nilbu import double_cover, z2_index
    for m in sweep16:
        seen = {}
        for cls in equivalence_classes(m).classes:
            rep = cls.representative
            key = (double_cover(m, rep), z2_index(m, rep))
            assert key not in seen, (m.encode(), rep.describe(), key)
            seen[key] = cls
