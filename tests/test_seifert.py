import random
from fractions import Fraction

import pytest

from nilbu import (AbelianGroup, ConeSlide, ConeSwap, CoveringDescriptor,
                   EpiClass, EpiClassPartition, FiberFlip, FinitePresentation,
                   InvariantError, KleinSwap, NilManifold, NotNil,
                   OrientationError, ParseError, SeifertInvariant, TorusShear,
                   Z2Char, b_min, cd_invariants, classify, euler_number,
                   family_rows, is_nil, normalize, orbifold_euler_char,
                   parse_family, parse_manifold, parse_seifert,
                   reverse_orientation, sweep)
from nilbu.seifert import ROWS, FamilyRow, Record


def test_normalize_carries_overflow_into_b():
    inv = normalize(0, +1, 0, [(2, 3), (2, 1), (2, 1), (2, 1)])
    assert inv == SeifertInvariant(1, +1, 0, ((2, 1),) * 4)


def test_normalize_drops_order_one_fibres():
    inv = normalize(2, +1, 2, [(1, 5), (3, 2)])
    assert inv == SeifertInvariant(7, +1, 2, ((3, 2),))


def test_normalize_negative_beta():
    # (4, -1) -> (4, 3) with -1 borrowed from b
    inv = normalize(0, +1, 0, [(4, -1), (4, 1), (2, 1)])
    assert inv.b == -1
    assert inv.pairs == ((2, 1), (4, 1), (4, 3))


def test_normalize_rejects_bad_pairs():
    with pytest.raises(InvariantError):
        normalize(0, +1, 0, [(4, 2)])
    with pytest.raises(InvariantError):
        normalize(0, +1, 0, [(0, 1)])
    with pytest.raises(InvariantError):
        normalize(0, +1, 0, [(-3, 1)])


def test_normalize_idempotent_and_preserves_e():
    rng = random.Random(20260822)
    for _ in range(300):
        eps = rng.choice((+1, -1))
        g = rng.randint(1 if eps == -1 else 0, 3)
        pairs = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, 9)
            beta = rng.choice([x for x in range(-12, 13) if
                               __import__("math").gcd(a, x) == 1])
            pairs.append((a, beta))
        b = rng.randint(-6, 6)
        e_raw = b + sum(Fraction(beta, a) for a, beta in pairs)
        inv = normalize(b, eps, g, pairs)
        assert euler_number(inv) == e_raw
        again = normalize(inv.b, inv.epsilon, inv.g_prime, inv.pairs)
        assert again == inv


def test_invariant_constructor_enforces_normal_form():
    with pytest.raises(InvariantError):
        SeifertInvariant(0, +1, 0, ((2, 3),))
    with pytest.raises(InvariantError):
        SeifertInvariant(0, -1, 0, ())  # non-orientable base needs g' >= 1
    with pytest.raises(InvariantError):
        SeifertInvariant(0, 2, 0, ())
    # unsorted input is absorbed, storage is canonical
    inv = SeifertInvariant(0, +1, 0, ((6, 5), (2, 1), (3, 1)))
    assert inv.pairs == ((2, 1), (3, 1), (6, 5))


def test_euler_characteristics_and_numbers():
    t = SeifertInvariant(3, +1, 2, ())
    assert orbifold_euler_char(t) == 0
    assert euler_number(t) == 3
    m = SeifertInvariant(0, +1, 0, ((2, 1), (3, 1), (6, 5)))
    assert orbifold_euler_char(m) == 0
    assert euler_number(m) == Fraction(5, 3)
    half = SeifertInvariant(1, +1, 0, ((2, 1), (2, 1), (2, 1)))
    assert orbifold_euler_char(half) == Fraction(1, 2)


def test_cd_invariants():
    m = SeifertInvariant(0, +1, 0, ((2, 1), (3, 1), (6, 5)))
    assert cd_invariants(m) == (10, 2, 6)
    k = SeifertInvariant(2, -1, 2, ())
    assert cd_invariants(k) == (2, 0, 1)
    q = SeifertInvariant(0, +1, 0, ((2, 1),) * 4)
    assert cd_invariants(q) == (4, 4, 2)


def test_b_min():
    assert b_min(()) == 1
    assert b_min(((2, 1), (2, 1))) == 0
    assert b_min(((2, 1),) * 4) == -1
    assert b_min(((2, 1), (3, 1), (6, 1))) == 0
    assert b_min(((2, 1), (3, 2), (6, 5))) == -1


def test_b_min_of_every_row():
    pinned = {("T", ()): 1, ("K", ()): 1, ("22", ()): 0, ("2222", ()): -1,
              ("236", (1, 1)): 0, ("236", (1, 5)): -1, ("236", (2, 1)): -1,
              ("236", (2, 5)): -1, ("244", (1, 1)): 0, ("244", (1, 3)): -1,
              ("244", (3, 3)): -1, ("333", (1, 1, 1)): 0,
              ("333", (1, 1, 2)): -1, ("333", (1, 2, 2)): -1,
              ("333", (2, 2, 2)): -1}
    assert {key: b_min(row.pairs) for key, row in ROWS.items()} == pinned
    assert {key: row.b_min for key, row in ROWS.items()} == pinned


def test_is_nil():
    assert is_nil(SeifertInvariant(1, +1, 2, ()))
    assert not is_nil(SeifertInvariant(0, +1, 2, ()))  # e = 0
    assert not is_nil(SeifertInvariant(1, +1, 0, ((2, 1),) * 3))  # chi = 1/2


def test_classify_families():
    assert classify(SeifertInvariant(3, +1, 2, ())) == NilManifold("T", 3)
    assert classify(SeifertInvariant(3, -1, 2, ())) == NilManifold("K", 3)
    assert classify(SeifertInvariant(0, -1, 1, ((2, 1), (2, 1)))) == NilManifold("22", 0)
    assert classify(SeifertInvariant(0, +1, 0, ((2, 1),) * 4)) == NilManifold("2222", 0)
    assert classify(SeifertInvariant(0, +1, 0, ((2, 1), (3, 1), (6, 5)))) == \
        NilManifold("236", 0, (1, 5))
    assert classify(SeifertInvariant(0, +1, 0, ((2, 1), (4, 1), (4, 3)))) == \
        NilManifold("244", 0, (1, 3))
    assert classify(SeifertInvariant(0, +1, 0, ((3, 1), (3, 2), (3, 2)))) == \
        NilManifold("333", 0, (1, 2, 2))


def test_classify_errors():
    with pytest.raises(NotNil):
        classify(SeifertInvariant(0, +1, 2, ()))
    with pytest.raises(NotNil):
        classify(SeifertInvariant(1, +1, 0, ((2, 1),) * 3))
    with pytest.raises(OrientationError):
        classify(SeifertInvariant(-2, +1, 2, ()))


def test_reverse_orientation_is_an_involution():
    inv = SeifertInvariant(0, +1, 0, ((2, 1), (3, 1), (6, 5)))
    rev = reverse_orientation(inv)
    assert rev == SeifertInvariant(-3, +1, 0, ((2, 1), (3, 2), (6, 1)))
    assert euler_number(rev) == -euler_number(inv)
    assert reverse_orientation(rev) == inv


def test_reverse_orientation_of_nil_manifold_needs_reversal_hint():
    inv = NilManifold("2222", 0).seifert()
    rev = reverse_orientation(inv)
    assert rev == SeifertInvariant(-4, +1, 0, ((2, 1),) * 4)
    with pytest.raises(OrientationError):
        classify(rev)
    assert classify(reverse_orientation(rev)) == NilManifold("2222", 0)


def test_nil_manifold_validation():
    with pytest.raises(InvariantError):
        NilManifold("X", 0)
    with pytest.raises(InvariantError):
        NilManifold("T", 0)  # b_min = 1
    with pytest.raises(InvariantError):
        NilManifold("236", 0, (1, 2))  # beta 2 not coprime to 6
    with pytest.raises(InvariantError):
        NilManifold("236", 0)  # missing parameters
    with pytest.raises(InvariantError):
        NilManifold("333", -2, (1, 1, 1))


@pytest.mark.parametrize("build, args", [
    (NilManifold, ("T", 3.7)),
    (NilManifold, ("T", True)),
    (NilManifold, ("T", "5")),
    (NilManifold, ("236", 0, (1.9, 5))),
    (NilManifold, ("244", 0, (1, True))),
    (normalize, (2.5, 1, 2, [(2, 1)])),
    (normalize, (2, 1, 2, [(2, 1.0)])),
    (normalize, (2, 1, 2, [(1, True)])),  # an a = 1 pair is still checked
    (normalize, (2, 1.0, 2, ())),
    (normalize, (2, 1, "2", ())),
    (SeifertInvariant, (0, True, 2.0, ())),
    (SeifertInvariant, (0, 1, 2, ((2.0, 1),))),
    (SeifertInvariant, (0, 1, 2, ((2, True),))),
    (SeifertInvariant, ("0", 1, 2, ())),
])
def test_constructors_take_ints_only(build, args):
    # no input is silently coerced: a float, str or bool is not an int here
    with pytest.raises(InvariantError, match="must be ints"):
        build(*args)


def test_free_betas_stored_sorted():
    assert NilManifold("244", 0, (3, 1)) == NilManifold("244", 0, (1, 3))
    assert NilManifold("333", 0, (2, 1, 2)).betas == (1, 2, 2)


def test_family_rows_and_sweep():
    rows = family_rows()
    assert len(rows) == 15
    assert ("236", (2, 1)) in rows
    members = list(sweep(16))
    assert len(members) == 15 * 17
    assert len(set(members)) == len(members)
    for m in members:
        assert is_nil(m.seifert())
        assert euler_number(m.seifert()) > 0
        assert classify(m.seifert()) == m


def test_family_rows_are_pinned_in_order():
    # family_rows derives the rows from FAMILIES; ROWS and so the sweep
    # (and the verify reports' md5s) follow this order
    rows = [("T", ()), ("K", ()), ("22", ()), ("2222", ()),
            ("236", (1, 1)), ("236", (1, 5)), ("236", (2, 1)),
            ("236", (2, 5)), ("244", (1, 1)), ("244", (1, 3)),
            ("244", (3, 3)), ("333", (1, 1, 1)), ("333", (1, 1, 2)),
            ("333", (1, 2, 2)), ("333", (2, 2, 2))]
    assert family_rows() == rows
    assert list(ROWS) == rows
    assert [(m.family, m.betas) for m in sweep(0)] == rows


def test_family_row_is_a_named_tuple():
    row = ROWS[("236", (1, 5))]
    assert type(row) is FamilyRow and isinstance(row, tuple)
    assert FamilyRow._fields == ("pairs", "lcm", "c0", "b_min", "d")
    assert row == (((2, 1), (3, 1), (6, 5)), 6, 10, -1, 2)
    pairs, lcm, c0, low, d = row
    assert (row.pairs, row.lcm, row.c0, row.b_min, row.d) == (pairs, lcm, c0, low, d)
    assert repr(row) == ("FamilyRow(pairs=((2, 1), (3, 1), (6, 5)), lcm=6, "
                         "c0=10, b_min=-1, d=2)")


def test_plain_records_take_the_record_constructor():
    plain = {AbelianGroup: 3, FiberFlip: 1, ConeSwap: 2, TorusShear: 1,
             KleinSwap: 0, ConeSlide: 0, EpiClass: 1, EpiClassPartition: 2,
             CoveringDescriptor: 3}
    for cls, n in plain.items():
        assert "__init__" not in vars(cls) and cls.__init__ is Record.__init__
        values = tuple(range(n))
        record = cls(*values)
        assert tuple(getattr(record, f) for f in cls._fields) == values
        for wrong in {values[:-1], values + (n,)} - {values}:
            with pytest.raises(TypeError, match=r"^%s needs one value per "
                               r"field \(%d\), got %d$"
                               % (cls.__name__, n, len(wrong))):
                cls(*wrong)
        if n:
            with pytest.raises(TypeError):
                cls(**dict(zip(cls._fields, values)))
    # the records that check their values keep their own constructor
    for cls in (SeifertInvariant, NilManifold, FinitePresentation, Z2Char):
        assert "__init__" in vars(cls)


def test_parse_and_encode_round_trip():
    assert parse_seifert("SF(0; +1; 0; (6,5)(3,1)(2,1))").pairs == \
        ((2, 1), (3, 1), (6, 5))
    assert parse_manifold("SF(0;+1;0;(6,5)(3,1)(2,1))") == \
        NilManifold("236", 0, (1, 5))
    assert parse_family(" 333( -1 ; 1, 2 ,2 ) ") == NilManifold("333", -1, (1, 2, 2))
    for m in [NilManifold("T", 2), NilManifold("236", 0, (2, 5)),
              NilManifold("333", -1, (1, 2, 2))]:
        assert parse_manifold(m.encode()) == m
        inv = m.seifert()
        assert parse_seifert(inv.encode()) == inv


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_manifold("Q(3)")
    with pytest.raises(ParseError):
        parse_seifert("SF(0;+1;0)")
    with pytest.raises(ParseError):
        parse_manifold("T(0)")  # below b_min
    with pytest.raises(NotNil):
        parse_manifold("SF(1;+1;0;(2,1)(2,1)(2,1))")
