"""Property tests of the Seifert layer beyond the fixed sweep.

Random loose data goes through normalize, classify and reverse_orientation,
including the mirror path and the NotNil / OrientationError splits, and both
encodings must parse back to what they encode, also with random whitespace
between their tokens.  Whitespace inside a number is an error.  b_min and
is_nil, computed in integers, must agree with their rational definitions.
"""

import math
import re
from fractions import Fraction

import pytest

from nilbu import (FAMILIES, InvariantError, NilManifold, NotNil,
                   OrientationError, ParseError, b_min, classify,
                   euler_number, is_nil, normalize, orbifold_euler_char,
                   parse_family, parse_manifold, parse_seifert,
                   reverse_orientation)
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SHAPES = sorted({(eps, g, orders) for eps, g, orders, _ in FAMILIES.values()})


@st.composite
def nil_shaped(draw):
    # a family's shape with any betas, coprime or not, and any b: hits every
    # family, the mirror (e < 0), e = 0 and rejected pairs
    eps, g, orders = draw(st.sampled_from(SHAPES))
    pairs = [(a, draw(st.integers(-3 * a, 3 * a))) for a in orders]
    return draw(st.integers(-12, 12)), eps, g, pairs


@st.composite
def any_shape(draw):
    eps = draw(st.sampled_from((+1, -1)))
    g = draw(st.integers(1 if eps == -1 else 0, 3))
    pairs = draw(st.lists(st.tuples(st.integers(-1, 7), st.integers(-20, 20)),
                          max_size=5))
    return draw(st.integers(-12, 12)), eps, g, pairs


def _classified(inv):
    """classify(inv), with its error class when it raises."""
    try:
        return classify(inv)
    except (NotNil, OrientationError) as err:
        return type(err)


coprime_pairs = st.lists(
    st.tuples(st.integers(1, 60), st.integers(-200, 200))
    .filter(lambda pair: math.gcd(*pair) == 1), max_size=6)


@settings(max_examples=200, deadline=None)
@given(coprime_pairs)
def test_b_min_is_the_least_b_with_positive_e(pairs):
    # the integer b_min against the rational definition, no pairs included
    assert b_min(pairs) == -math.ceil(sum(Fraction(beta, a)
                                          for a, beta in pairs)) + 1


def _coprime_pair(a):
    return st.integers(-3 * a, 3 * a).filter(
        lambda beta: math.gcd(a, beta) == 1).map(lambda beta: (a, beta))


@st.composite
def coprime_invariants(draw):
    # a family's shape or any other, coprime pairs and any b: Nil, its
    # mirror, e = 0 and chi != 0
    if draw(st.booleans()):
        eps, g, orders = draw(st.sampled_from(SHAPES))
    else:
        eps = draw(st.sampled_from((+1, -1)))
        g = draw(st.integers(1 if eps == -1 else 0, 3))
        orders = draw(st.lists(st.integers(1, 7), max_size=5))
    pairs = [draw(_coprime_pair(a)) for a in orders]
    b = draw(st.integers(-12, 12) | st.integers(-10 ** 12, 10 ** 12))
    return normalize(b, eps, g, pairs)


@settings(max_examples=300, deadline=None)
@given(coprime_invariants())
def test_is_nil_matches_its_rational_definition(inv):
    for this in (inv, reverse_orientation(inv)):
        chi = 2 - this.g_prime - sum(1 - Fraction(1, a) for a, _ in this.pairs)
        e = this.b + sum(Fraction(beta, a) for a, beta in this.pairs)
        assert is_nil(this) == (chi == 0 and e != 0), this


@settings(max_examples=120, deadline=None)
@given(st.one_of(nil_shaped(), any_shape()))
def test_normalize_classify_and_mirror(data):
    b, eps, g, pairs = data
    if any(a <= 0 or math.gcd(a, beta) != 1 for a, beta in pairs):
        with pytest.raises(InvariantError):
            normalize(b, eps, g, pairs)
        return
    inv = normalize(b, eps, g, pairs)
    assert normalize(inv.b, inv.epsilon, inv.g_prime, inv.pairs) == inv
    assert all(0 < beta < a for a, beta in inv.pairs)
    e = b + sum(Fraction(beta, a) for a, beta in pairs)
    chi = 2 - g - sum(1 - Fraction(1, a) for a, _ in pairs)
    assert (euler_number(inv), orbifold_euler_char(inv)) == (e, chi)
    mirror = reverse_orientation(inv)
    assert reverse_orientation(mirror) == inv
    assert (euler_number(mirror), orbifold_euler_char(mirror)) == (-e, chi)
    got, got_mirror = _classified(inv), _classified(mirror)
    if chi != 0 or e == 0:
        assert got is NotNil and got_mirror is NotNil
    elif e < 0:
        # the mirror names the manifold, or its shape is in no family
        assert got is OrientationError and got_mirror is not OrientationError
    else:
        assert got_mirror is OrientationError
    for m, this in ((got, inv), (got_mirror, mirror)):
        if isinstance(m, NilManifold):
            assert m.seifert() == this
            assert parse_manifold(this.encode()) == m


# whitespace that may stand between tokens, ASCII and other
SPACES = st.sampled_from(("", "", " ", "  ", "\t", "\n", "\u2002", "\u3000"))
TOKEN = re.compile(r"[+-]?[0-9]+|[A-Za-z]+|\S")


def _spaced(draw, text):
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == text.replace(" ", "")
    return draw(SPACES) + "".join(t + draw(SPACES) for t in tokens)


@st.composite
def manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, 10 ** 12)), betas)


@settings(max_examples=60, deadline=None)
@given(manifolds(), st.data())
def test_encodings_parse_back_with_spaces_between_tokens(m, data):
    inv = m.seifert()
    assert parse_family(m.encode()) == m
    assert parse_seifert(inv.encode()) == inv
    assert parse_manifold(inv.encode()) == m
    spaced_family = _spaced(data.draw, m.encode())
    spaced_seifert = _spaced(data.draw, inv.encode())
    assert parse_manifold(spaced_family) == m, spaced_family
    assert parse_seifert(spaced_seifert) == inv, spaced_seifert
    assert parse_manifold(spaced_seifert) == m, spaced_seifert


@settings(max_examples=30, deadline=None)
@given(manifolds().filter(lambda m: m.b >= 10), st.data())
def test_whitespace_inside_a_number_is_an_error(m, data):
    digits = str(m.b)
    cut = data.draw(st.integers(1, len(digits) - 1))
    space = data.draw(SPACES.filter(bool))
    split = digits[:cut] + space + digits[cut:]
    for text in (m.encode(), m.seifert().encode()):
        bad = text.replace("(" + digits, "(" + split, 1)  # b follows "("
        assert bad != text
        with pytest.raises(ParseError):
            parse_manifold(bad)
