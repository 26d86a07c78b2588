"""Property test: a character is accepted exactly when it is an epimorphism.

Two routes decide it independently of the Z2Char constructor: the cached
enumeration, and a letter-by-letter parity walk over the relators written
out in this file.
"""

import pytest

from nilbu import (FAMILIES, InvalidCharacter, NilManifold, char_for,
                   enumerate_epis, fundamental_group, sweep)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LOWEST = list(sweep(0))  # each family row at its b_min


def _kills_every_relator(pres, bits):
    # the reference: count the letters mapped to 1, relator by relator
    return all(sum(bits[abs(letter) - 1] for letter in word) % 2 == 0
               for word in pres.relators)


@st.composite
def manifolds_with_bits(draw):
    low = draw(st.sampled_from(LOWEST))
    m = NilManifold(low.family, low.b + draw(st.integers(0, 2000)), low.betas)
    _, g, orders, _ = FAMILIES[m.family]
    n = len(orders)
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=n + g + 1,
                               max_size=n + g + 1)))
    return m, bits[:n], bits[n:-1], bits[-1]


@settings(max_examples=200, deadline=None)
@given(manifolds_with_bits())
def test_char_for_accepts_exactly_the_epimorphisms(case):
    m, s, v, h = case
    bits = s + v + (h,)
    try:
        phi = char_for(m, s, v, h)
    except InvalidCharacter:
        phi = None
    accepted = phi is not None
    assert accepted == (bits in {e.bits for e in enumerate_epis(m)})
    pres = fundamental_group(m)
    assert accepted == (any(bits) and _kills_every_relator(pres, bits))
    if accepted:
        assert phi.bits == bits and phi.manifold == m
        assert phi.with_bits(bits) == phi
        assert char_for(m, **phi.to_json_dict()) == phi
