"""Property tests for the integer Euler invariant c = e * lcm(a_i).

cd_invariants computes c in integers, and quotients_of solves for the base's
b with one integer division per rule of the cover's row; both are checked
here beyond the fixed sweep, against the Fraction Euler number and the
transcribed involution diagrams.
"""

import math

import pytest

from nilbu import (NilManifold, cd_invariants, euler_number,
                   expected_quotient_diagram, normalize, quotients_of, sweep)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LOWEST = list(sweep(0))  # each family row at its b_min

coprime_pairs = st.tuples(st.integers(1, 30), st.integers(-100, 100)).filter(
    lambda pair: math.gcd(*pair) == 1)


@st.composite
def loose_invariants(draw):
    eps = draw(st.sampled_from((+1, -1)))
    g = draw(st.integers(1 if eps == -1 else 0, 4))
    pairs = draw(st.lists(coprime_pairs, max_size=4))
    return draw(st.integers(-10**6, 10**6)), eps, g, pairs


@settings(max_examples=200, deadline=None)
@given(loose_invariants())
def test_c_is_e_times_lcm_in_integers(data):
    # any shape, Nil or not: lcm(a_i) clears every denominator b_i/a_i
    b, eps, g, pairs = data
    inv = normalize(b, eps, g, pairs)
    c, d, lcm = cd_invariants(inv)
    assert type(c) is int and type(lcm) is int
    assert lcm == math.lcm(*(a for a, _ in pairs))
    assert c == euler_number(inv) * lcm
    assert d == sum(1 for a, _ in pairs if a % 2 == 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LOWEST), st.integers(0, 5000))
def test_quotients_match_the_diagrams_at_large_b(low, shift):
    m = NilManifold(low.family, low.b + shift, low.betas)
    got = [(d.base, d.index) for d in quotients_of(m)]
    assert got == list(expected_quotient_diagram(m)), m.encode()
