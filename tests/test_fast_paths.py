"""The oracle's sparse invariants and the mask enumeration of epimorphisms.

helpers.abelian_invariants reduces a presentation's exponent-sum rows with
the oracle's row_invariants, a sparse diagonalization with no Smith loop;
on kernel presentations it must agree with helpers.abelianization, the
Smith form with transforms.  enumerate_epis reads the bits that _MOD2 found
by testing every assignment as an integer against the parity masks of the
row's relators; they must be the epimorphisms that helpers.epi_bits finds
bit tuple by bit tuple through odd_relator, in the same order.
"""

import pytest

import helpers
from nilbu import (NilManifold, enumerate_epis, fundamental_group,
                   reidemeister_schreier, sweep)
from nilbu.seifert import ROWS

from helpers import abelian_invariants, abelianization

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def large_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, 10 ** 12)), betas)


@settings(max_examples=40, deadline=None)
@given(large_manifolds())
def test_kernel_invariants_match_abelianization_at_large_b(m):
    # the oracle's rewriting: with t = h no word grows with b
    pres = fundamental_group(m)
    for phi in enumerate_epis(m):
        sub = reidemeister_schreier(pres, phi.bits)
        assert abelian_invariants(sub) == abelianization(sub).decomposition


def test_kernel_invariants_match_abelianization_on_sweep(sweep16):
    # every phi = 1 generator as transversal, through the letter-level
    # reference, so relators of every shape reach the elimination
    for m in sweep16:
        pres = fundamental_group(m)
        for phi in enumerate_epis(m):
            for name, bit in zip(pres.generators, phi.bits):
                if bit:
                    sub = helpers.kernel_presentation(pres, phi.bits, name)
                    assert abelian_invariants(sub) == \
                        abelianization(sub).decomposition, (m, name)


def test_enumerate_epis_matches_reference_on_sweep():
    for m in sweep(64):
        assert [phi.bits for phi in enumerate_epis(m)] == helpers.epi_bits(m), m


@settings(max_examples=60, deadline=None)
@given(large_manifolds())
def test_enumerate_epis_matches_reference_at_large_b(m):
    assert [phi.bits for phi in enumerate_epis(m)] == helpers.epi_bits(m)
