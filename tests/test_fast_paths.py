"""The oracle's unit-pivot invariants and the mask enumeration of epimorphisms.

abelian_invariants eliminates unit pivots before its Smith pass; on the
kernel presentations the oracle builds it must agree with abelianization,
the Smith form with transforms.  enumerate_epis tests every assignment as an
integer against the relators' parity masks; it must find the epimorphisms
that helpers.epi_bits finds bit tuple by bit tuple, in the same order.
"""

import pytest

import helpers
from nilbu import (NilManifold, abelianization, enumerate_epis,
                   fundamental_group, reidemeister_schreier, sweep)
from nilbu.homology import abelian_invariants
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def large_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, 10 ** 12)), betas)


def _kernels(m, transversals):
    pres = fundamental_group(m.seifert())
    for phi in enumerate_epis(m):
        for transversal in transversals(pres, phi):
            yield reidemeister_schreier(pres, phi.bits, transversal)


@settings(max_examples=40, deadline=None)
@given(large_manifolds())
def test_kernel_invariants_match_abelianization_at_large_b(m):
    # the oracle's transversal: with t = h no word grows with b
    for sub in _kernels(m, lambda pres, phi: ["h" if phi.h else None]):
        assert abelian_invariants(sub) == abelianization(sub).decomposition


def test_kernel_invariants_match_abelianization_on_sweep(sweep16):
    # the first phi = 1 generator and h, so relators of both shapes reach the
    # elimination
    def transversals(pres, phi):
        return {pres.generators[phi.bits.index(1)], "h" if phi.h else None}

    for m in sweep16:
        for sub in _kernels(m, transversals):
            assert abelian_invariants(sub) == \
                abelianization(sub).decomposition, m


def test_enumerate_epis_matches_reference_on_sweep():
    for m in sweep(64):
        assert [phi.bits for phi in enumerate_epis(m)] == helpers.epi_bits(m), m


@settings(max_examples=60, deadline=None)
@given(large_manifolds())
def test_enumerate_epis_matches_reference_at_large_b(m):
    assert [phi.bits for phi in enumerate_epis(m)] == helpers.epi_bits(m)
