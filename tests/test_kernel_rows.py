"""The oracle's kernel rows against the Reidemeister-Schreier references.

presentation.kernel_rows rewrites pi_1 straight into the exponent-sum rows
of ker(phi), over the transversal t = h if phi(h) = 1, else the first
phi = 1 generator, and homology.row_invariants reduces them.  The invariants
must equal those of the kernel presentation that reidemeister_schreier
builds (its own choice of t), and those of the letter-level rewriting in
helpers.py under every phi = 1 transversal, since every Schreier
transversal presents the same subgroup.  A builder that gives the ceil and
floor counts of an inverse syllable to the wrong cosets must be caught by
the oracle.
"""

import pytest

import helpers
from nilbu import (NilManifold, abelianization, double_cover, enumerate_epis,
                   fundamental_group, presentation, reidemeister_schreier,
                   sweep, verify_cover)
from nilbu.homology import abelian_invariants, row_invariants
from nilbu.presentation import kernel_rows
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def manifolds(b_max):
    @st.composite
    def draw_manifold(draw):
        (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
        return NilManifold(family, draw(st.integers(row.b_min, b_max)), betas)
    return draw_manifold()


def test_rows_match_the_kernel_presentation_on_sweep():
    pairs = 0
    for m in sweep(32):
        pres = fundamental_group(m)
        for phi in enumerate_epis(m):
            sub = reidemeister_schreier(pres, phi.bits)
            assert row_invariants(*kernel_rows(m, phi.bits)) \
                == abelian_invariants(sub), (m, phi.bits)
            pairs += 1
    assert pairs


@settings(deadline=None)
@given(manifolds(10 ** 3))
def test_rows_match_letters_under_every_transversal(m):
    pres = fundamental_group(m)
    for phi in enumerate_epis(m):
        got = row_invariants(*kernel_rows(m, phi.bits))
        for name, bit in zip(pres.generators, phi.bits):
            if bit:
                sub = helpers.kernel_presentation(pres, phi.bits, name)
                assert got == abelianization(sub).decomposition, (m, name)


@settings(deadline=None)
@given(manifolds(10 ** 12))
def test_rows_match_the_kernel_presentation_at_large_b(m):
    pres = fundamental_group(m)
    for phi in enumerate_epis(m):
        sub = reidemeister_schreier(pres, phi.bits)
        assert row_invariants(*kernel_rows(m, phi.bits)) \
            == abelianization(sub).decomposition


def test_rows_are_fresh_and_b_only_reaches_the_section_rows():
    m = NilManifold("244", 7, (1, 1))
    phi = enumerate_epis(m)[0]
    rows, count = kernel_rows(m, phi.bits)
    assert count == 2 * len(phi.bits) - 1
    before = [dict(row) for row in rows]
    row_invariants(rows, count)  # consumes the rows, not the table's
    assert kernel_rows(m, phi.bits)[0] == before
    far, _ = kernel_rows(NilManifold("244", 7 + 2 * 10 ** 12, (1, 1)),
                         phi.bits)
    near, _ = kernel_rows(m, phi.bits)
    assert far[:-2] == near[:-2] and far[-2:] != near[-2:]


def test_swapped_ceil_and_floor_counts_are_rejected(monkeypatch):
    # an inverse syllable read from coset r meets coset 1 - r first; giving
    # the ceil to r instead is the mutant.  (Swapping for both signs would
    # only rename every x.0 and x.1, which presents the same group.)
    pairs = [phi for m in sweep(16) for phi in enumerate_epis(m)]
    assert all(verify_cover(phi, double_cover(phi)) for phi in pairs)

    def swapped(k):
        near, far = halves(k)
        return (far, near) if k < 0 else (near, far)

    halves = presentation._halves
    monkeypatch.setattr(presentation, "_halves", swapped)
    monkeypatch.setattr(presentation, "_KERNEL", presentation._kernel_table())
    assert not all(verify_cover(phi, double_cover(phi)) for phi in pairs)
