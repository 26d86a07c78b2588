"""The oracle's kernel rows against the Reidemeister-Schreier references.

coverings.kernel_rows gives rows with the invariants of ker(phi): the
fixed relators' rows of pi_1, which coverings._kernel_parts rewrites over
the transversal t = h if phi(h) = 1, else the first phi = 1 generator, are
diagonalized once per key at import, and each call rewrites h^-b onto the
section relator's two rows and replays the diagonalization's column
operations on them.  The
invariants that homology.row_invariants reads off those rows must equal
those of the unreduced rows of helpers.kernel_rows, those of the kernel
presentation that reidemeister_schreier builds (its own choice of t), and
those of the letter-level rewriting in helpers.py under every phi = 1
transversal, since every Schreier transversal presents the same subgroup.
A coverings._halves that gives the ceil and floor counts of an inverse
syllable to the wrong cosets must be caught by the oracle, and so must a table with
one column operation negated or dropped.
"""

import pytest

import helpers
from nilbu import (NilManifold, abelianization, coverings, double_cover,
                   enumerate_epis, fundamental_group, reidemeister_schreier,
                   sweep, verify_cover)
from nilbu.coverings import kernel_rows
from nilbu.homology import row_invariants
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
            got = row_invariants(*kernel_rows(m, phi.bits))
            sub = reidemeister_schreier(pres, phi.bits)
            assert got == row_invariants(*helpers.kernel_rows(m, phi.bits)) \
                == abelianization(sub).decomposition, (m, phi.bits)
            pairs += 1
    assert pairs == 1150


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
            == row_invariants(*helpers.kernel_rows(m, phi.bits)) \
            == abelianization(sub).decomposition


def test_rows_are_fresh_and_b_only_reaches_the_section_rows():
    m = NilManifold("244", 7, (1, 1))
    phi = enumerate_epis(m)[0]
    entry = coverings._KERNEL[m.family, m.betas, phi.bits]
    units = entry[3]
    assert units
    rows, count = kernel_rows(m, phi.bits)
    assert count == 2 * len(phi.bits) - 1 - len(units)
    before = [dict(row) for row in rows]
    row_invariants(rows, count)  # consumes the rows, not the table's
    assert coverings._KERNEL[m.family, m.betas, phi.bits] == entry
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

    halves = coverings._halves
    monkeypatch.setattr(coverings, "_halves", swapped)
    monkeypatch.setattr(coverings, "_KERNEL", coverings._kernel_table())
    assert not all(verify_cover(phi, double_cover(phi)) for phi in pairs)


@pytest.mark.parametrize("mutate", [
    lambda ops: ((ops[0][0], -ops[0][1], ops[0][2]),) + ops[1:],
    lambda ops: ops[1:],
], ids=["negated", "dropped"])
def test_a_wrong_column_operation_is_rejected(monkeypatch, mutate):
    # T with phi = (0, 1, 0): t = v2, the one column operation of the fixed
    # rows adds each row's h.1 entry to its h.0 entry, and h^-b lands on
    # h.1 in the second section row
    pairs = [phi for m in sweep(16) for phi in enumerate_epis(m)]
    key = ("T", (), (0, 1, 0))
    sections, t, ops, units, torsion = coverings._KERNEL[key]
    assert ops
    table = dict(coverings._KERNEL)
    table[key] = (sections, t, mutate(ops), units, torsion)
    monkeypatch.setattr(coverings, "_KERNEL", table)
    rejected = [phi for phi in pairs
                if not verify_cover(phi, double_cover(phi))]
    assert rejected
    assert {(phi.manifold.family, phi.bits) for phi in rejected} \
        == {("T", (0, 1, 0))}
