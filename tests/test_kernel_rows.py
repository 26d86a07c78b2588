"""The oracle's kernel invariants against the Reidemeister-Schreier references.

coverings.kernel_invariants gives the invariants of ker(phi) from m's entry
in coverings._KERNEL: the rows that coverings._kernel_rows rewrites pi_1's
relators to, over the transversal t = h if phi(h) = 1, else the first
phi = 1 generator, held in homology's affine form at import, so that each
call is homology.affine_invariants at x = b >> phi(h).  They must equal
the invariants that homology.row_invariants reads off the unreduced rows
of helpers.kernel_rows, those of the kernel presentation that
reidemeister_schreier builds (its own choice of t), and those of the
letter-level rewriting in helpers.py under every phi = 1 transversal,
since every Schreier transversal presents the same subgroup.  A
coverings._halves that gives the ceil and floor counts of an inverse
syllable to the wrong cosets must be caught by the oracle, and so must an
entry built with one column operation negated or dropped, an x read as b
on phi(h) = 1 keys, and an evaluator that builds u + x v.
"""

import copy

import pytest

import helpers
from nilbu import (NilManifold, abelianization, coverings, double_cover,
                   enumerate_epis, fundamental_group, h1, homology,
                   reidemeister_schreier, sweep, verify_cover)
from nilbu.coverings import kernel_invariants
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


def rejected_pairs():
    """The pairs of sweep(16) whose double cover the oracle rejects."""
    return [phi for m in sweep(16) for phi in enumerate_epis(m)
            if not verify_cover(phi, double_cover(phi))]


def test_rows_match_the_kernel_presentation_on_sweep():
    pairs = 0
    for m in sweep(32):
        pres = fundamental_group(m)
        for phi in enumerate_epis(m):
            got = kernel_invariants(m, phi.bits)
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
        got = kernel_invariants(m, phi.bits)
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
        assert kernel_invariants(m, phi.bits) \
            == row_invariants(*helpers.kernel_rows(m, phi.bits)) \
            == abelianization(sub).decomposition


def test_rows_are_fresh_and_b_only_reaches_the_section_rows(monkeypatch):
    m = NilManifold("244", 7, (1, 1))
    phi = enumerate_epis(m)[0]
    key = m.family, m.betas, phi.bits
    (count, torsion, sections), p = coverings._KERNEL[key]
    assert count < 2 * len(phi.bits) - 1  # the unit pivots' columns left
    before = copy.deepcopy(coverings._KERNEL[key])
    calls = []

    def recording(rows, count):
        calls.append([dict(row) for row in rows])
        return row_invariants(rows, count)

    monkeypatch.setattr(homology, "row_invariants", recording)
    near = kernel_invariants(m, phi.bits)
    far = kernel_invariants(NilManifold("244", 7 + 2 * 10 ** 12, (1, 1)),
                            phi.bits)
    # b = p is x = 0, where each section row is u itself
    kernel_invariants(NilManifold("244", p, (1, 1)), phi.bits)
    assert coverings._KERNEL[key] == before  # row_invariants consumed copies
    assert len(calls) == 3 and len(calls[0]) == len(torsion) + 2
    # the pivots' rows do not depend on b, the two section rows do
    assert calls[0][:-2] == calls[1][:-2] == calls[2][:-2]
    assert calls[0][-2:] != calls[1][-2:]
    assert near != far


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
    key = ("T", (), (0, 1, 0))
    diagonalize = homology.diagonalize
    mutated = []

    def wrong(rows):
        diag, ops = diagonalize(rows)
        mutated.append(bool(ops))
        return diag, mutate(tuple(ops)) if ops else ops

    with monkeypatch.context() as patch:
        patch.setattr(homology, "diagonalize", wrong)
        rebuilt = coverings._kernel_table()[key]
    assert any(mutated) and rebuilt != coverings._KERNEL[key]
    table = dict(coverings._KERNEL)
    table[key] = rebuilt
    monkeypatch.setattr(coverings, "_KERNEL", table)
    rejected = rejected_pairs()
    assert rejected
    assert {(phi.manifold.family, phi.bits) for phi in rejected} \
        == {("T", (0, 1, 0))}


def test_x_read_as_b_on_phi_h_one_keys_is_rejected(monkeypatch):
    # the mutant passes x = b where kernel_invariants passes b >> phi(h)
    def unshifted(m, bits):
        entry, _ = coverings._KERNEL[m.family, m.betas, bits]
        return homology.affine_invariants(entry, m.b)

    assert rejected_pairs() == []
    monkeypatch.setattr(coverings, "kernel_invariants", unshifted)
    rejected = rejected_pairs()
    assert rejected and all(phi.h for phi in rejected)


def test_a_section_row_built_as_u_plus_x_v_is_caught(monkeypatch):
    # u + x v is the evaluator's u - x v at -x; both sides of the oracle
    # read the one evaluator, through their own imports of it
    evaluate = homology.affine_invariants

    def plus(entry, x):
        return evaluate(entry, -x)

    for module in (homology, coverings):
        monkeypatch.setattr(module, "affine_invariants", plus)
    assert rejected_pairs()
    assert any(homology.h1_invariants(m) != h1.__wrapped__(m).decomposition
               for m in sweep(16))
