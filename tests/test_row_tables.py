"""The per-row tables that stand in for a manifold's presentation.

pi_1 of a Nil manifold sees b only through the syllable h^-b of the section
relator, so two tables built at import from presentation._ROW_PARTS, one
entry per family row, give what the presentation gave:

* homology._RELATIONS holds H1's relation matrix at b = 0, and
  relation_matrix(m) subtracts b at (h, section relator).  It must equal
  the transposed exponent_matrix(fundamental_group(m)) entry by entry, so
  h1(m) equals abelianization(fundamental_group(m)), generator images too.
* presentation._PARITIES holds the relators' parity masks, the section
  relator's up to h^-b, and check_character(m, bits) XORs b mod 2 in at h.
  It must raise what check_epimorphism(fundamental_group(m), bits) raises,
  with the same message, for every assignment, well formed or not; a
  mutant that leaves the parity of b out must be caught.  A bit tuple is
  a key of the oracle's table, coverings._KERNEL, exactly when
  check_character accepts it at either parity of b.

Neither h1 nor the character check builds a presentation, so a sweep builds
none.
"""

import inspect
from itertools import product

import pytest

from nilbu import (FinitePresentation, NilManifold, NotAHomomorphism,
                   abelianization, check_epimorphism, coverings,
                   enumerate_epis, equivalence_classes, exponent_matrix,
                   fundamental_group, h1, homology, presentation,
                   verify_sweep)
from nilbu.homology import relation_matrix
from nilbu.presentation import check_character
from nilbu.seifert import NilError, ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FAR = 10 ** 12


def manifolds(b_max):
    @st.composite
    def draw_manifold(draw):
        (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
        return NilManifold(family, draw(st.integers(row.b_min, b_max)), betas)
    return draw_manifold()


def check_h1(m):
    pres = fundamental_group.__wrapped__(m)
    R = exponent_matrix(pres)
    assert [list(row) for row in relation_matrix(m)] \
        == [list(column) for column in zip(*R)], m
    group, expected = h1(m), abelianization(pres)
    assert group == expected, m
    assert list(group.gen_images.items()) \
        == list(expected.gen_images.items()), m


def test_relation_matrix_and_h1_match_the_presentation():
    assert len(homology._RELATIONS) == len(ROWS) == 15
    for (family, betas), row in ROWS.items():
        for b in (*range(row.b_min, row.b_min + 5), FAR, FAR + 1):
            check_h1(NilManifold(family, b, betas))


@settings(deadline=None)
@given(manifolds(FAR))
def test_relation_matrix_and_h1_at_large_b(m):
    check_h1(m)


def outcome(check, *args):
    try:
        check(*args)
    except NilError as err:
        return type(err), str(err)
    return None


def assignments(n):
    """Every 0/1 tuple of length n - 1, n and n + 1, and tuples of length n
    holding True or 2 in one place, among 0s or among the bits of an
    epimorphism."""
    for length in (n - 1, n, n + 1):
        yield from product((0, 1), repeat=length)
    for base in ((0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)):
        for i in range(n):
            for value in (True, 2):
                yield base[:i] + (value,) + base[i + 1:]


def disagreements(check):
    """(m, bits, got, expected) wherever check(m, bits) and
    check_epimorphism on m's presentation differ, at both parities of b of
    every row."""
    found = []
    for (family, betas), row in ROWS.items():
        for b in (row.b_min, row.b_min + 1):
            m = NilManifold(family, b, betas)
            pres = fundamental_group.__wrapped__(m)
            for bits in assignments(len(pres.generators)):
                got = outcome(check, m, bits)
                expected = outcome(check_epimorphism, pres, bits)
                if got != expected:
                    found.append((m, bits, got, expected))
    return found


def test_character_check_matches_the_presentation():
    assert len(presentation._PARITIES) == len(ROWS) == 15
    assert disagreements(check_character) == []


def test_kernel_keys_are_the_accepted_characters():
    # cover M --phi looks a checked character up in coverings._KERNEL, so
    # a bit tuple is a key exactly when it is a character at either parity
    accepted = set()
    for (family, betas), row in ROWS.items():
        names = presentation._ROW_PARTS[family, betas][0]
        for bits in product((0, 1), repeat=len(names)):
            if any(outcome(check_character, NilManifold(family, b, betas),
                           bits) is None
                   for b in (row.b_min, row.b_min + 1)):
                accepted.add((family, betas, bits))
    assert set(coverings._KERNEL) == accepted


def test_character_check_names_the_odd_relator():
    m = NilManifold("T", 3)
    assert outcome(check_character, m, (0, 0, 1)) == (
        NotAHomomorphism, "relator v1 v2 v1^-1 v2^-1 h^-3 has odd image")


def test_a_check_blind_to_the_parity_of_b_is_caught():
    line = "    section ^= (m.b & 1) << (n - 1)\n"
    source = inspect.getsource(check_character)
    assert line in source
    namespace = dict(vars(presentation))
    exec(source.replace(line, ""), namespace)
    found = disagreements(namespace["check_character"])
    assert found
    assert all(m.b % 2 for m, _, _, _ in found)


def test_a_sweep_builds_no_presentation(monkeypatch):
    built = []
    init = FinitePresentation.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    for cached in (fundamental_group, h1, enumerate_epis,
                   equivalence_classes):
        cached.cache_clear()
    monkeypatch.setattr(FinitePresentation, "__init__", counting)
    assert verify_sweep(16)["ok"]
    assert built == []
    fundamental_group(NilManifold("T", 2))  # the counter sees a build
    assert len(built) == 1
