"""Values a record derives from its fields, set once by its __init__.

NilManifold.row is the manifold's ROWS entry and NilManifold.c is
e * lcm(a_i); FamilyRow.d counts the even cone orders.  Each is checked
against the route it replaced, cd_invariants on the Seifert invariant.
FinitePresentation.odd_relator reads its relators' exponent-sum parities
when it is called; the parity masks it reads are checked against those of
exponent_matrix, and its answer against the first relator that they make
odd.  sweep's depth is checked here too.
"""

import copy
import pickle
from itertools import product

import pytest

from nilbu import (FinitePresentation, InvariantError, NilManifold,
                   cd_invariants, fundamental_group, reidemeister_schreier,
                   sweep, verify_sweep)
from nilbu.seifert import FAMILIES, ROWS
from helpers import epi_bits, exponent_matrix
from test_records import CASES

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _manifolds():
    for (family, betas), row in ROWS.items():
        for b in (row.b_min, row.b_min + 1, 10 ** 12):
            yield NilManifold(family, b, betas)


def test_row_and_c_match_cd_invariants():
    for m in _manifolds():
        c, d, lcm = cd_invariants(m.seifert())
        assert (m.c, m.row.d, m.row.lcm) == (c, d, lcm), m
        assert m.row is ROWS[(m.family, m.betas)]


def test_copies_keep_row_and_c():
    for m in _manifolds():
        for twin in (copy.copy(m), copy.deepcopy(m),
                     pickle.loads(pickle.dumps(m))):
            assert twin == m and twin.row == m.row and twin.c == m.c


def test_every_valid_beta_tuple_names_a_row():
    # b = 1 is at or above every row's b_min
    for family, (_, _, _, free) in FAMILIES.items():
        for betas in product(*(range(a + 1) for a in free)):
            try:
                m = NilManifold(family, 1, betas)
            except InvariantError:
                continue
            assert (m.family, m.betas) in ROWS


def _sum_masks(pres):
    # each relator's parities from the exponent-sum matrix, bit k for
    # generator k+1
    return tuple(sum(1 << k for k, e in enumerate(row) if e % 2)
                 for row in exponent_matrix(pres))


def _odd_masks(pres):
    # each relator's parities as odd_relator reads them: bit k is set when
    # the relator alone has odd image under the bits of generator k+1 alone
    g = len(pres.generators)
    units = [tuple(int(j == k) for j in range(g)) for k in range(g)]
    masks = []
    for word in pres.words:
        alone = FinitePresentation(pres.generators, (word,))
        masks.append(sum(1 << k for k, bits in enumerate(units)
                         if alone.odd_relator(bits) is not None))
    return tuple(masks)


def _words(g):
    exponents = st.one_of(st.integers(-3, 3),
                          st.integers(-10 ** 12, 10 ** 12))
    return st.lists(st.tuples(st.integers(1, g), exponents),
                    max_size=10).map(tuple)


@st.composite
def _presentations(draw):
    g = draw(st.integers(1, 5))
    relators = draw(st.lists(_words(g), max_size=4))
    return FinitePresentation(tuple("x%d" % k for k in range(1, g + 1)),
                              tuple(relators))


@settings(max_examples=300, deadline=None)
@given(_presentations())
def test_odd_masks_match_exponent_sums(pres):
    masks = _sum_masks(pres)
    assert _odd_masks(pres) == masks
    # every assignment x, bit k for generator k+1, finds the first relator
    # whose mask x meets in an odd number of bits
    g = len(pres.generators)
    for x in range(1 << g):
        first = next((word for word, odd in zip(pres.words, masks)
                      if (x & odd).bit_count() & 1), None)
        assert pres.odd_relator(tuple(x >> k & 1 for k in range(g))) == first


def test_odd_masks_match_exponent_sums_on_sweep():
    for m in sweep(8):
        pres = fundamental_group(m)
        assert _odd_masks(pres) == _sum_masks(pres), m
        for bits in epi_bits(m):
            sub = reidemeister_schreier(pres, bits)
            assert _odd_masks(sub) == _sum_masks(sub), (m, bits)


def test_no_record_has_a_dict():
    for cls, (make, _) in CASES.items():
        assert not hasattr(make(), "__dict__"), cls.__name__


def test_sweep_depth_must_be_a_nonnegative_int():
    assert len(list(sweep(0))) == len(ROWS)
    for depth in (-1, -10 ** 12):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            sweep(depth)
        with pytest.raises(ValueError):
            verify_sweep(depth)
    for depth in (True, False, 1.0, "3", None):
        with pytest.raises(TypeError, match="depth must be an int"):
            sweep(depth)
