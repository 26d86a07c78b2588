"""Differential test: the syllable word code against a letter-level reference.

The reference in helpers.py is the letter-by-letter free reduction, exponent
matrix and Reidemeister-Schreier rewriting.  On random words and
presentations of one to four generators, the syllable code, and the
syllable exponent_matrix of helpers.py, must give the same answers once
its words are spelled out letter by letter.
"""

from itertools import product

import pytest

import helpers
from nilbu import FinitePresentation, free_reduce, reidemeister_schreier
from nilbu.presentation import letters

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def words(g):
    exponents = st.one_of(st.integers(-3, 3), st.integers(-40, 40))
    return st.lists(st.tuples(st.integers(1, g), exponents),
                    max_size=8).map(tuple)


@st.composite
def presentations(draw):
    g = draw(st.integers(1, 4))
    relators = draw(st.lists(words(g), max_size=3))
    return FinitePresentation(tuple("x%d" % k for k in range(1, g + 1)),
                              tuple(relators))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(words))
def test_free_reduce_matches_letters(word):
    reduced = free_reduce(word)
    assert letters(reduced) == helpers.free_reduce(letters(word))
    # run-length normal: no zero exponent, no two adjacent syllables on one
    # generator, so the syllables are the runs of the reduced letter word
    assert all(exp for _, exp in reduced)
    assert all(a[0] != b[0] for a, b in zip(reduced, reduced[1:]))


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_layers_match_letters(pres):
    assert pres.relators == tuple(map(letters, pres.words))
    assert helpers.exponent_matrix(pres) == helpers.letter_exponent_matrix(pres)
    for bits in product((0, 1), repeat=len(pres.generators)):
        if not any(bits) or pres.odd_relator(bits) is not None:
            continue
        got = reidemeister_schreier(pres, bits)
        assert (got.generators, got.relators) \
            == helpers.reidemeister_schreier(pres, bits)
