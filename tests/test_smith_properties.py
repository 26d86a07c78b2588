"""Property tests of the Smith normal form on random and adversarial matrices.

Each matrix is checked three ways: S = U * A * V with U and V unimodular,
S diagonal with the divisibility chain d_1 | d_2 | ... and zeros last, and
the diagonal against sympy's Smith normal form as an independent route.
The tuned loop must return the very (S, U, V) of the reference loop in
tests/helpers.py on those matrices, on every H1 relation matrix of
sweep(16) and on each family row's at b = 10^12.  The covering oracle's
invariants (row_invariants, a sparse diagonalization that runs no Smith
loop) must match sympy's Smith form and the full abelianization on
arbitrary sparse rows: with no rows, on generators that no row mentions,
on rank-deficient rows, with entries near 10^12 and with negative
pivots; and, through helpers.abelian_invariants, on presentations with
commutator relators, whose rows sum to zero.  A list of lists has no
column count when it has no rows, so a 0 x N matrix is the empty list; an
N x 0 matrix is N empty rows.
"""

import pytest

import helpers
from nilbu import (FinitePresentation, NilManifold, abelianization,
                   fundamental_group, smith_normal_form, sweep)
from nilbu.homology import row_invariants
from nilbu.presentation import exponent_matrix
from nilbu.seifert import ROWS

from helpers import abelian_invariants, determinant, matmul

pytest.importorskip("hypothesis")
normalforms = pytest.importorskip("sympy.matrices.normalforms")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import Matrix, ZZ  # noqa: E402

SMALL = st.integers(-30, 30)
LARGE = st.integers(-10 ** 40, 10 ** 40)


@st.composite
def random_matrices(draw, entries=SMALL):
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


@st.composite
def rank_deficient(draw):
    # the product of an nr x k and a k x nc matrix has rank at most k
    nr, nc = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(0, min(nr, nc) - 1))
    left = [[draw(SMALL) for _ in range(k)] for _ in range(nr)]
    right = [[draw(SMALL) for _ in range(nc)] for _ in range(k)]
    if k == 0:
        return [[0] * nc for _ in range(nr)]
    return matmul(left, right)


@st.composite
def one_big_entry(draw):
    # a huge entry among small ones: the pivot search must not favour it
    m = draw(random_matrices())
    if m and m[0]:
        i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1))
        m[i][j] = draw(st.sampled_from((1, -1))) * 10 ** draw(st.integers(20, 60)) + 1
    return m


matrices = st.one_of(random_matrices(), random_matrices(LARGE),
                     rank_deficient(), one_big_entry(),
                     st.integers(0, 5).map(lambda n: [[] for _ in range(n)]))


def _sympy_diagonal(m):
    if not m or not m[0]:
        return []
    S = normalforms.smith_normal_form(Matrix(m), domain=ZZ)
    diag = [abs(int(S[i, i])) for i in range(min(S.shape))]
    nonzero = [d for d in diag if d]
    return nonzero + [0] * (len(diag) - len(nonzero))


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_smith_normal_form_properties(m):
    original = [row[:] for row in m]
    S, U, V = smith_normal_form(m)
    assert m == original
    nr, nc = len(m), len(m[0]) if m else 0
    assert len(U) == nr and len(V) == nc
    assert S == matmul(matmul(U, m), V)
    assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1
    assert all(x == 0 for i, row in enumerate(S)
               for j, x in enumerate(row) if i != j)
    diag = [S[i][i] for i in range(min(nr, nc))]
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert diag == _sympy_diagonal(m)
    assert m == original


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_tuned_smith_loop_matches_reference(m):
    assert smith_normal_form(m) == helpers.smith_normal_form(m)


def _h1_matrix(m):
    # the relation matrix abelianization reduces: one column per relator
    return [list(column) for column in
            zip(*exponent_matrix(fundamental_group(m)))]


def test_tuned_smith_loop_matches_reference_on_h1_matrices():
    manifolds = list(sweep(16)) + [NilManifold(family, 10 ** 12, betas)
                                   for family, betas in ROWS]
    for m in manifolds:
        A = _h1_matrix(m)
        assert smith_normal_form(A) == helpers.smith_normal_form(A), m


@st.composite
def presentations(draw):
    g = draw(st.integers(1, 5))
    exponents = st.one_of(st.integers(-4, 4), LARGE)
    word = st.lists(st.tuples(st.integers(1, g), exponents), max_size=8)
    words = draw(st.lists(word.map(tuple), max_size=6))
    return FinitePresentation(tuple("x%d" % k for k in range(1, g + 1)),
                              tuple(words))


@st.composite
def sparse_presentations(draw):
    # commutators [x, y], whose rows sum to zero, among short relators, on
    # more generators than any relator mentions; the relator list may be empty
    g = draw(st.integers(1, 7))
    gen = st.integers(1, max(1, g - 2))
    commutator = st.tuples(gen, gen).map(
        lambda xy: ((xy[0], 1), (xy[1], 1), (xy[0], -1), (xy[1], -1)))
    short = st.lists(st.tuples(gen, st.integers(-6, 6).filter(bool)),
                     max_size=4).map(tuple)
    words = draw(st.lists(st.one_of(commutator, short), max_size=6))
    return FinitePresentation(tuple("x%d" % k for k in range(1, g + 1)),
                              tuple(words))


@settings(max_examples=120, deadline=None)
@given(st.one_of(presentations(), sparse_presentations()))
def test_invariants_without_transforms_match_abelianization(pres):
    assert abelian_invariants(pres) == abelianization(pres).decomposition


@pytest.mark.parametrize("generators, words, expected", [
    (("x", "y"), (), (2, ())),
    (("x", "y", "z"), (((1, 1), (2, 1), (1, -1), (2, -1)),), (3, ())),
    (("x", "y", "z"), (((1, 1), (2, 1), (1, -1), (2, -1)), ((1, 4),)),
     (2, (4,))),
    (("x", "y", "z", "w"), (((1, 2), (2, 1)), ((2, 3), (1, 1))), (2, (5,))),
])
def test_invariants_match_abelianization_on_examples(generators, words,
                                                     expected):
    pres = FinitePresentation(generators, words)
    assert abelian_invariants(pres) == expected
    assert abelianization(pres).decomposition == expected


@st.composite
def sparse_rows(draw):
    # rows over count generators, some of which no row mentions; later rows
    # may be combinations of earlier ones, entries may be near 10^12, and a
    # row may be one negative entry, a negative pivot
    count = draw(st.integers(0, 7))
    used = draw(st.integers(0, count))
    entry = st.one_of(st.integers(-6, 6),
                      st.integers(-3, 3).map(lambda x: x - 10 ** 12),
                      st.integers(-3, 3).map(lambda x: x + 10 ** 12))
    rows = []
    for _ in range(draw(st.integers(0, 6)) if used else 0):
        kind = draw(st.sampled_from(("random", "combination", "negative")))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(SMALL), draw(SMALL)
            row = {k: p * a.get(k, 0) + q * b.get(k, 0) for k in {*a, *b}}
        elif kind == "negative":
            row = {draw(st.integers(0, used - 1)): -draw(st.integers(1, 9))}
        else:
            row = draw(st.dictionaries(st.integers(0, used - 1), entry,
                                       max_size=4))
        rows.append({k: x for k, x in row.items() if x})
    return rows, count


@settings(deadline=None)
@given(sparse_rows())
def test_row_invariants_match_sympy_and_abelianization(rows_count):
    rows, count = rows_count
    dense = [[row.get(k, 0) for k in range(count)] for row in rows]
    words = tuple(tuple((k + 1, x) for k, x in sorted(row.items()))
                  for row in rows)
    pres = FinitePresentation(tuple("x%d" % k for k in range(count)), words)
    diag = _sympy_diagonal(dense)
    expected = (count - sum(1 for d in diag if d),
                tuple(d for d in diag if d > 1))
    got = row_invariants([dict(row) for row in rows], count)
    assert got == expected == abelianization(pres).decomposition
