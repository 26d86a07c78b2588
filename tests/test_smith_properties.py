"""Property tests of the Smith normal form on random and adversarial matrices.

Each matrix is checked three ways: S = U * A * V with U and V unimodular,
S diagonal with the divisibility chain d_1 | d_2 | ... and zeros last, and
the diagonal against sympy's Smith normal form as an independent route.
The covering oracle's invariants (unit-pivot elimination, then the same
Smith loop on the core) must match the full abelianization.  A list of
lists has no column count when it has no rows, so a 0 x N matrix is the
empty list; an N x 0 matrix is N empty rows.
"""

import pytest

from nilbu import FinitePresentation, abelianization, smith_normal_form
from nilbu.homology import abelian_invariants

from helpers import determinant, matmul

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


@st.composite
def presentations(draw):
    g = draw(st.integers(1, 5))
    exponents = st.one_of(st.integers(-4, 4), LARGE)
    word = st.lists(st.tuples(st.integers(1, g), exponents), max_size=8)
    words = draw(st.lists(word.map(tuple), max_size=6))
    return FinitePresentation(tuple("x%d" % k for k in range(1, g + 1)),
                              tuple(words))


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_invariants_without_transforms_match_abelianization(pres):
    assert abelian_invariants(pres) == abelianization(pres).decomposition
