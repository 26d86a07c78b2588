"""Helpers the tests use to check the library: matrix algebra, words, orbits.

abelianization, exponent_matrix and format_presentation read a
FinitePresentation's syllable words; no runtime path of nilbu calls them.
exponent_matrix sums each word's exponents through homology._exponents, so
it is O(1) in b, and abelianization reduces the relation matrix of
homology._relations with homology._abelian_group, the step from Smith form
to AbelianGroup that h1 takes too.  format_presentation renders '<g1,g2 | w1, w2>' for goldens.
free_reduce, letter_exponent_matrix and reidemeister_schreier are the
letter-level reference for the syllable word code: words are tuples of
nonzero ints, +k the k-th generator and -k its inverse, and a presentation
is read through its letter accessor FinitePresentation.relators.  The
reference also rewrites over any phi = 1 transversal, which nilbu does not;
kernel_presentation turns such a rewriting back into syllable words.
equivalence_classes is the reference for the orbit closure over bit tuples:
it closes orbits of checked characters through apply_move.  quotients_of is
the reference for the rule table of nilbu.quotients_of: it tries every
class of every candidate base that the Euler number allows.  epi_bits is the
reference for the integer-mask enumeration of enumerate_epis: it tries every
bit tuple through odd_relator.  standard_presentation is the reference for
fundamental_group, which shares each family row's relators: it builds every
relator of pi_1 afresh for each manifold.  smith_normal_form is the
reference for nilbu's tuned Smith loop: the same pivot rule and operation
order through two combine closures, every column operation touching every
row, so the two must return identical (S, U, V).  abelian_invariants adds a
presentation's exponent sums up into sparse rows for row_invariants.
torsion_subgroup_killed_by, a mod-2 span test on the free coordinates of
Smith's generator images, is the reference for kills_torsion, and
kernel_rows is the unreduced reference for the oracle's kernel_invariants:
every relator's rows as coverings._kernel_rows rewrites them, h^-b at m's
b included, none of them reduced or read as affine in b.
"""

from itertools import groupby, product

import nilbu
from nilbu import (AbelianGroup, CoveringDescriptor, EpiClass,
                   EpiClassPartition, FinitePresentation, InvariantError,
                   MoveNotApplicable, NilManifold, apply_move,
                   available_moves, check_epimorphism, double_cover,
                   enumerate_epis, format_word, fundamental_group, z2_index)
from nilbu import coverings, homology, presentation
from nilbu.homology import identity, row_invariants
from nilbu.presentation import check_bits
from nilbu.seifert import FAMILIES, ROWS


def matmul(a, b) -> list[list[int]]:
    if any(len(row) != len(b) for row in a):
        raise InvariantError("inner dimensions disagree")
    bc = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(bc)]
            for row in a]


def determinant(m) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvariantError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m):
    """(S, U, V) with S = U * m * V, by the pivot rule of nilbu's loop.

    The pivot is the smallest nonzero |entry| of the working submatrix, ties
    broken row-major; entries are knocked down by the pivot's quotients,
    looping back while a remainder is left, and a row with an entry the
    pivot does not divide is folded into the pivot row.
    """
    A = [list(row) for row in m]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if any(len(row) != nc for row in A):
        raise InvariantError("ragged matrix")
    U, V = identity(nr), identity(nc)

    def row_combine(i, j, q):
        # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_combine(j, i, q):
        # col_j -= q * col_i
        for row in A:
            row[j] -= q * row[i]
        for row in V:
            row[j] -= q * row[i]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j, x in enumerate(A[i][t:], t):
                if x and (pivot is None or abs(x) < pivot[0]):
                    pivot = (abs(x), i, j)
        if pivot is None:
            break
        if pivot[1] != t:
            A[t], A[pivot[1]] = A[pivot[1]], A[t]
            U[t], U[pivot[1]] = U[pivot[1]], U[t]
        if pivot[2] != t:
            for row in A:
                row[t], row[pivot[2]] = row[pivot[2]], row[t]
            for row in V:
                row[t], row[pivot[2]] = row[pivot[2]], row[t]
        p = A[t][t]
        dirty = False
        for i in range(t + 1, nr):
            if A[i][t] % p != 0:
                row_combine(i, t, A[i][t] // p)
                dirty = True
        for j in range(t + 1, nc):
            if A[t][j] % p != 0:
                col_combine(j, t, A[t][j] // p)
                dirty = True
        if dirty:
            continue
        for i in range(t + 1, nr):
            if A[i][t]:
                row_combine(i, t, A[i][t] // p)
        for j in range(t + 1, nc):
            if A[t][j]:
                col_combine(j, t, A[t][j] // p)
        stray = None  # a unit pivot divides everything
        for i in range(t + 1, nr if abs(p) > 1 else t + 1):
            if any(x % p for x in A[i][t + 1:]):
                stray = i
                break
        if stray is not None:
            row_combine(t, stray, -1)
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def abelian_invariants(pres) -> tuple:
    """abelianization(pres).decomposition, without generator images.

    Each relator's exponent sums form a sparse row, added up syllable by
    syllable; empty rows are dropped.
    """
    rows = []
    for word in pres.words:
        row = {}
        for gen, exp in word:
            x = row.get(gen, 0) + exp
            if x:
                row[gen] = x
            else:
                del row[gen]
        if row:
            rows.append(row)
    return row_invariants(rows, len(pres.generators))


def torsion_subgroup_killed_by(bits, group) -> bool:
    """True iff the mod-2 functional phi vanishes on the torsion subgroup.

    The Smith reference for nilbu.kills_torsion.  phi is given by its bits
    (the ints 0 and 1) in generator order, the order of group.gen_images.
    Killing torsion is the same as factoring through the free quotient,
    i.e. phi lying in the GF(2) span of the free coordinates of the
    generator images.  Each free coordinate, mod 2, is a mask with bit j
    for generator j.  The masks are reduced to an XOR basis in which no
    vector has the leading bit of one before it, so min(x, x ^ v) clears
    v's leading bit from x for good; phi's mask must reduce to 0.
    """
    check_bits(bits, len(group.gen_images))
    basis = []
    for column in list(zip(*group.gen_images.values()))[:group.free_rank]:
        x = sum((c % 2) << j for j, c in enumerate(column))
        for v in basis:
            x = min(x, x ^ v)
        if x:
            basis.append(x)
    phi = sum(bit << j for j, bit in enumerate(bits))
    for v in basis:
        phi = min(phi, phi ^ v)
    return phi == 0


def kernel_rows(m, bits) -> tuple:
    """The exponent-sum rows of ker(phi) in pi_1(m), and their column count.

    The rewriting of nilbu's oracle (coverings._kernel_rows and _rewrite),
    with nothing reduced and no entry affine in b: every relator of pi_1(m),
    the section relator with h^-b at m's b, from both cosets, over 2n - 1
    Schreier generators.  The rows are fresh dicts.
    """
    _, fixed, section, h = presentation._ROW_PARTS[m.family, m.betas]
    rows = coverings._kernel_rows(fixed + (section + ((h, -m.b),),), bits)
    return rows, 2 * len(bits) - 1


def inverse_word(word):
    """The inverse of a syllable word."""
    return tuple((gen, -exp) for gen, exp in reversed(word))


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent x x^-1 pairs until none remain."""
    out = []
    for letter in word:
        if letter == 0:
            raise InvariantError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def exponent_matrix(pres) -> list[list[int]]:
    """Abelianized relator matrix: one row per relator, one column per
    generator, from each word's syllables."""
    rows = [homology._exponents(word) for word in pres.words]
    return [[row.get(j, 0) for j in range(len(pres.generators))]
            for row in rows]


def abelianization(pres) -> AbelianGroup:
    """Abelianized group of a presentation, with generator images.

    homology._relations gives the relation matrix, a row per generator and
    a column per relator, as homology._abelian_group takes it.
    """
    count = len(pres.generators)
    return homology._abelian_group(pres.generators,
                                   homology._relations(count, pres.words))


def format_presentation(pres) -> str:
    """'<g1,g2 | w1, w2>', each relator rendered by format_word."""
    body = ", ".join(format_word(pres, word) for word in pres.words)
    return "<%s | %s>" % (",".join(pres.generators), body)


def letter_exponent_matrix(pres) -> list[list[int]]:
    """exponent_matrix letter by letter, read from pres.relators."""
    rows = []
    for word in pres.relators:
        row = [0] * len(pres.generators)
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return rows


def reidemeister_schreier(pres, bits, transversal=None):
    """Generators and freely reduced letter relators of ker(phi), letter by letter.

    The same rewriting as nilbu.reidemeister_schreier: transversal {1, t},
    t the phi = 1 generator with the longest run of one letter (a syllable),
    the first on a tie, which is nilbu's only rule; Schreier generators 'x.r'
    with the trivial t.0 dropped, each relator rewritten from both cosets.
    A transversal names another phi = 1 generator for t, to check that
    every choice presents the same subgroup.
    """
    check_epimorphism(pres, bits)
    if transversal is None:
        runs = [0] * len(bits)
        for word in pres.relators:
            for letter, run in groupby(word):
                x = abs(letter) - 1
                runs[x] = max(runs[x], len(list(run)))
        t = max((x for x, bit in enumerate(bits) if bit), key=runs.__getitem__)
    else:
        t = pres.generators.index(transversal)
        if bits[t] != 1:
            raise InvariantError(
                "transversal generator %r must have phi = 1" % transversal)

    names = []
    index = {}  # (generator, coset) -> letter value
    for x, base_name in enumerate(pres.generators):
        for r in (0, 1):
            if x == t and r == 0:
                continue
            index[(x, r)] = len(names) + 1
            names.append("%s.%d" % (base_name, r))

    relators = []
    for word in pres.relators:
        for start in (0, 1):
            out = []
            coset = start
            for letter in word:
                x = abs(letter) - 1
                if letter > 0:
                    if not (x == t and coset == 0):
                        out.append(index[(x, coset)])
                    coset ^= bits[x]
                else:
                    coset ^= bits[x]
                    if not (x == t and coset == 0):
                        out.append(-index[(x, coset)])
            assert coset == start, "relator escaped its coset"
            relators.append(free_reduce(out))
    return tuple(names), tuple(relators)


def syllables(word):
    """A letter word as syllables: each run of one letter is one syllable."""
    return tuple((abs(letter), len(list(run)) * (1 if letter > 0 else -1))
                 for letter, run in groupby(word))


def kernel_presentation(pres, bits, transversal=None):
    """The reference rewriting of ker(phi) as a FinitePresentation."""
    names, relators = reidemeister_schreier(pres, bits, transversal)
    return FinitePresentation(names, tuple(map(syllables, relators)))


def equivalence_classes(m) -> EpiClassPartition:
    """Partition of enumerate_epis(m) into move-orbits, one Z2Char per image.

    Breadth-first closure under the family's available moves through
    apply_move, which checks every image it builds; classes are ordered by
    their representatives.
    """
    epis = enumerate_epis(m)
    moves = available_moves(m)
    seen = set()
    classes = []
    for start in epis:
        if start.bits in seen:
            continue
        orbit = {start.bits: start}
        frontier = [start]
        while frontier:
            phi = frontier.pop()
            for move in moves:
                try:
                    image = apply_move(phi, move)
                except MoveNotApplicable:
                    continue
                if image.bits not in orbit:
                    orbit[image.bits] = image
                    frontier.append(image)
        seen.update(orbit)
        members = tuple(sorted(orbit.values(), key=lambda c: c.bits))
        classes.append(EpiClass(members))
    classes.sort(key=lambda c: c.representative.bits)
    return EpiClassPartition(m, tuple(classes))


def quotients_of(m) -> tuple:
    """All free involutions on m by exhaustive inversion of double_cover.

    For every family row and both ratios k = 1, 4 of e(base) = k e(m) / 2,
    the b that solves it (if any) names a base, and every class of that
    base goes through double_cover.  Sorted as nilbu.quotients_of sorts.
    """
    c_m, l_m = m.c, m.row.lcm
    found = []
    for (family, betas), row in ROWS.items():
        for k in (1, 4):
            b_cand, rem = divmod(k * c_m * row.lcm - 2 * l_m * row.c0,
                                 2 * l_m * row.lcm)
            if rem or b_cand < row.b_min:
                continue
            base = NilManifold(family, b_cand, betas)
            for cls in nilbu.equivalence_classes(base).classes:
                rep = cls.representative
                if double_cover(rep) == m:
                    found.append(CoveringDescriptor(rep, m, z2_index(rep)))
    found.sort(key=lambda d: (d.base.encode(), d.phi.bits))
    return tuple(found)


def epi_bits(m) -> list:
    """Bits of every epimorphism pi_1(m) -> Z2, lexicographic.

    Every bit tuple in generator order, from product, that is not all 0 and
    gives no relator an odd image under odd_relator.
    """
    pres = fundamental_group(m)
    return [bits for bits in product((0, 1), repeat=len(pres.generators))
            if any(bits) and pres.odd_relator(bits) is None]


def standard_presentation(m) -> FinitePresentation:
    """pi_1 of m with every relator built afresh, as fundamental_group says.

    [s_i, h], s_i^a_i h^b_i, v_j h v_j^-1 h^-eps, then s_1...s_n V h^-b,
    V the handle commutators or the crosscap squares.
    """
    eps, g, _, _ = FAMILIES[m.family]
    pairs = m.row.pairs
    n = len(pairs)
    names = tuple("s%d" % (i + 1) for i in range(n)) \
        + tuple("v%d" % (j + 1) for j in range(g)) + ("h",)
    s = tuple(range(1, n + 1))
    v = tuple(range(n + 1, n + g + 1))
    h = n + g + 1

    def commutator(x, y):
        return ((x, 1), (y, 1), (x, -1), (y, -1))

    relators = [commutator(s[i], h) for i in range(n)]
    for i, (a, beta) in enumerate(pairs):
        relators.append(((s[i], a), (h, beta)))
    for j in range(g):
        relators.append(((v[j], 1), (h, 1), (v[j], -1), (h, -eps)))
    long_word = tuple((x, 1) for x in s)
    if eps == +1:
        for k in range(g // 2):
            long_word += commutator(v[2 * k], v[2 * k + 1])
    else:
        for j in range(g):
            long_word += ((v[j], 2),)
    long_word += ((h, -m.b),)
    relators.append(long_word)
    return FinitePresentation(names, tuple(relators))
