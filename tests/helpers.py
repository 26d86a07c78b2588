"""Helpers the tests use to check the library: matrix algebra, words, orbits.

free_reduce, exponent_matrix and reidemeister_schreier are the letter-level
reference for the syllable word code of nilbu.presentation: words are tuples
of nonzero ints, +k the k-th generator and -k its inverse, and a presentation
is read through its letter accessor FinitePresentation.relators.  The
reference also rewrites over any phi = 1 transversal, which nilbu does not;
kernel_presentation turns such a rewriting back into syllable words.
equivalence_classes is the reference for the orbit closure over bit tuples:
it closes orbits of checked characters through apply_move.  quotients_of is
the reference for the pruned search of nilbu.quotients_of: it tries every
class of every candidate base that the Euler number allows.  epi_bits is the
reference for the integer-mask enumeration of enumerate_epis: it tries every
bit tuple through odd_relator.
"""

from itertools import groupby, product

import nilbu
from nilbu import (CoveringDescriptor, EpiClass, EpiClassPartition,
                   FinitePresentation, InvariantError, MoveNotApplicable,
                   NilManifold, apply_move, available_moves,
                   check_epimorphism, double_cover, enumerate_epis,
                   fundamental_group, z2_index)
from nilbu.seifert import ROWS


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
    """Abelianized relator matrix: one row per relator, one column per generator."""
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
                    image = apply_move(phi, move, m)
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
    c_m, l_m = m.b * m.row.lcm + m.row.c0, m.row.lcm
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
                if double_cover(base, rep) == m:
                    found.append(CoveringDescriptor(
                        base, rep, m, z2_index(base, rep)))
    found.sort(key=lambda d: (d.base.encode(), d.phi.bits))
    return tuple(found)


def epi_bits(m) -> list:
    """Bits of every epimorphism pi_1(m) -> Z2, lexicographic.

    Every bit tuple in generator order, from product, that is not all 0 and
    gives no relator an odd image under odd_relator.
    """
    pres = fundamental_group(m.seifert())
    return [bits for bits in product((0, 1), repeat=len(pres.generators))
            if any(bits) and pres.odd_relator(bits) is None]
