"""Exact integer linear algebra and first homology of the Nil families.

Matrices are plain lists of lists of Python ints, so arithmetic is exact and
unbounded (no overflow to report, ever).  The Smith normal form returns the
unimodular transforms, which the abelianization uses to express generator
images in the invariant-factor basis; abelianization and h1 are the callers
of the Smith loop, and h1 serves what reads generator images (nilbu h1, the
stated relations) and what runs once per manifold (verify's closed-form and
mod-2 rank checks).  pi_1 sees b only through the syllable h^-b, so h1
builds no presentation: relation_matrix subtracts b at the entry of h and
the section relator of _RELATIONS, each family row's exponent sums at b = 0.
Sparse rows of mostly unit entries need no transforms: diagonalize reduces
them to a diagonal by row and column operations, pivoting on the least
|entry| (Havas, Holt and Rees, Recognizing badly presented Z-modules,
Linear Algebra Appl. 192, 1993), and row_invariants turns the diagonal
into the chain d_1 | d_2 | ... (Newman, Integral Matrices, 1972, ch. II).
Both static tables of such rows, _H1 here and coverings' kernel table, take
one form, an affine row over a fixed diagonal: affine_entry diagonalizes a
module's b-free rows once and replays the column operations on its rows
u - x v, and affine_invariants reads the invariants at any x with no Smith
loop.  _H1 (x = b) gives h1_invariants, H1 of the oracle's claimed cover,
and the index-1 test kills_torsion, both O(1) in b.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .presentation import (_BOUND, _ROW_PARTS, FinitePresentation,
                           exponent_matrix)
from .seifert import InvariantError, NilManifold, Record


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m):
    """Smith normal form with transforms: returns (S, U, V), S = U * m * V.

    U, V are unimodular; S is diagonal with nonnegative entries, each
    dividing the next, zeros last.  Pivot choice is the smallest nonzero
    |entry| of the working submatrix with ties broken row-major, which makes
    S, U, V deterministic for a given input (Cohen 1993, Alg. 2.4.14).
    """
    A = [list(row) for row in m]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if any(len(row) != nc for row in A):
        raise InvariantError("ragged matrix")
    U, V = identity(nr), identity(nc)
    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j, x in enumerate(A[i][t:], t):
                if x and (pivot is None or abs(x) < pivot[0]):
                    pivot = (abs(x), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
        At, Ut = A[t], U[t]
        p = At[t]
        # knock column/row entries down, row_i -= q * row_t and col_j -= q *
        # col_t (a row whose col_t entry is 0 is left as it is); any
        # remainder is strictly smaller than the pivot, so looping back
        # makes progress
        dirty = False
        for i in range(t + 1, nr):
            q, r = divmod(A[i][t], p)
            if r:
                A[i] = [x - q * y for x, y in zip(A[i], At)]
                U[i] = [x - q * y for x, y in zip(U[i], Ut)]
                dirty = True
        for j in range(t + 1, nc):
            q, r = divmod(At[j], p)
            if r:
                for row in A:
                    if row[t]:
                        row[j] -= q * row[t]
                for row in V:
                    if row[t]:
                        row[j] -= q * row[t]
                dirty = True
        if dirty:
            continue
        for i in range(t + 1, nr):
            if A[i][t]:
                q = A[i][t] // p
                A[i] = [x - q * y for x, y in zip(A[i], At)]
                U[i] = [x - q * y for x, y in zip(U[i], Ut)]
        for j in range(t + 1, nc):
            if At[j]:
                q = At[j] // p
                for row in A:
                    if row[t]:
                        row[j] -= q * row[t]
                for row in V:
                    if row[t]:
                        row[j] -= q * row[t]
        stray = None  # a unit pivot divides everything
        for i in range(t + 1, nr if abs(p) > 1 else t + 1):
            if any(x % p for x in A[i][t + 1:]):
                stray = i
                break
        if stray is not None:
            # fold the offending row into row t so the pivot shrinks next pass
            A[t] = [x + y for x, y in zip(At, A[stray])]
            U[t] = [x + y for x, y in zip(Ut, U[stray])]
            continue
        if p < 0:
            A[t] = [-x for x in At]
            U[t] = [-x for x in Ut]
        t += 1
    return A, U, V


class AbelianGroup(Record):
    """Finitely generated abelian group in invariant-factor form.

    torsion is the chain d_1 | d_2 | ... with every d_i >= 2 (Z_1 factors are
    dropped).  gen_images maps each presentation generator to its coordinates
    in the decomposition basis, free coordinates first, then torsion
    coordinates reduced mod d_i.  Unhashable, since gen_images is a dict.
    """

    __slots__ = _fields = ("free_rank", "torsion", "gen_images")

    @property
    def decomposition(self) -> tuple[int, tuple[int, ...]]:
        """Isomorphism invariant: (free rank, invariant factors)."""
        return (self.free_rank, self.torsion)

    def evaluate(self, coeffs: dict) -> tuple[int, ...]:
        """Coordinates of sum coeffs[g] * image(g), reduced mod the orders."""
        n = self.free_rank + len(self.torsion)
        total = [0] * n
        for name, coeff in coeffs.items():
            for k, x in enumerate(self.gen_images[name]):
                total[k] += coeff * x
        for k, d in enumerate(self.torsion):
            total[self.free_rank + k] %= d
        return tuple(total)

    def is_zero_combination(self, coeffs: dict) -> bool:
        return all(x == 0 for x in self.evaluate(coeffs))

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank,
                "torsion": list(self.torsion),
                "gen_images": {k: list(v) for k, v in self.gen_images.items()}}


def abelianization(pres: FinitePresentation) -> AbelianGroup:
    """Abelianized group of a presentation, with generator images.

    The relation matrix is the transpose of the exponent-sum matrix (one
    column per relator); if S = U A V is its Smith form then generator j has
    decomposition coordinates given by column j of U.
    """
    R = exponent_matrix(pres)
    return _abelian_group(pres.generators, [[row[j] for row in R] for j
                                            in range(len(pres.generators))])


def _abelian_group(names, A) -> AbelianGroup:
    """The group that relation matrix A (a row per generator, in the order
    of names) presents, with generator images, as abelianization says."""
    S, U, _ = smith_normal_form(A)
    # the order of each decomposition coordinate, 0 when it is free
    orders = [row[i] if i < len(row) else 0 for i, row in enumerate(S)]
    free_pos = [i for i, d in enumerate(orders) if d == 0]
    tor_pos = [i for i, d in enumerate(orders) if d >= 2]
    gen_images = {name: tuple(U[i][j] for i in free_pos)
                  + tuple(U[i][j] % orders[i] for i in tor_pos)
                  for j, name in enumerate(names)}
    torsion = tuple(orders[i] for i in tor_pos)
    return AbelianGroup(len(free_pos), torsion, gen_images)


def diagonalize(rows) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """Reduce sparse rows to a diagonal by row and column operations.

    Each row is a dict, column -> nonzero coefficient, and is consumed.
    The pivot is the least |entry|, the first in row order and then in the
    row's column order.  Row operations clear the pivot's column from the
    other rows, and column operations (k, q, g), col_k -= q * col_g, reduce
    the pivot's row; each leaves a remainder below the pivot, so a pivot
    that is not yet alone in its row and column gives way to a smaller one.
    A pivot alone in both leaves with its row.  A unit pivot divides
    everything, so it leaves at once (Havas, Holt and Rees, Recognizing
    badly presented Z-modules, Linear Algebra Appl. 192, 1993).  Returns
    the diagonal, pivot column -> |pivot|, and the column operations in
    order; the operations act on the columns of any row over the same
    generators, which is how affine_entry reduces its section rows.
    """
    rows = [row for row in rows if row]
    diag = {}
    ops = []
    while rows:
        least = 0
        for row in rows:
            for k, x in row.items():
                if not least or abs(x) < least:
                    least, pivot, g = abs(x), row, k
            if least == 1:
                break
        p = pivot[g]
        stray = False
        for row in rows:
            x = row.get(g)
            if x and row is not pivot:
                q = x // p  # row -= q * pivot
                for k, y in pivot.items():
                    z = row.get(k, 0) - q * y
                    if z:
                        row[k] = z
                    else:
                        del row[k]
                stray = stray or g in row
        holders = [row for row in rows if g in row] if stray else (pivot,)
        for k, y in list(pivot.items()):
            if k != g:
                q = y // p  # col_k -= q * col_g
                ops.append((k, q, g))
                for row in holders:
                    z = row.get(k, 0) - q * row[g]
                    if z:
                        row[k] = z
                    else:
                        del row[k]
        if not stray and len(pivot) == 1:
            diag[g] = least
            pivot.clear()
        rows = [row for row in rows if row]
    return diag, ops


def row_invariants(rows, count: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of Z^count modulo the rows.

    Each row is a sparse dict, column -> nonzero coefficient, and is
    consumed; a generator that no row mentions is free.  diagonalize gives
    the rank and the diagonal, its column operations unused here.  Each
    pair of diagonal entries is replaced by its gcd and lcm, which keeps the
    group; after the pass over entry i it divides every later entry, so the
    entries above 1 are the invariant factors d_1 | d_2 | ... (Newman,
    Integral Matrices, 1972, ch. II).
    """
    diag, _ = diagonalize(rows)
    d = [x for x in diag.values() if x > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return count - len(diag), tuple(x for x in d if x > 1)


def relation_matrix(m: NilManifold) -> list[tuple[int, ...]]:
    """H1's relation matrix of m, the transposed exponent_matrix of
    fundamental_group(m), from m's row's template in _RELATIONS.

    Free reduction keeps exponent sums, so h^-b only subtracts b from the
    entry of h and the section relator, the last row's last entry.
    """
    *rows, last = _RELATIONS[m.family, m.betas]
    return rows + [last[:-1] + (last[-1] - m.b,)]


@lru_cache(maxsize=_BOUND)
def h1(m: NilManifold) -> AbelianGroup:
    """First homology of the manifold: abelianization(fundamental_group(m)),
    from relation_matrix(m), with no presentation built."""
    return _abelian_group(_ROW_PARTS[m.family, m.betas][0], relation_matrix(m))


def mod2_rank(group: AbelianGroup) -> int:
    """dim over Z2 of group (x) Z2: free rank plus number of even factors."""
    return group.free_rank + sum(1 for d in group.torsion if d % 2 == 0)


def _add(row: dict, gen: int, exp: int) -> None:
    """Add exp to a sparse row's entry at gen, keeping only nonzero entries."""
    exp += row.get(gen, 0)
    if exp:
        row[gen] = exp
    else:
        row.pop(gen, None)


def _exponents(word) -> dict:
    """The word's exponent sums, 0-based generator -> nonzero sum."""
    row: dict = {}
    for gen, exp in word:
        _add(row, gen - 1, exp)
    return row


def _relations(count: int, words) -> tuple:
    """H1's relation matrix of words over count generators, a row per
    generator and a column per word, from the words' _exponents rows."""
    rows = [_exponents(word) for word in words]
    return tuple(tuple(row.get(j, 0) for row in rows) for j in range(count))


# (family, betas) -> H1's relation matrix of the row at b = 0, as tuples, a
# row per generator and a column per relator; static like _ROW_PARTS
_RELATIONS = {key: _relations(len(names), fixed + (section,))
              for key, (names, fixed, section, _) in _ROW_PARTS.items()}


def affine_entry(fixed, sections, count: int) -> tuple:
    """Z^count modulo the fixed rows and a row u - x v per section (u, v),
    reduced once for every integer x.

    The rows are sparse dicts, the fixed ones consumed and u and v changed
    in place.  The fixed rows go through diagonalize, and u and v through
    its column operations C, since (u - x v) C = u C - x v C.  A unit
    pivot's row clears its column and adds only an invariant factor 1, so
    the unit pivots' columns leave u, v and the count.  Returns the entry
    that affine_invariants reads, (that count, the other pivots as (column,
    |pivot|), the (u, v) pairs), then the diagonal and C.
    """
    diag, ops = diagonalize(fixed)
    units = [g for g, d in diag.items() if d == 1]
    for pair in sections:
        for row in pair:
            for k, q, g in ops:  # col_k -= q * col_g
                if y := row.get(g):
                    _add(row, k, -q * y)
            for g in units:
                row.pop(g, None)
    torsion = tuple((g, d) for g, d in diag.items() if d > 1)
    return (count - len(units), torsion, tuple(sections)), diag, ops


def affine_invariants(entry, x: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of an affine_entry's module at x.

    row_invariants runs on fresh rows, a one-entry row per pivot of at
    least 2 and u - x v per section, so the entry is left as it is; the
    work does not grow with x.
    """
    count, torsion, sections = entry
    rows = [{g: d} for g, d in torsion]
    for u, v in sections:
        rows.append({k: y for k in u.keys() | v.keys()
                     if (y := u.get(k, 0) - x * v.get(k, 0))})
    return row_invariants(rows, count)


def _h1_table() -> dict:
    """The b-free part of every family row's H1, reduced once.

    For each row the fixed relators' exponent-sum rows go through
    affine_entry with one section: the section relator's row is u - b v, u
    the row of its prefix and v the unit row at h.  The entry is
    affine_entry's, then C^-1 mod 2 at each pivot column and at each other
    (free) column as a mask over the generators, C the product of the
    column operations.
    """
    table = {}
    for key, (names, fixed, section, h) in _ROW_PARTS.items():
        entry, diag, ops = affine_entry(
            [_exponents(word) for word in fixed],
            [(_exponents(section), {h - 1: 1})], len(names))
        inverse = [1 << j for j in range(len(names))]
        for k, q, g in ops:  # C^-1 replays each operation as y_g += q y_k
            if q & 1:
                inverse[g] ^= inverse[k]
        table[key] = (entry, tuple(inverse[g] for g in diag),
                      {j: x for j, x in enumerate(inverse) if j not in diag})
    return table


# (family, betas) -> _h1_table's entry; static like _RELATIONS
_H1 = _h1_table()


def h1_invariants(m: NilManifold) -> tuple[int, tuple[int, ...]]:
    """h1(m).decomposition, from m's row's entry in _H1 with no Smith loop:
    affine_invariants at x = b, O(1) in b."""
    return affine_invariants(_H1[m.family, m.betas][0], m.b)


def kills_torsion(m: NilManifold, bits) -> bool:
    """True iff the mod-2 functional phi, bits in generator order (a
    homomorphism of pi_1(m)), vanishes on the torsion of H1(m).

    That is when phi is, mod 2, some psi in Hom(H1, Z), the integer kernel
    of the relation matrix.  In the reduced basis of m's row's entry in
    _H1, psi = C psi' with psi' 0 at every pivot column and a . psi' = 0 on
    the free columns, a = u - b v there.  So y = C^-1 phi mod 2 must be 0
    at every pivot column, and y's free part x must be a solution mod 2:
    any x when a = 0, and else x . a / gcd(a) even, since a / gcd(a) is
    primitive and its integer kernel reduces onto its kernel mod 2.  O(1)
    in b.
    """
    (_, _, ((u, v),)), pivots, free = _H1[m.family, m.betas]
    phi = 0
    for j, bit in enumerate(bits):
        if bit:
            phi |= 1 << j
    for mask in pivots:
        if (phi & mask).bit_count() & 1:
            return False
    b = m.b
    g = 0
    odd = 0  # x . a
    for j, mask in free.items():
        a = u.get(j, 0) - b * v.get(j, 0)
        g = gcd(g, a)
        if (phi & mask).bit_count() & 1:
            odd += a
    return not g or odd // g % 2 == 0
