"""Exact integer linear algebra and first homology of the Nil families.

Matrices are plain lists of lists of Python ints, so arithmetic is exact and
unbounded (no overflow to report, ever).  The Smith normal form returns the
unimodular transforms, which the abelianization uses to express generator
images in the invariant-factor basis for the epimorphism counts and the
index-1 torsion test (a mod-2 span test on integer masks).  The covering
oracle compares invariant factors only (abelian_invariants): its sparse
Reidemeister-Schreier relation matrices have mostly unit entries, so it
first eliminates unit pivots, each adding only an invariant factor 1, and
runs the same Smith loop on the small core left (Havas, Holt and Rees,
Recognizing badly presented Z-modules, Linear Algebra Appl. 192, 1993).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice

from .presentation import (FinitePresentation, check_bits, exponent_matrix,
                           fundamental_group)
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
    A = [[row[j] for row in R] for j in range(len(pres.generators))]
    S, U, _ = smith_normal_form(A)
    # the order of each decomposition coordinate, 0 when it is free
    orders = [row[i] if i < len(row) else 0 for i, row in enumerate(S)]
    free_pos = [i for i, d in enumerate(orders) if d == 0]
    tor_pos = [i for i, d in enumerate(orders) if d >= 2]
    gen_images = {name: tuple(U[i][j] for i in free_pos)
                  + tuple(U[i][j] % orders[i] for i in tor_pos)
                  for j, name in enumerate(pres.generators)}
    torsion = tuple(orders[i] for i in tor_pos)
    return AbelianGroup(len(free_pos), torsion, gen_images)


def abelian_invariants(pres: FinitePresentation) -> tuple[int, tuple[int, ...]]:
    """abelianization(pres).decomposition, without generator images.

    Each relator's exponent sums form a sparse row, added up syllable by
    syllable; empty rows are dropped.  A pass runs through the rows, and
    each row with an entry +-1 on a generator is a pivot: exact row
    operations clear that generator from the other rows, and the row and
    the generator are dropped, since the relation expresses the generator
    through the others and adds only an invariant factor 1.  Passes repeat
    while one finds a pivot, as an elimination can give a unit to a row
    already passed.  The Smith loop then runs on the core left, U and V
    unused; the free rank is the generators left minus the core's rank
    (Havas, Holt and Rees 1993; Cohen 1993, Alg. 2.4.14).
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
    left = len(pres.generators)
    pivots = True
    while pivots:
        pivots = False
        kept = []
        for i, pivot in enumerate(rows):
            for gen, u in pivot.items():
                if u == 1 or u == -1:
                    break
            else:
                kept.append(pivot)
                continue
            del pivot[gen]
            left -= 1
            pivots = True
            for row in chain(kept, islice(rows, i + 1, None)):
                q = row.pop(gen, 0) * u  # row -= q * pivot clears gen
                if q:
                    for k, x in pivot.items():
                        y = row.get(k, 0) - q * x
                        if y:
                            row[k] = y
                        else:
                            del row[k]
        rows = kept
    gens = sorted({gen for row in rows for gen in row})
    S, _, _ = smith_normal_form([[row.get(gen, 0) for gen in gens]
                                 for row in rows if row])
    diag = [S[i][i] for i in range(min(len(S), len(gens)))]
    return left - sum(1 for d in diag if d), tuple(d for d in diag if d >= 2)


@lru_cache(maxsize=None)
def h1(m: NilManifold) -> AbelianGroup:
    """First homology of the manifold, via its fundamental group."""
    return abelianization(fundamental_group(m))


def mod2_rank(group: AbelianGroup) -> int:
    """dim over Z2 of group (x) Z2: free rank plus number of even factors."""
    return group.free_rank + sum(1 for d in group.torsion if d % 2 == 0)


def torsion_subgroup_killed_by(bits, group: AbelianGroup) -> bool:
    """True iff the mod-2 functional phi vanishes on the torsion subgroup.

    phi is given by its bits (the ints 0 and 1) in generator order, the
    order of group.gen_images.  Killing torsion is the same as factoring
    through the free quotient, i.e. phi lying in the GF(2) span of the free
    coordinates of the generator images.  Each free coordinate, mod 2, is a
    mask with bit j for generator j.  The masks are reduced to an XOR basis
    in which no vector has the leading bit of one before it, so min(x, x ^ v)
    clears v's leading bit from x for good; phi's mask must reduce to 0.
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
