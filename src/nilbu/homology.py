"""Exact integer linear algebra and first homology of the Nil families.

Matrices are plain lists of lists of Python ints, so arithmetic is exact and
unbounded (no overflow to report, ever).  The Smith normal form returns the
unimodular transforms, which the abelianization uses to express generator
images in the invariant-factor basis for the epimorphism counts and the
index-1 torsion test.  The covering oracle compares invariant factors only
(abelian_invariants): its Reidemeister-Schreier relation matrices are sparse
with mostly unit entries, so it first eliminates unit pivots on sparse rows,
each of which adds only an invariant factor 1, and runs the same Smith loop,
without transforms, on the small core left over (Havas, Holt and Rees,
Recognizing badly presented Z-modules, Linear Algebra Appl. 192, 1993).
"""

from __future__ import annotations

from functools import lru_cache

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
    S, U, V deterministic for a given input.
    """
    return _smith(m, True)


def _smith(m, transforms: bool):
    # without transforms U has empty rows and V none: the same loop does no
    # work on them and S comes out the same (Cohen 1993, Alg. 2.4.14)
    A = [list(row) for row in m]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if any(len(row) != nc for row in A):
        raise InvariantError("ragged matrix")
    U = identity(nr) if transforms else [[] for _ in A]
    V = identity(nc) if transforms else []

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
        # knock column/row entries down; any remainder is strictly smaller
        # than the pivot, so looping back makes progress
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
            # fold the offending row into row t so the pivot shrinks next pass
            row_combine(t, stray, -1)
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
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
    orders, U = _orders(pres)
    free_pos = [i for i, d in enumerate(orders) if d == 0]
    tor_pos = [i for i, d in enumerate(orders) if d >= 2]
    gen_images = {name: tuple(U[i][j] for i in free_pos)
                  + tuple(U[i][j] % orders[i] for i in tor_pos)
                  for j, name in enumerate(pres.generators)}
    torsion = tuple(orders[i] for i in tor_pos)
    return AbelianGroup(len(free_pos), torsion, gen_images)


def abelian_invariants(pres: FinitePresentation) -> tuple[int, tuple[int, ...]]:
    """abelianization(pres).decomposition, without transforms.

    Each relator's exponent sums form a sparse row.  While some row has an
    entry +-1 on a generator, exact row operations clear that generator from
    the other rows, and the row and the generator are dropped: the relation
    expresses the generator through the others, so it adds only an invariant
    factor 1.  The Smith loop without U and V then runs on the core left;
    the free rank is the generators left minus the core's rank (Havas, Holt
    and Rees 1993; Cohen 1993, Alg. 2.4.14).
    """
    rows = [{gen: x for gen, x in enumerate(row, 1) if x}
            for row in exponent_matrix(pres)]
    left = len(pres.generators)
    i = 0
    while i < len(rows):
        pivot = rows[i]
        for gen, u in pivot.items():
            if u == 1 or u == -1:
                break
        else:
            i += 1
            continue
        del rows[i], pivot[gen]
        left -= 1
        i = 0  # the elimination can give a unit to a row already passed
        for row in rows:
            q = row.pop(gen, 0) * u  # row -= q * pivot clears gen
            if q:
                for k, x in pivot.items():
                    y = row.get(k, 0) - q * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
    gens = sorted({gen for row in rows for gen in row})
    S, _, _ = _smith([[row.get(gen, 0) for gen in gens] for row in rows if row],
                     False)
    diag = [S[i][i] for i in range(min(len(S), len(gens)))]
    return left - sum(1 for d in diag if d), tuple(d for d in diag if d >= 2)


def _orders(pres: FinitePresentation):
    # the order of each decomposition coordinate (0 = free), and U
    R = exponent_matrix(pres)
    A = [[row[j] for row in R] for j in range(len(pres.generators))]
    S, U, _ = smith_normal_form(A)
    return [row[i] if i < len(row) else 0 for i, row in enumerate(S)], U


@lru_cache(maxsize=None)
def h1(m: NilManifold) -> AbelianGroup:
    """First homology of the manifold, via its fundamental group."""
    return abelianization(fundamental_group(m.seifert()))


def mod2_rank(group: AbelianGroup) -> int:
    """dim over Z2 of group (x) Z2: free rank plus number of even factors."""
    return group.free_rank + sum(1 for d in group.torsion if d % 2 == 0)


def _gf2_consistent(rows, ncols) -> bool:
    # rows are augmented [coeffs | rhs]; consistent iff no reduced row is 0...0|1
    rows = [row[:] for row in rows]
    pivot_row = 0
    for col in range(ncols):
        sel = next((i for i in range(pivot_row, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return not any(row[-1] and not any(row[:-1]) for row in rows)


def torsion_subgroup_killed_by(bits, group: AbelianGroup) -> bool:
    """True iff the mod-2 functional phi vanishes on the torsion subgroup.

    phi is given by its bits (the ints 0 and 1) in generator order, the
    order of group.gen_images.  Killing torsion is the same as factoring
    through the free quotient, i.e. solvability of psi * F = phi over GF(2)
    where F collects the free coordinates of the generator images; that
    system is what gets checked.
    """
    f = group.free_rank
    check_bits(bits, len(group.gen_images))
    rows = [[c % 2 for c in coords[:f]] + [bit]
            for coords, bit in zip(group.gen_images.values(), bits)]
    return _gf2_consistent(rows, f)


def h1_closed_form(m: NilManifold) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of H1, from the per-family closed forms."""
    b = m.b
    if m.family == "T":
        return (2, (b,) if b > 1 else ())
    if m.family == "K":
        return (1, (4,) if b % 2 else (2, 2))
    if m.family == "22":
        return (0, (4, 4))
    if m.family == "2222":
        return (0, (2, 2, 2 * (2 * b + 4)))
    if m.family == "236":
        b2, b3 = m.betas
        return (0, (6 * (6 * b + 3 + 2 * b2 + b3),))
    if m.family == "244":
        b2, b3 = m.betas
        return (0, (2, 4 * (4 * b + 2 + b2 + b3)))
    if m.family == "333":
        c = 3 * b + sum(m.betas)
        return (0, (3, 3 * c))
    raise InvariantError("unknown family %r" % (m.family,))


def h1_stated_relations(m: NilManifold) -> list[dict]:
    """Generator relations that must vanish in H1, one coefficient dict each.

    These are the closed-form generator descriptions turned into relations
    (for instance h = -2 s1 becomes {h: 1, s1: 2}), plus the order
    annihilations the decompositions assert.
    """
    b = m.b
    fam = m.family
    if fam == "T":
        return [{"h": b}]
    if fam == "K":
        if b % 2:
            # h = 2(v1 + v2), with v1 + v2 of order 4
            return [{"h": 1, "v1": -2, "v2": -2}, {"v1": 4, "v2": 4}]
        return [{"h": 2}, {"v1": 2, "v2": 2}]
    if fam == "22":
        return [{"h": 1, "s1": 2},
                {"s2": 1, "s1": 2 * b + 1, "v1": 2},
                {"s1": 4}, {"v1": 4}]
    if fam == "2222":
        c = 2 * b + 4
        return [{"h": 1, "s1": 2},
                {"s4": 1, "s1": 2 * b + 1, "s2": 1, "s3": 1},
                {"s2": 2, "s1": -2}, {"s3": 2, "s1": -2},
                {"s1": 2 * c}]
    if fam == "236":
        b2, b3 = m.betas
        c = 6 * b + 3 + 2 * b2 + b3
        k = 3 * (2 * b2 - 3)
        return [{"h": 1, "s1": 2},
                {"s3": 1, "s1": 2 * b + 1, "s2": 1},
                {"s1": 1 + k, "s2": -k},           # s1 = k (s2 - s1)
                {"s2": 6 * c, "s1": -6 * c}]
    if fam == "244":
        b2, b3 = m.betas
        c = 4 * b + 2 + b2 + b3
        return [{"h": 1, "s1": 2},
                {"s3": 1, "s1": 2 * b + 1, "s2": 1},
                {"s1": 2 * c},
                {"s2": 4 * c, "s1": -4 * c}]
    if fam == "333":
        c = 3 * b + sum(m.betas)
        return [{"s3": 1, "s1": 1, "s2": 1, "h": -b},
                {"h": c}, {"s1": 3 * c}, {"s2": 3 * c}]
    raise InvariantError("unknown family %r" % (fam,))
