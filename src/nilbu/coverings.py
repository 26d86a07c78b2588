"""Double covers of Nil manifolds and the classification of free involutions.

double_cover computes the Seifert data of the cover cut out by an epimorphism
phi: pi_1 -> Z2 in closed form per family, and asserts e(cover) =
2^(1 - 2 phi(h)) e(base) on the integers (c, lcm), e = c / lcm, of the family
rows.  verify_cover, the independent oracle, rewrites the fundamental group
to the index-2 subgroup presentation (Reidemeister-Schreier), compares its
invariant factors with H1 of the claimed cover and checks the Euler relation
on (c, lcm) from the Seifert invariants.  quotients_of inverts double_cover
over the finitely many candidate bases, which reproduces the known involution
diagrams; those diagrams are also transcribed here (expected_quotient_diagram)
so the two routes can be compared mechanically.

The search is cut by two exact rules before double_cover decides.  A base
row must have lcm(a_i) equal to l_m or 2 l_m, since the preimages of a fibre
of order a have order a or a/2; and a class is tried only with the phi(h)
for which its base's b was solved, since e(cover) = 2^(1 - 2 phi(h)) e(base)
fixes phi(h) once e(base) and e(cover) are known.
"""

from __future__ import annotations

from . import bu_index
from .epimorphisms import Z2Char, equivalence_classes, validate_char
from .homology import abelian_invariants, h1
from .presentation import fundamental_group, reidemeister_schreier
from .seifert import ROWS, NilManifold, Record, cd_invariants


class CoveringDescriptor(Record):
    """One free involution: base manifold, class representative, cover, index."""

    __slots__ = _fields = ("base", "phi", "cover", "index")

    def to_json_dict(self) -> dict:
        return {"base": self.base.encode(),
                "phi": self.phi.to_json_dict(),
                "cover": self.cover.encode(),
                "index": self.index}


def double_cover(m: NilManifold, phi: Z2Char) -> NilManifold:
    """Seifert data of the double cover of m classified by phi.

    phi must be an epimorphism of pi_1(m) (InvalidCharacter otherwise).  The
    result is always a valid Nil manifold, and its Euler number doubles or
    halves according to phi(h).
    """
    validate_char(m, phi)
    b = m.b
    fam = m.family
    if fam == "T":
        cover = NilManifold("T", b // 2) if phi.h else NilManifold("T", 2 * b)
    elif fam == "K":
        if phi.h:
            cover = NilManifold("K", b // 2)
        elif sum(phi.v) % 2 == 1:
            cover = NilManifold("K", 2 * b)
        else:
            cover = NilManifold("T", 2 * b)
    elif fam == "22":
        if phi.s[1]:
            cover = NilManifold("K", 2 * b + 2)
        else:
            cover = NilManifold("2222", 2 * b)
    elif fam == "2222":
        if all(phi.s):
            cover = NilManifold("T", 2 * b + 4)
        else:
            cover = NilManifold("2222", 2 * b + 2)
    elif fam == "236":
        b2, b3 = m.betas
        k = (b3 + 3) // 4
        cover = NilManifold("333", 2 * b + k, (b2, b2, k))
    elif fam == "244":
        b2, b3 = m.betas
        if phi.s[0] == 0:
            cover = NilManifold("2222", 2 * b - 1 + (b2 + b3) // 2)
        elif phi.s[2] == 0:
            cover = NilManifold("244", 2 * b + (b2 + 1) // 2, (b3, b3))
        else:
            cover = NilManifold("244", 2 * b + (b3 + 1) // 2, (b2, b2))
    elif fam == "333":
        b1, b2, b3 = m.betas
        cover = NilManifold(
            "333", (b + b1 + b2 + b3 - 6) // 2, (3 - b3, 3 - b2, 3 - b1))
    else:
        raise AssertionError("unknown family %r" % (fam,))
    assert _euler_scales(phi.h, *_row_euler(m), *_row_euler(cover))
    return cover


def _row_euler(m: NilManifold) -> tuple[int, int]:
    # (c, lcm) with e = c / lcm, read from m's family row
    return m.b * m.row.lcm + m.row.c0, m.row.lcm


def _euler_scales(h: int, c_m: int, l_m: int, c: int, l: int) -> bool:
    # e(cover) = 2^(1 - 2h) e(m) on integer pairs, cross-multiplied: e = c / l
    return 2 ** h * c * l_m == 2 ** (1 - h) * c_m * l


def verify_cover(m: NilManifold, phi: Z2Char, claimed: NilManifold) -> bool:
    """Oracle check of a claimed double cover, independent of double_cover.

    Rewrites pi_1(m) to the kernel presentation, abelianizes, and compares
    invariant factors with h1(claimed); also checks the Euler number
    relation on the Seifert invariants' (c, lcm).  True iff both hold.
    """
    validate_char(m, phi)
    inv = m.seifert()
    sub = reidemeister_schreier(fundamental_group(inv), phi.bits)
    c_m, _, l_m = cd_invariants(inv)
    c, _, l = cd_invariants(claimed.seifert())
    return (abelian_invariants(sub) == h1(claimed).decomposition
            and _euler_scales(phi.h, c_m, l_m, c, l))


def quotients_of(m: NilManifold) -> tuple[CoveringDescriptor, ...]:
    """All free involutions on m: (base, class, index) with cover m.

    A base n covered through phi with phi(h) = h satisfies e(n) = 4^h e(m) / 2:
    in each family row b*lcm + c0 = 4^h c_m lcm / (2 l_m) for an integer
    b >= b_min.  Two exact rules cut the search before double_cover decides:

      * fibre orders: an exceptional fibre of order a has preimages of order a
        or a/2, so the odd part of lcm(a_i) is kept and its 2-part falls by at
        most one factor of 2; rows with lcm other than l_m or 2 l_m are skipped
        before any base is built;
      * fibre bit: double_cover scales e by 2^(1 - 2 phi(h)), and b was solved
        for phi(h) = h, so a class with the other h-bit covers a manifold of
        another Euler number and is not tried.

    Each remaining class goes through double_cover.  Sorted by base encoding.
    """
    c_m, l_m = _row_euler(m)
    found = []
    for (family, betas), row in ROWS.items():
        if row.lcm not in (l_m, 2 * l_m):
            continue
        for h in (0, 1):
            b_cand, rem = divmod(4 ** h * c_m * row.lcm - 2 * l_m * row.c0,
                                 2 * l_m * row.lcm)
            if rem or b_cand < row.b_min:
                continue
            base = NilManifold(family, b_cand, betas)
            for cls in equivalence_classes(base).classes:
                rep = cls.representative
                if rep.h == h and double_cover(base, rep) == m:
                    found.append(CoveringDescriptor(
                        base, rep, m, bu_index.z2_index(base, rep)))
    found.sort(key=lambda d: (d.base.encode(), d.phi.bits))
    return tuple(found)


def expected_quotient_diagram(m: NilManifold) -> tuple[tuple[NilManifold, int], ...]:
    """Transcribed involution diagrams: (base, index) pairs, sorted.

    The families 22, 236 and 244 with b2 != b3 are never double covers
    within the geometry, so their diagrams are empty.
    """
    fam, b = m.family, m.b
    out: list[tuple[NilManifold, int]] = []
    if fam == "T":
        if b % 2:
            out = [(NilManifold("T", 2 * b), 3)]
        else:
            out = [(NilManifold("T", 2 * b), 2),
                   (NilManifold("T", b // 2), 1),
                   (NilManifold("2222", b // 2 - 2), 2),
                   (NilManifold("K", b // 2), 1)]
    elif fam == "K":
        if b % 2:
            out = [(NilManifold("K", 2 * b), 3)]
        else:
            out = [(NilManifold("K", 2 * b), 2),
                   (NilManifold("K", b // 2), 2),
                   (NilManifold("22", b // 2 - 1), 2)]
    elif fam == "2222":
        if b % 2:
            out = [(NilManifold("244", (b - 1) // 2, (1, 3)), 2)]
        else:
            out = [(NilManifold("2222", b // 2 - 1), 2),
                   (NilManifold("22", b // 2), 2),
                   (NilManifold("244", b // 2 - 1, (3, 3)), 2),
                   (NilManifold("244", b // 2, (1, 1)), 2)]
    elif fam == "244":
        b2, b3 = m.betas
        if b2 == b3:
            x = b2
            if b % 2:
                out = [(NilManifold("244", (b - 1) // 2, (1, x)), 3)]
            else:
                out = [(NilManifold("244", b // 2 - 1, (x, 3)), 3)]
    elif fam == "333":
        # x = repeated beta, y = the remaining one (x = y when all equal)
        reps = {(1, 1, 1): (1, 1), (1, 1, 2): (1, 2),
                (1, 2, 2): (2, 1), (2, 2, 2): (2, 2)}
        x, y = reps[m.betas]
        out = [(NilManifold("333", 2 * b + 2 * x + y - 3, (3 - y, 3 - x, 3 - x)),
                3 if (b - y) % 2 else 2)]
        if (b - y) % 2 == 0:
            out.append((NilManifold("236", (b - y) // 2, (x, 4 * y - 3)), 2))
    out.sort(key=lambda pair: pair[0].encode())
    return tuple(out)
