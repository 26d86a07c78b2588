"""Z2-index of a free involution pair via cohomological criteria.

The pair is (m, phi), phi an epimorphism of m = phi.manifold cutting out the
double cover.  The index is 1, 2 or 3:

  * index 1 iff phi factors through the free quotient of H1 (equivalently,
    phi kills the torsion subgroup), which is when the classifying map
    compresses to a circle; homology.kills_torsion reads that from the
    row's table _H1, O(1) in b, with no Smith form of H1;
  * index 3 iff the cup cube of the class phi in H^1(m; Z2) is nonzero,
    which in terms of the invariants (c, d) reads: d = 0 requires phi(h) = 1
    and c = 2 mod 4 (orientable base) or c + 2g' = 2 mod 4 (non-orientable);
    d > 0 requires sum of phi(s_j) * (a_j / 2) over the even cone orders to
    be odd;
  * index 2 otherwise.

The two conditions exclude each other; z2_index asserts that.
index_report also prints the case of the paper's catalog that matches.
"""

from __future__ import annotations

from .epimorphisms import Z2Char
from .homology import kills_torsion
from .paper import index_one_case, index_three_case
from .seifert import FAMILIES


def index_is_one(phi: Z2Char) -> bool:
    """True iff the pair has Z2-index 1: phi kills the torsion of H1."""
    return kills_torsion(phi.manifold, phi.bits)


def cup_cube_nonzero(phi: Z2Char) -> bool:
    """True iff phi^3 != 0 in H^3(m; Z2), the index-3 criterion."""
    m = phi.manifold
    eps, g_prime, _, _ = FAMILIES[m.family]
    if m.row.d == 0:
        if phi.h != 1:
            return False
        if eps == +1:
            return m.c % 4 == 2
        return (m.c + 2 * g_prime) % 4 == 2
    total = sum(bit * (a // 2)
                for bit, (a, _) in zip(phi.s, m.row.pairs) if a % 2 == 0)
    return total % 2 == 1


def z2_index(phi: Z2Char) -> int:
    """The Z2-index of (phi.manifold, phi): 1, 2 or 3."""
    one = index_is_one(phi)
    three = cup_cube_nonzero(phi)
    assert not (one and three), "index criteria must exclude each other"
    if one:
        return 1
    if three:
        return 3
    return 2


def index_report(phi: Z2Char) -> dict:
    """Index with its criterion trace, for the command line."""
    m = phi.manifold
    index = z2_index(phi)
    catalog = index_one_case(m, phi) if index == 1 else \
        index_three_case(m, phi) if index == 3 else None
    return {
        "manifold": m.encode(),
        "phi": phi.to_json_dict(),
        "index": index,
        "kills_torsion": index == 1,
        "cup_cube_nonzero": index == 3,
        "catalog": catalog,
    }
