"""Z2-index of a free involution pair via cohomological criteria.

The pair is (m, phi), phi an epimorphism of m = phi.manifold cutting out the
double cover; only the catalogs take m as well.  The index is 1, 2 or 3:

  * index 1 iff phi factors through the free quotient of H1 (equivalently,
    phi kills the torsion subgroup), which is when the classifying map
    compresses to a circle;
  * index 3 iff the cup cube of the class phi in H^1(m; Z2) is nonzero,
    which in terms of the invariants (c, d) reads: d = 0 requires phi(h) = 1
    and c = 2 mod 4 (orientable base) or c + 2g' = 2 mod 4 (non-orientable);
    d > 0 requires sum of phi(s_j) * (a_j / 2) over the even cone orders to
    be odd;
  * index 2 otherwise.

The two conditions exclude each other; z2_index asserts that.  Each generic
criterion has a transcribed per-family catalog next to it, and the test
suite requires the two routes to agree everywhere.
"""

from __future__ import annotations

from .epimorphisms import Z2Char, validate_char
from .homology import h1, torsion_subgroup_killed_by
from .seifert import FAMILIES, NilManifold


def index_is_one(phi: Z2Char) -> bool:
    """True iff the pair has Z2-index 1: phi kills the torsion of H1."""
    return torsion_subgroup_killed_by(phi.bits, h1(phi.manifold))


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


def index_one_case(m: NilManifold, phi: Z2Char) -> str | None:
    """Catalog form of the index-1 criterion: matched case or None.

    Index 1 happens exactly for the torus family with phi(h) = 0, and the
    Klein family with phi(h) = 0 and both v-bits set.
    """
    validate_char(m, phi)
    if m.family == "T" and phi.h == 0:
        return "class T with phi(h) = 0"
    if m.family == "K" and phi.h == 0 and phi.v == (1, 1):
        return "class K with phi(h) = 0 and phi(v1) = phi(v2) = 1"
    return None


def index_three_case(m: NilManifold, phi: Z2Char) -> str | None:
    """Catalog form of the index-3 criterion: matched case or None.

    Index 3 happens exactly for: T or K with b = 2 mod 4 and phi(h) = 1;
    333 with b = 2 + b1 + b2 + b3 mod 4; and 244 with phi(s1) = 1.
    """
    validate_char(m, phi)
    fam, b = m.family, m.b
    if fam in ("T", "K") and b % 4 == 2 and phi.h == 1:
        return "class %s with b = 2 mod 4 and phi(h) = 1" % fam
    if fam == "333" and (b - 2 - sum(m.betas)) % 4 == 0:
        return "class 333 with b = 2 + b1 + b2 + b3 mod 4"
    if fam == "244" and phi.s[0] == 1:
        return "class 244 with phi(s1) = 1"
    return None


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
