"""Double covers of Nil manifolds and the classification of free involutions.

double_cover computes the Seifert data of the cover cut out by an epimorphism
phi of m = phi.manifold in closed form per family, and asserts e(cover) =
2^(1 - 2 phi(h)) e(base) on the integers (c, lcm), e = c / lcm, of the family
rows.  verify_cover, the independent oracle, rewrites the fundamental group
straight into the exponent-sum rows of the index-2 subgroup
(Reidemeister-Schreier, presentation._rewrite, with no kernel presentation
built), compares the rows' invariant factors with H1 of the claimed cover
and checks the Euler relation by its own cross-multiplication of (c, lcm),
which cd_invariants reads off the Seifert invariants, not the family rows.
Only the section relator sees b, so _KERNEL holds every other relator's
rows diagonalized once, at import, and kernel_rows finishes a kernel from
them and the section relator's two rows.  quotients_of inverts
double_cover over the finitely many candidate bases, which reproduces the
known involution diagrams.

The search is cut by two exact rules before double_cover decides.  A base
row must have lcm(a_i) equal to l_m or 2 l_m, since the preimages of a fibre
of order a have order a or a/2; and a class is tried only with the phi(h)
for which its base's b was solved, since e(cover) = 2^(1 - 2 phi(h)) e(base)
fixes phi(h) once e(base) and e(cover) are known.
"""

from __future__ import annotations

from . import bu_index
from .epimorphisms import Z2Char, class_representatives
from .homology import diagonalize, h1, row_invariants
from .presentation import (_ROW_PARTS, FinitePresentation, _add,
                           _kernel_parts, _rewrite)
from .seifert import ROWS, NilManifold, Record, cd_invariants


class CoveringDescriptor(Record):
    """One free involution: class representative, cover, index."""

    __slots__ = _fields = ("phi", "cover", "index")

    @property
    def base(self) -> NilManifold:
        return self.phi.manifold

    def to_json_dict(self) -> dict:
        return {"base": self.base.encode(),
                "phi": self.phi.to_json_dict(),
                "cover": self.cover.encode(),
                "index": self.index}


def double_cover(phi: Z2Char) -> NilManifold:
    """Seifert data of the double cover of phi.manifold classified by phi.

    The result is always a valid Nil manifold, and its Euler number doubles
    or halves according to phi(h).
    """
    m = phi.manifold
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
    else:  # 333
        b1, b2, b3 = m.betas
        cover = NilManifold(
            "333", (b + b1 + b2 + b3 - 6) // 2, (3 - b3, 3 - b2, 3 - b1))
    # e(cover) = 2^(1 - 2h) e(m) on the rows' integers, e = c / lcm
    assert 2 ** phi.h * cover.c * m.row.lcm \
        == 2 ** (1 - phi.h) * m.c * cover.row.lcm
    return cover


def _live_ops(ops, columns) -> list:
    """The column operations that can change a row whose nonzero entries
    lie in columns: col_k -= q * col_g changes the row only if col_g can be
    nonzero there, and then col_k can be too."""
    columns = set(columns)
    live = []
    for k, q, g in ops:
        if g in columns:
            columns.add(k)
            live.append((k, q, g))
    return live


def _kernel_table() -> dict:
    """The b-free part of every kernel the oracle reduces, reduced once.

    The bits that keep every fixed relator in its coset are those of the
    epimorphisms of the group that the fixed relators present.  For each
    key the fixed relators' rows go through diagonalize, and the entry
    keeps the section relator's two rows up to h^-b, each with its end
    coset and the slice of the column operations that kernel_rows replays
    on it, then t, those operations, the unit pivots' columns and the other
    pivots as (column, |pivot|).  A section row's slice keeps only the
    operations that can change it (_live_ops), from the columns of its
    prefix and the one that h^-b lands on: h.1 when phi(h) = 1, since t is
    then h, and else h.r for the prefix's end coset r (presentation._rewrite).
    """
    table = {}
    for (family, betas), (names, fixed, section, _) in _ROW_PARTS.items():
        for bits in FinitePresentation(names, fixed).epimorphism_bits():
            rows, sections, t = _kernel_parts(fixed, section, bits)
            diag, ops = diagonalize(rows)
            h = len(bits) - 1
            spans, replays = [], []
            for prefix, end in sections:
                live = _live_ops(ops, [*prefix, 2 * h + (bits[h] or end)])
                spans.append((prefix, end, slice(len(replays),
                                                 len(replays) + len(live))))
                replays += live
            table[family, betas, bits] = (
                tuple(spans), t, tuple(replays),
                tuple(g for g, d in diag.items() if d == 1),
                tuple((g, d) for g, d in diag.items() if d > 1))
    return table


# (family, betas, bits) -> _kernel_table's entry, for every nonzero bits
# that keeps each fixed relator in its coset; static like _ROW_PARTS
_KERNEL = _kernel_table()


def kernel_rows(m: NilManifold, bits) -> tuple[list[dict], int]:
    """Rows with the invariants of ker(phi) in pi_1(m), and their column count.

    phi is an epimorphism given by its bits.  The rows stand for the
    exponent sums of the Reidemeister-Schreier rewriting of pi_1 over the
    transversal {1, t}, t = h if phi(h) = 1, else the first phi = 1
    generator, with 2n - 1 Schreier generators, x.r in column 2x + r
    (presentation._rewrite).  Only the section relator sees b, through
    h^-b, so _KERNEL holds the fixed relators' rows already diagonalized.
    Here h^-b is rewritten onto the two section rows, one syllable, O(1) in
    b; the column operations of the diagonalization that can change a
    section row are replayed on it;
    the unit pivots' columns are dropped, since a unit pivot row clears its
    column from them and adds only an invariant factor 1; and the other
    pivots come back as one-entry rows.  The rows are fresh dicts, the
    section rows last.
    """
    sections, t, ops, units, torsion = _KERNEL[m.family, m.betas, bits]
    rows = [{g: d} for g, d in torsion]
    h_b = ((len(bits), -m.b),)
    for start, (prefix, end, replay) in enumerate(sections):
        row = dict(prefix)
        end = _rewrite(row, h_b, bits, t, end)
        assert end == start, "relator escaped its coset"
        for k, q, g in ops[replay]:
            x = row.get(g)
            if x:
                _add(row, k, -q * x)
        for g in units:
            row.pop(g, None)
        rows.append(row)
    return rows, 2 * len(bits) - 1 - len(units)


def verify_cover(phi: Z2Char, claimed: NilManifold) -> bool:
    """Oracle check of a claimed double cover, independent of double_cover.

    Rewrites pi_1(phi.manifold) into the exponent-sum rows of ker(phi)
    (kernel_rows), reduces them to invariant factors and compares those with
    h1(claimed); also checks the Euler number relation by its own arithmetic
    on the Seifert invariants' (c, lcm), not double_cover's.  True iff both
    hold.
    """
    m = phi.manifold
    c_m, _, l_m = cd_invariants(m.seifert())
    c, _, l = cd_invariants(claimed.seifert())
    return (row_invariants(*kernel_rows(m, phi.bits))
            == h1(claimed).decomposition
            and 2 ** phi.h * c * l_m == 2 ** (1 - phi.h) * c_m * l)


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

    Each remaining class is built only as its representative, the least
    member, checked as a Z2Char of the base, and goes through double_cover.
    Sorted by base encoding.
    """
    c_m, l_m = m.c, m.row.lcm
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
            for bits in class_representatives(base):
                if bits[-1] != h:
                    continue
                rep = Z2Char(base, bits)
                if double_cover(rep) == m:
                    found.append(CoveringDescriptor(
                        rep, m, bu_index.z2_index(rep)))
    found.sort(key=lambda d: (d.base.encode(), d.phi.bits))
    return tuple(found)
