"""Double covers of Nil manifolds and the classification of free involutions.

double_cover computes the Seifert data of the cover cut out by an epimorphism
phi of m = phi.manifold in closed form per family, and asserts e(cover) =
2^(1 - 2 phi(h)) e(base) on the integers (c, lcm), e = c / lcm, of the family
rows.  verify_cover, the independent oracle, rewrites the fundamental group
straight into the exponent-sum rows of the index-2 subgroup with _rewrite
(Reidemeister-Schreier, Lyndon and Schupp, Combinatorial Group Theory,
II.4, with no kernel presentation built), compares the rows' invariant
factors with H1 of the claimed cover, read from homology's per-row table
by h1_invariants (no Smith loop runs), and checks the Euler relation by its
own cross-multiplication of (c, lcm), which cd_invariants reads off the
Seifert invariants, not the family rows.
Only the section relator sees b, so _KERNEL holds every other relator's
rows diagonalized once, at import, and kernel_rows finishes a kernel from
them and the section relator's two rows.

quotients_of inverts double_cover by a table, which reproduces the known
involution diagrams.  A family row's class representatives depend only on
b mod 2, and each branch of double_cover reads b only as 2b + const or, at
a fixed parity, (b + const) // 2.  So a source row, a parity and a class
representative's bits fix one target row, and the base b = b0 + 2k covers
b' = b0' + step k there, b0 the least b of that parity.  _RULES holds these
42 rules by target row, read off double_cover once, at import.
"""

from __future__ import annotations

from . import bu_index
from .epimorphisms import _MOD2, Z2Char, class_representatives
from .homology import (_add, _replay, diagonalize, h1_invariants,
                       row_invariants)
from .presentation import _ROW_PARTS
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


def _halves(k: int) -> tuple[int, int]:
    """x^k with phi(x) = 1, x not t: the exponents of the Schreier generators
    of the first coset read and of the other, ceil and floor of |k|/2."""
    sign = 1 if k > 0 else -1
    return sign * ((abs(k) + 1) // 2), sign * (abs(k) // 2)


def _rewrite(row: dict, word, bits, t: int, coset: int) -> int:
    """Add to row the exponent sums of word rewritten from coset; the end coset.

    Schreier generator x.r, for 0-based generator x, is column 2x + r.
    """
    for gen, exp in word:
        x = gen - 1
        if not bits[x]:
            _add(row, 2 * x + coset, exp)
            continue
        if x == t:
            _add(row, 2 * t + 1, (exp + coset) // 2)
        else:
            first = coset if exp > 0 else coset ^ 1
            near, far = _halves(exp)
            _add(row, 2 * x + first, near)
            _add(row, 2 * x + (first ^ 1), far)
        coset ^= exp & 1
    return coset


def _kernel_parts(fixed, section, bits) -> tuple:
    """ker(phi) of a family row but for b: the fixed relators' rows from both
    cosets, the section relator's two rows up to h^-b with their end
    cosets, and t."""
    h = len(bits) - 1
    t = h if bits[h] else bits.index(1)
    rows = []
    for word in fixed:
        for start in (0, 1):
            row: dict = {}
            end = _rewrite(row, word, bits, t, start)
            assert end == start, "relator escaped its coset"
            if row:
                rows.append(row)
    sections = []
    for start in (0, 1):
        row = {}
        sections.append((row, _rewrite(row, section, bits, t, start)))
    return tuple(rows), tuple(sections), t


def _kernel_table() -> dict:
    """The b-free part of every kernel the oracle reduces, reduced once.

    The keys are the bits of the epimorphisms of each family row at either
    parity of b, from epimorphisms._MOD2.  For each key the fixed
    relators' rows go through diagonalize, and the entry keeps the section
    relator's two rows up to h^-b with their end cosets, t, the column
    operations, the unit pivots' columns and the other pivots as (column,
    |pivot|).
    """
    table = {}
    for (family, betas), (_, fixed, section, _) in _ROW_PARTS.items():
        for bits in dict.fromkeys(_MOD2[family, betas, 0][0]
                                  + _MOD2[family, betas, 1][0]):
            rows, sections, t = _kernel_parts(fixed, section, bits)
            diag, ops = diagonalize(rows)
            table[family, betas, bits] = (
                sections, t, tuple(ops),
                tuple(g for g, d in diag.items() if d == 1),
                tuple((g, d) for g, d in diag.items() if d > 1))
    return table


# (family, betas, bits) -> _kernel_table's entry, for the bits of every
# epimorphism of a family row's manifolds; static like _ROW_PARTS
_KERNEL = _kernel_table()


def kernel_rows(m: NilManifold, bits) -> tuple[list[dict], int]:
    """Rows with the invariants of ker(phi) in pi_1(m), and their column count.

    phi is an epimorphism given by its bits.  The rows stand for the
    exponent sums of the Reidemeister-Schreier rewriting of pi_1 over the
    transversal {1, t}, t = h if phi(h) = 1, else the first phi = 1
    generator, with 2n - 1 Schreier generators, x.r in column 2x + r
    (_rewrite).  Only the section relator sees b, through h^-b, so _KERNEL
    holds the fixed relators' rows already diagonalized.  Here h^-b is
    rewritten onto the two section rows, one syllable, O(1) in b; the
    column operations of the diagonalization are replayed on them; the
    unit pivots' columns are dropped, since a unit pivot row clears its
    column from them and adds only an invariant factor 1; and the other
    pivots come back as one-entry rows.  The rows are fresh dicts, the
    section rows last.
    """
    sections, t, ops, units, torsion = _KERNEL[m.family, m.betas, bits]
    rows = [{g: d} for g, d in torsion]
    h_b = ((len(bits), -m.b),)
    for start, (prefix, end) in enumerate(sections):
        row = dict(prefix)
        end = _rewrite(row, h_b, bits, t, end)
        assert end == start, "relator escaped its coset"
        _replay(row, ops)
        for g in units:
            row.pop(g, None)
        rows.append(row)
    return rows, 2 * len(bits) - 1 - len(units)


def verify_cover(phi: Z2Char, claimed: NilManifold) -> bool:
    """Oracle check of a claimed double cover, independent of double_cover.

    Rewrites pi_1(phi.manifold) into the exponent-sum rows of ker(phi)
    (kernel_rows), reduces them to invariant factors and compares those with
    h1_invariants(claimed), H1 of the claimed cover from its row's entry in
    homology._H1, with no Smith loop; also checks the Euler number relation
    by its own arithmetic on the Seifert invariants' (c, lcm), not
    double_cover's.  True iff both hold.
    """
    m = phi.manifold
    c_m, _, l_m = cd_invariants(m.seifert())
    c, _, l = cd_invariants(claimed.seifert())
    return (row_invariants(*kernel_rows(m, phi.bits))
            == h1_invariants(claimed)
            and 2 ** phi.h * c * l_m == 2 ** (1 - phi.h) * c_m * l)


def _rule_table() -> dict:
    """double_cover as affine rules, keyed by the cover's (family, betas).

    For each family row, each b0 of b_min and b_min + 1 and each class
    representative's bits at that parity, the rule is (family, betas, b0,
    bits, b0', step): the base (family, b0 + 2k, betas) covers through bits
    the target row at b0' + step k, for every k >= 0.  The two covers at
    k = 0 and 1 fix b0' and step, and the covers at k = 5, 17 and 1000 are
    asserted to lie on that line.
    """
    ks = (0, 1, 5, 17, 1000)
    table: dict = {}
    for (family, betas), row in ROWS.items():
        for b0 in (row.b_min, row.b_min + 1):
            for bits in class_representatives(NilManifold(family, b0, betas)):
                covers = [double_cover(Z2Char(
                    NilManifold(family, b0 + 2 * k, betas), bits)) for k in ks]
                first, step = covers[0].b, covers[1].b - covers[0].b
                target = covers[0].family, covers[0].betas
                for cover, k in zip(covers, ks):
                    assert (cover.family, cover.betas, cover.b) \
                        == target + (first + step * k,), (family, betas, bits)
                table.setdefault(target, []).append(
                    (family, betas, b0, bits, first, step))
    return {target: tuple(rules) for target, rules in table.items()}


# (family, betas) of a cover -> the _rule_table rules that land on its row;
# static like _KERNEL (42 rules over 9 target rows)
_RULES = _rule_table()


def quotients_of(m: NilManifold) -> tuple[CoveringDescriptor, ...]:
    """All free involutions on m: (base, class, index) with cover m.

    Each rule of _RULES for m's row covers m from the base at k =
    (m.b - b0') / step when that is a whole number k >= 0.  The base's
    class representative is checked as a Z2Char and its index computed;
    no double_cover runs.  Sorted by base encoding.
    """
    found = []
    for family, betas, b0, bits, first, step in _RULES.get(
            (m.family, m.betas), ()):
        k, rem = divmod(m.b - first, step)
        if rem or k < 0:
            continue
        rep = Z2Char(NilManifold(family, b0 + 2 * k, betas), bits)
        found.append(CoveringDescriptor(rep, m, bu_index.z2_index(rep)))
    found.sort(key=lambda d: (d.base.encode(), d.phi.bits))
    return tuple(found)
