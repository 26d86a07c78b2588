"""The cross-check sweep: every computed result against the paper's.

Layers are called through their modules (coverings.double_cover, not a bound
double_cover), so a wrapper patched onto a module's function sees this path.
"""

from __future__ import annotations

from . import bu_index, coverings, epimorphisms, homology, paper, seifert


def verify_manifold(m: seifert.NilManifold) -> dict:
    """Cross-check one manifold: {"manifold", "pairs", "failures"}."""
    failures = []
    tag = m.encode()
    group = homology.h1(m)
    if group.decomposition != paper.h1_closed_form(m):
        failures.append("%s: h1 %r does not match closed form %r"
                        % (tag, group.decomposition, paper.h1_closed_form(m)))
    for rel in paper.h1_stated_relations(m):
        if not group.is_zero_combination(rel):
            failures.append("%s: stated relation %r fails in H1" % (tag, rel))
    epis = epimorphisms.enumerate_epis(m)
    if len(epis) != paper.expected_epi_count(m):
        failures.append("%s: %d epimorphisms, expected %d"
                        % (tag, len(epis), paper.expected_epi_count(m)))
    if len(epis) != 2 ** homology.mod2_rank(group) - 1:
        failures.append("%s: epi count disagrees with mod-2 rank" % tag)
    part = epimorphisms.equivalence_classes(m)
    if part.shape != paper.expected_partition_shape(m):
        failures.append("%s: partition shape %r, expected %r"
                        % (tag, part.shape,
                           paper.expected_partition_shape(m)))
    cover_of = {phi.bits: coverings.double_cover(phi) for phi in epis}
    rep_with = {}  # cover -> the first class representative that has it
    for cls in part.classes:
        rep = cls.representative
        covers = {cover_of[phi.bits] for phi in cls.members}
        if len(covers) != 1:
            failures.append("%s: class %s has several covers %r"
                            % (tag, rep.describe(), covers))
        indices = {bu_index.z2_index(phi) for phi in cls.members}
        if len(indices) != 1:
            failures.append("%s: class %s has several indices %r"
                            % (tag, rep.describe(), indices))
        other = rep_with.setdefault(cover_of[rep.bits], rep)
        if other is not rep:
            failures.append("%s: classes %s and %s share cover %s"
                            % (tag, other.describe(), rep.describe(),
                               cover_of[rep.bits].encode()))
    for phi in epis:
        cover = cover_of[phi.bits]
        if not coverings.verify_cover(phi, cover):
            failures.append("%s: oracle rejects cover %s for %s"
                            % (tag, cover.encode(), phi.describe()))
        if bu_index.index_is_one(phi) != \
                (paper.index_one_case(m, phi) is not None):
            failures.append("%s: index-1 criterion vs catalog mismatch for %s"
                            % (tag, phi.describe()))
        if bu_index.cup_cube_nonzero(phi) != \
                (paper.index_three_case(m, phi) is not None):
            failures.append("%s: index-3 criterion vs catalog mismatch for %s"
                            % (tag, phi.describe()))
    got = [(d.base, d.index) for d in coverings.quotients_of(m)]
    expected = list(paper.expected_quotient_diagram(m))
    if got != expected:
        failures.append("%s: involution diagram %r, expected %r"
                        % (tag, [(b.encode(), i) for b, i in got],
                           [(b.encode(), i) for b, i in expected]))
    return {"manifold": tag, "pairs": len(epis), "failures": failures}


def verify_sweep(depth: int = 16) -> dict:
    """Cross-check sweep(depth): {"manifolds", "pairs", "failures", "ok"}.

    The totals are kept as running sums, not as a result per manifold.
    """
    manifolds = pairs = 0
    failures = []
    for m in seifert.sweep(depth):
        result = verify_manifold(m)
        manifolds += 1
        pairs += result["pairs"]
        failures += result["failures"]
    return {"manifolds": manifolds, "pairs": pairs,
            "failures": failures, "ok": not failures}
