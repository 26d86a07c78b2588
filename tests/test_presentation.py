import tracemalloc

import pytest

from nilbu import (FinitePresentation, InvariantError, NilManifold,
                   NotAHomomorphism, NotSurjective, Z2Char, check_epimorphism,
                   double_cover, format_word, free_reduce, fundamental_group,
                   h1, reidemeister_schreier)
from nilbu.seifert import ROWS

from helpers import (abelian_invariants, abelianization, format_presentation,
                     inverse_word, kernel_presentation, standard_presentation)


def test_free_reduce():
    assert free_reduce(((1, 1), (2, 1), (2, -1), (1, -1), (3, 1))) == ((3, 1),)
    assert free_reduce(((1, 1), (2, -1), (2, 1), (1, -1))) == ()
    assert free_reduce(()) == ()
    # adjacent syllables on one generator merge, zero exponents drop
    assert free_reduce(((1, 2), (2, 0), (1, 3), (2, 5), (2, -5))) == ((1, 5),)
    # a reduced tuple comes back as itself; anything else as a new tuple
    word = ((1, 2), (2, -1), (1, 3))
    assert free_reduce(word) is word
    for other in ([(1, 2), (2, -1), (1, 3)], ([1, 2], [2, -1], [1, 3]),
                  ((1, 2), (2, -1), (2, 0), (1, 3))):
        reduced = free_reduce(other)
        assert reduced == word and reduced is not other
        assert type(reduced) is tuple
        assert all(type(syllable) is tuple for syllable in reduced)


def test_inverse_word():
    assert inverse_word(((1, 2), (2, 1), (3, -4))) == ((3, 4), (2, -1), (1, -2))
    word = ((1, 2), (2, 1), (3, -4))
    assert free_reduce(word + inverse_word(word)) == ()


def test_presentation_validation():
    with pytest.raises(InvariantError):
        FinitePresentation(("a", "a"), ())
    for syllable in ((2, 1), (0, 1), (1, 1.0), (True, 1)):
        with pytest.raises(InvariantError):
            FinitePresentation(("a",), ((syllable,),))
    p = FinitePresentation(("a", "b"), (((1, 1), (1, -1), (2, 1)),))
    assert p.words == (((2, 1),),)
    assert p.relators == ((2,),)


def test_format_word():
    p = FinitePresentation(("s1", "h"), ())
    assert format_word(p, ()) == "1"
    assert format_word(p, ((1, 2), (2, 1), (2, -2))) == "s1^2 h h^-2"
    assert format_word(p, ((1, -1),)) == "s1^-1"


def test_fundamental_group_torus_bundle():
    p = fundamental_group(NilManifold("T", 3))
    assert p.generators == ("v1", "v2", "h")
    assert format_presentation(p) == (
        "<v1,v2,h | v1 h v1^-1 h^-1, v2 h v2^-1 h^-1, v1 v2 v1^-1 v2^-1 h^-3>")


def test_fundamental_group_klein_bundle():
    p = fundamental_group(NilManifold("K", 2))
    assert format_presentation(p) == (
        "<v1,v2,h | v1 h v1^-1 h, v2 h v2^-1 h, v1^2 v2^2 h^-2>")


def test_fundamental_group_with_cone_points():
    def text(*args):
        return format_presentation(fundamental_group(NilManifold(*args)))

    p = fundamental_group(NilManifold("22", 0))
    assert p.generators == ("s1", "s2", "v1", "h")
    assert format_presentation(p) == (
        "<s1,s2,v1,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, "
        "s1^2 h, s2^2 h, v1 h v1^-1 h, s1 s2 v1^2>")
    assert text("236", 0, (1, 5)) == (
        "<s1,s2,s3,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, "
        "s3 h s3^-1 h^-1, s1^2 h, s2^3 h, s3^6 h^5, s1 s2 s3>")
    # eps = +1 and g' = 0 below too: commutators, cones s_i^a_i h^b_i, and
    # s1...sn h^-b, with the pairs of the family row and b of the manifold
    assert text("2222", 3) == (
        "<s1,s2,s3,s4,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, "
        "s3 h s3^-1 h^-1, s4 h s4^-1 h^-1, s1^2 h, s2^2 h, s3^2 h, s4^2 h, "
        "s1 s2 s3 s4 h^-3>")
    assert text("244", -1, (3, 1)) == (
        "<s1,s2,s3,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, s3 h s3^-1 h^-1, "
        "s1^2 h, s2^4 h, s3^4 h^3, s1 s2 s3 h>")
    assert text("333", 2, (2, 1, 1)) == (
        "<s1,s2,s3,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, s3 h s3^-1 h^-1, "
        "s1^3 h, s2^3 h, s3^3 h^2, s1 s2 s3 h^-2>")


def test_fundamental_group_matches_reference_and_shares_row_relators():
    # the cached presentations of a row share every relator but h^-b
    for (family, betas), row in ROWS.items():
        bs = list(range(row.b_min, row.b_min + 4)) + [10 ** 12, 10 ** 12 + 1]
        if row.b_min <= 0:
            assert 0 in bs
        built = []
        for b in bs:
            m = NilManifold(family, b, betas)
            p, ref = fundamental_group(m), standard_presentation(m)
            assert (p.generators, p.words) == (ref.generators, ref.words), m
            built.append(p)
        p = built[0]
        for q in built[1:]:
            assert p.generators is q.generators
            assert all(x is y for x, y in zip(p.words[:-1], q.words[:-1]))
            assert p.words[-1] is not q.words[-1]


def test_presentation_bytes_do_not_grow_with_b():
    # a presentation adds its h^-b and its words tuple to the row's shared
    # relators: under 1,000 B, where a full copy of the relators per
    # manifold takes about 2.8 KB on the worst row
    build = fundamental_group.__wrapped__
    kept = []
    worst = 0
    tracemalloc.start()
    try:
        for family, betas in ROWS:
            ms = [NilManifold(family, 10 ** 6 + k, betas) for k in range(400)]
            before = tracemalloc.get_traced_memory()[0]
            kept.append([build(m) for m in ms])
            used = tracemalloc.get_traced_memory()[0] - before
            worst = max(worst, used / len(ms))
    finally:
        tracemalloc.stop()
    assert worst <= 1000, worst


def test_check_epimorphism():
    p = fundamental_group(NilManifold("T", 3))
    assert check_epimorphism(p, (1, 0, 0)) is None  # bits of v1, v2, h
    with pytest.raises(NotAHomomorphism):
        # h^-3 in the section relator has odd image
        check_epimorphism(p, (1, 0, 1))
    with pytest.raises(NotSurjective):
        check_epimorphism(p, (0, 0, 0))
    with pytest.raises(NotAHomomorphism,
                       match="^one bit per generator required$"):
        check_epimorphism(p, (1, 0))  # no bit for h
    # values are never reduced mod 2: only the ints 0 and 1 are bits
    q = FinitePresentation(("a",), (((1, 2),),))
    assert check_epimorphism(q, (1,)) is None
    for value in (3, True, 1.0, "1", -1, None):
        with pytest.raises(NotAHomomorphism,
                           match="^a bit must be 0 or 1, got "):
            check_epimorphism(q, (value,))


def test_odd_relator_reads_exponent_parity():
    p = fundamental_group(NilManifold("T", 3))
    assert p.odd_relator((1, 0, 0)) is None
    assert p.odd_relator((0, 0, 1)) == p.words[2]  # h^-3 is odd
    q = FinitePresentation(("a", "b"), (((1, 1), (2, 1), (1, 1), (2, -1), (1, 1)),
                                        ((2, 2),)))
    assert q.odd_relator((1, 0)) == q.words[0]  # a three times
    assert q.odd_relator((0, 1)) is None  # b twice in each relator


def test_rs_free_group():
    p = FinitePresentation(("a",), ())
    q = reidemeister_schreier(p, (1,))
    assert q.generators == ("a.1",)
    assert q.relators == ()


def test_rs_cyclic_four():
    # ker(Z4 -> Z2) = Z2, rewritten relators are a.1^2 from both cosets
    p = FinitePresentation(("a",), (((1, 4),),))
    q = reidemeister_schreier(p, (1,))
    assert q.generators == ("a.1",)
    assert q.relators == ((1, 1), (1, 1))
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (0, (2,))


def test_rs_rank_two_free_abelian():
    p = FinitePresentation(("a", "b"), (((1, 1), (2, 1), (1, -1), (2, -1)),))
    q = reidemeister_schreier(p, (1, 0))
    assert q.generators == ("a.1", "b.0", "b.1")
    assert q.relators == ((3, -2), (1, 2, -1, -3))
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (2, ())


def test_rs_generator_and_relator_counts():
    for m in [NilManifold("T", 2), NilManifold("2222", 0),
              NilManifold("244", 0, (1, 3))]:
        p = fundamental_group(m)
        from nilbu import enumerate_epis
        for phi in enumerate_epis(m):
            q = reidemeister_schreier(p, phi.bits)
            assert len(q.generators) == 2 * len(p.generators) - 1
            assert len(q.relators) == 2 * len(p.relators)


def test_rs_torus_bundle_cover_homology():
    # phi(v1) = 1 unwraps the first base class: the cover is the b = 6 bundle
    m = NilManifold("T", 3)
    p = fundamental_group(m)
    q = reidemeister_schreier(p, (1, 0, 0))  # phi(v1) = 1
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (2, (6,))


def test_rs_vertical_class_cover_homology():
    # frozen from an independent run of this rewriting by hand
    m = NilManifold("22", 0)
    p = fundamental_group(m)
    q = reidemeister_schreier(p, (0, 0, 1, 0))  # phi(v1) = 1
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (0, (2, 2, 8))


def test_rs_transversal_choice_does_not_change_homology():
    # nilbu rewrites over one transversal; the reference over each of them
    m = NilManifold("2222", 0)
    p = fundamental_group(m)
    phi = (1, 1, 1, 1, 0)  # s1..s4, h
    default = abelianization(reidemeister_schreier(p, phi))
    assert kernel_presentation(p, phi) == reidemeister_schreier(p, phi)
    for name in ("s1", "s2", "s3", "s4"):
        other = abelianization(kernel_presentation(p, phi, name))
        assert other.decomposition == default.decomposition


def test_rs_takes_no_transversal():
    p = fundamental_group(NilManifold("T", 2))
    with pytest.raises(TypeError):
        reidemeister_schreier(p, (1, 0, 0), "h")
    with pytest.raises(TypeError):
        reidemeister_schreier(p, (1, 0, 0), transversal="v1")


def test_rs_default_transversal_is_bounded_in_b():
    # phi(h) = 1: the transversal is h, whose power h^-b rewrites to one
    # syllable, so the kernel presentation has the same size at any b
    def kernel(b):
        p = fundamental_group(NilManifold("333", b, (1, 1, 2)))
        return reidemeister_schreier(p, (1, 1, 0, 1))

    def syllables(q):
        return sum(map(len, q.words))

    big = kernel(10 ** 12)
    assert syllables(big) == syllables(kernel(10 ** 3))
    m = NilManifold("333", 10 ** 12, (1, 1, 2))
    cover = double_cover(Z2Char(m, (1, 1, 0, 1)))
    assert abelian_invariants(big) == h1(cover).decomposition
