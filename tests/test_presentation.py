import pytest

from nilbu import (FinitePresentation, InvariantError, NilManifold,
                   NotAHomomorphism, NotSurjective, Z2Char, abelianization,
                   check_epimorphism, double_cover, format_word, free_reduce,
                   fundamental_group, h1, reidemeister_schreier)
from nilbu.homology import abelian_invariants

from helpers import inverse_word, kernel_presentation


def test_free_reduce():
    assert free_reduce(((1, 1), (2, 1), (2, -1), (1, -1), (3, 1))) == ((3, 1),)
    assert free_reduce(((1, 1), (2, -1), (2, 1), (1, -1))) == ()
    assert free_reduce(()) == ()
    # adjacent syllables on one generator merge, zero exponents drop
    assert free_reduce(((1, 2), (2, 0), (1, 3), (2, 5), (2, -5))) == ((1, 5),)


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
    p = fundamental_group(NilManifold("T", 3).seifert())
    assert p.generators == ("v1", "v2", "h")
    assert p.format() == ("<v1,v2,h | v1 h v1^-1 h^-1, v2 h v2^-1 h^-1, "
                          "v1 v2 v1^-1 v2^-1 h^-3>")


def test_fundamental_group_klein_bundle():
    p = fundamental_group(NilManifold("K", 2).seifert())
    assert p.format() == ("<v1,v2,h | v1 h v1^-1 h, v2 h v2^-1 h, "
                          "v1^2 v2^2 h^-2>")


def test_fundamental_group_with_cone_points():
    p = fundamental_group(NilManifold("22", 0).seifert())
    assert p.generators == ("s1", "s2", "v1", "h")
    assert p.format() == ("<s1,s2,v1,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, "
                          "s1^2 h, s2^2 h, v1 h v1^-1 h, s1 s2 v1^2>")
    q = fundamental_group(NilManifold("236", 0, (1, 5)).seifert())
    assert q.format() == ("<s1,s2,s3,h | s1 h s1^-1 h^-1, s2 h s2^-1 h^-1, "
                          "s3 h s3^-1 h^-1, s1^2 h, s2^3 h, s3^6 h^5, "
                          "s1 s2 s3>")


def test_check_epimorphism():
    p = fundamental_group(NilManifold("T", 3).seifert())
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
    p = fundamental_group(NilManifold("T", 3).seifert())
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
        p = fundamental_group(m.seifert())
        from nilbu import enumerate_epis
        for phi in enumerate_epis(m):
            q = reidemeister_schreier(p, phi.bits)
            assert len(q.generators) == 2 * len(p.generators) - 1
            assert len(q.relators) == 2 * len(p.relators)


def test_rs_torus_bundle_cover_homology():
    # phi(v1) = 1 unwraps the first base class: the cover is the b = 6 bundle
    m = NilManifold("T", 3)
    p = fundamental_group(m.seifert())
    q = reidemeister_schreier(p, (1, 0, 0))  # phi(v1) = 1
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (2, (6,))


def test_rs_vertical_class_cover_homology():
    # frozen from an independent run of this rewriting by hand
    m = NilManifold("22", 0)
    p = fundamental_group(m.seifert())
    q = reidemeister_schreier(p, (0, 0, 1, 0))  # phi(v1) = 1
    ab = abelianization(q)
    assert (ab.free_rank, ab.torsion) == (0, (2, 2, 8))


def test_rs_transversal_choice_does_not_change_homology():
    # nilbu rewrites over one transversal; the reference over each of them
    m = NilManifold("2222", 0)
    p = fundamental_group(m.seifert())
    phi = (1, 1, 1, 1, 0)  # s1..s4, h
    default = abelianization(reidemeister_schreier(p, phi))
    assert kernel_presentation(p, phi) == reidemeister_schreier(p, phi)
    for name in ("s1", "s2", "s3", "s4"):
        other = abelianization(kernel_presentation(p, phi, name))
        assert other.decomposition == default.decomposition


def test_rs_takes_no_transversal():
    p = fundamental_group(NilManifold("T", 2).seifert())
    with pytest.raises(TypeError):
        reidemeister_schreier(p, (1, 0, 0), "h")
    with pytest.raises(TypeError):
        reidemeister_schreier(p, (1, 0, 0), transversal="v1")


def test_rs_default_transversal_is_bounded_in_b():
    # phi(h) = 1: the transversal is h, whose power h^-b rewrites to one
    # syllable, so the kernel presentation has the same size at any b
    def kernel(b):
        p = fundamental_group(NilManifold("333", b, (1, 1, 2)).seifert())
        return reidemeister_schreier(p, (1, 1, 0, 1))

    def syllables(q):
        return sum(map(len, q.words))

    big = kernel(10 ** 12)
    assert syllables(big) == syllables(kernel(10 ** 3))
    m = NilManifold("333", 10 ** 12, (1, 1, 2))
    cover = double_cover(m, Z2Char(m, (1, 1, 0, 1)))
    assert abelian_invariants(big) == h1(cover).decomposition
