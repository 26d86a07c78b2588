import itertools
import random

import pytest

from nilbu import (AbelianGroup, FinitePresentation, InvariantError,
                   NilManifold, NotAHomomorphism, enumerate_epis,
                   fundamental_group, h1, h1_closed_form, h1_stated_relations,
                   mod2_rank, smith_normal_form)
from nilbu.homology import identity, kills_torsion

from helpers import (abelianization, determinant, matmul,
                     torsion_subgroup_killed_by)


def _random_matrix(rng):
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    return [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 4], [1, 2]]) == 0
    assert determinant(identity(3)) == 1
    assert determinant([]) == 1
    with pytest.raises(InvariantError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_matches_smith_diagonal():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        S, _, _ = smith_normal_form(m)
        prod = 1
        for i in range(n):
            prod *= S[i][i]
        assert abs(determinant(m)) == prod


def test_smith_small_goldens():
    S, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert S == [[1, 0], [0, 6]]
    S, _, _ = smith_normal_form([[2, 4], [6, 8]])
    assert S == [[2, 0], [0, 4]]
    S, _, _ = smith_normal_form([[1, 2], [3, 4]])
    assert S == [[1, 0], [0, 2]]
    S, _, _ = smith_normal_form([[0], [0], [5]])
    assert S == [[5], [0], [0]]
    S, U, V = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert S == [[0, 0, 0], [0, 0, 0]]
    assert U == identity(2) and V == identity(3)


def test_smith_transform_properties():
    rng = random.Random(77)
    for _ in range(200):
        m = _random_matrix(rng)
        S, U, V = smith_normal_form(m)
        assert S == matmul(matmul(U, m), V)
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
        for i, row in enumerate(S):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert diag == nz + [0] * (len(diag) - len(nz))
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_smith_deterministic_and_pure():
    m = [[3, 5, 1], [4, 2, -7], [0, 6, 6]]
    copy = [row[:] for row in m]
    first = smith_normal_form(m)
    assert m == copy
    assert smith_normal_form(m) == first


def test_abelianization_cyclic():
    ab = abelianization(FinitePresentation(("a",), (((1, 4),),)))
    assert ab.decomposition == (0, (4,))
    assert ab.is_zero_combination({"a": 4})
    assert not ab.is_zero_combination({"a": 1})


def test_abelianization_free_and_mixed():
    ab = abelianization(FinitePresentation(("a", "b"), (((1, 1), (2, 1), (1, -1), (2, -1)),)))
    assert ab.decomposition == (2, ())
    ab = abelianization(FinitePresentation(("a", "b"), (((1, 2), (2, 2)),)))
    assert ab.decomposition == (1, (2,))
    assert ab.is_zero_combination({"a": 2, "b": 2})


def test_abelianization_kills_every_relator():
    for m in [NilManifold("T", 5), NilManifold("22", 3),
              NilManifold("333", 1, (1, 2, 2))]:
        pres = fundamental_group(m)
        ab = abelianization(pres)
        for word in pres.relators:
            coeffs = {}
            for letter in word:
                name = pres.generators[abs(letter) - 1]
                coeffs[name] = coeffs.get(name, 0) + (1 if letter > 0 else -1)
            assert ab.is_zero_combination(coeffs)


def test_h1_frozen_decompositions():
    cases = [
        (NilManifold("T", 1), (2, ())),
        (NilManifold("T", 2), (2, (2,))),
        (NilManifold("T", 6), (2, (6,))),
        (NilManifold("K", 1), (1, (4,))),
        (NilManifold("K", 2), (1, (2, 2))),
        (NilManifold("22", 0), (0, (4, 4))),
        (NilManifold("22", 3), (0, (4, 4))),
        (NilManifold("2222", 0), (0, (2, 2, 8))),
        (NilManifold("2222", -1), (0, (2, 2, 4))),
        (NilManifold("236", 0, (1, 1)), (0, (36,))),
        (NilManifold("236", 0, (1, 5)), (0, (60,))),
        (NilManifold("236", -1, (2, 5)), (0, (36,))),
        (NilManifold("244", 0, (1, 1)), (0, (2, 16))),
        (NilManifold("244", -1, (3, 3)), (0, (2, 16))),
        (NilManifold("333", 0, (1, 1, 1)), (0, (3, 9))),
        (NilManifold("333", -1, (1, 2, 2)), (0, (3, 6))),
    ]
    for m, expected in cases:
        assert h1(m).decomposition == expected, m.encode()
        assert h1_closed_form(m) == expected, m.encode()


def test_h1_matches_closed_form_and_relations():
    from nilbu import sweep
    for m in sweep(4):
        group = h1(m)
        assert group.decomposition == h1_closed_form(m), m.encode()
        for coeffs in h1_stated_relations(m):
            assert group.is_zero_combination(coeffs), (m.encode(), coeffs)


def test_h1_gen_image_relations():
    group = h1(NilManifold("2222", 0))
    assert group.is_zero_combination({"h": 1, "s1": 2})
    assert not group.is_zero_combination({"h": 1})
    assert h1(NilManifold("2222", 0)) is group  # cached


def test_mod2_rank():
    assert mod2_rank(h1(NilManifold("T", 1))) == 2
    assert mod2_rank(h1(NilManifold("T", 2))) == 3
    assert mod2_rank(h1(NilManifold("K", 1))) == 2
    assert mod2_rank(h1(NilManifold("2222", 0))) == 3
    assert mod2_rank(h1(NilManifold("236", 0, (1, 1)))) == 1
    assert mod2_rank(h1(NilManifold("333", 0, (1, 1, 1)))) == 0
    assert mod2_rank(h1(NilManifold("333", 0, (1, 1, 2)))) == 1
    assert mod2_rank(AbelianGroup(1, (3, 6, 12), {})) == 3


def test_torsion_killing_detects_fibre_class():
    m = NilManifold("T", 2)
    group = h1(m)
    killed = [phi for phi in enumerate_epis(m)
              if torsion_subgroup_killed_by(phi.bits, group)]
    assert len(killed) == 3
    assert all(phi.h == 0 for phi in killed)
    others = [phi for phi in enumerate_epis(m) if phi.h == 1]
    assert len(others) == 4
    assert not any(torsion_subgroup_killed_by(phi.bits, group)
                   for phi in others)
    assert [kills_torsion(m, phi.bits) for phi in enumerate_epis(m)] \
        == [phi.h == 0 for phi in enumerate_epis(m)]
    # bits in generator order (v1, v2, h), and only the ints 0 and 1
    assert torsion_subgroup_killed_by((1, 0, 0), group)
    for value in (3, True, 1.0, "1"):
        with pytest.raises(NotAHomomorphism):
            torsion_subgroup_killed_by((value, 0, 0), group)
    with pytest.raises(NotAHomomorphism):
        torsion_subgroup_killed_by((1, 0), group)  # no bit for h


def _factors_through_free_quotient(bits, group):
    # brute force: some psi in GF(2)^f with phi(g_j) = psi . free(g_j) mod 2
    f = group.free_rank
    return any(all((sum(p * c for p, c in zip(psi, coords[:f])) - bit) % 2 == 0
                   for coords, bit in zip(group.gen_images.values(), bits))
               for psi in itertools.product((0, 1), repeat=f))


def test_torsion_killing_matches_brute_force():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(1500):
        free = rng.randint(0, 5)
        torsion, d = [], 1
        for _ in range(rng.randint(1, 3)):
            d *= rng.randint(2, 4)  # a chain d_1 | d_2 | ...
            torsion.append(d)
        images = {"x%d" % j: tuple(rng.randint(-9, 9) for _ in range(free))
                  + tuple(rng.randrange(t) for t in torsion)
                  for j in range(rng.randint(1, 7))}
        group = AbelianGroup(free, tuple(torsion), images)
        if rng.random() < 0.5:  # phi through the free quotient: both answers
            psi = [rng.randint(0, 1) for _ in range(free)]
            bits = tuple(sum(p * c for p, c in zip(psi, coords)) % 2
                         for coords in images.values())
        else:
            bits = tuple(rng.randint(0, 1) for _ in images)
        killed = torsion_subgroup_killed_by(bits, group)
        assert killed == _factors_through_free_quotient(bits, group)
        seen.add((free, killed))
    assert seen == {(f, k) for f in range(6) for k in (False, True)}
