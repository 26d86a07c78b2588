"""Acceptance gate: the eight end-to-end checks, each printing one summary line.

Every check is exact (integer and rational arithmetic throughout).  The
sweep covers each family row with b from b_min to b_min + 16.  Criterion 4
compares the library's covering formulas against an independent transcription
kept in this file, so the two routes cannot drift silently.
"""

import functools
import random
from fractions import Fraction

from nilbu import (NilManifold, SeifertInvariant, apply_move,
                   available_moves, b_min, cd_invariants, double_cover,
                   enumerate_epis, equivalence_classes, euler_number,
                   expected_epi_count, expected_partition_shape,
                   expected_quotient_diagram, h1, h1_closed_form,
                   h1_stated_relations, index_one_case, index_three_case,
                   index_is_one, cup_cube_nonzero, MoveNotApplicable,
                   normalize, quotients_of, reverse_orientation,
                   smith_normal_form, verify_cover, z2_index)

from helpers import determinant, matmul


def criterion(n):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("[acceptance] criterion %d: FAIL" % n)
                raise
            print("[acceptance] criterion %d: PASS" % n)
        return run
    return wrap


# (family, betas) -> (c slope, c intercept, d, b_min)
FAMILY_TABLE = {
    ("T", ()): (1, 0, 0, 1),
    ("K", ()): (1, 0, 0, 1),
    ("22", ()): (2, 2, 2, 0),
    ("2222", ()): (2, 4, 4, -1),
    ("236", (1, 1)): (6, 6, 2, 0),
    ("236", (1, 5)): (6, 10, 2, -1),
    ("236", (2, 1)): (6, 8, 2, -1),
    ("236", (2, 5)): (6, 12, 2, -1),
    ("244", (1, 1)): (4, 4, 3, 0),
    ("244", (1, 3)): (4, 6, 3, -1),
    ("244", (3, 3)): (4, 8, 3, -1),
    ("333", (1, 1, 1)): (3, 3, 0, 0),
    ("333", (1, 1, 2)): (3, 4, 0, -1),
    ("333", (1, 2, 2)): (3, 5, 0, -1),
    ("333", (2, 2, 2)): (3, 6, 0, -1),
}


@criterion(1)
def test_criterion_1_family_table(sweep16):
    """c, d and b_min agree with the family table on every sweep member."""
    seen = set()
    for m in sweep16:
        slope, intercept, d_exp, lo = FAMILY_TABLE[(m.family, m.betas)]
        seen.add((m.family, m.betas))
        inv = m.seifert()
        c, d, a = cd_invariants(inv)
        assert c == slope * m.b + intercept, m.encode()
        assert a == slope, m.encode()
        assert d == d_exp, m.encode()
        assert b_min(inv.pairs) == lo, m.encode()
        assert c == euler_number(inv) * slope  # c = e * lcm(a_i)
    assert seen == set(FAMILY_TABLE)


@criterion(2)
def test_criterion_2_homology(sweep16):
    """H1 matches the closed forms; every stated generator relation holds."""
    for m in sweep16:
        group = h1(m)
        assert group.decomposition == h1_closed_form(m), m.encode()
        for rel in h1_stated_relations(m):
            assert group.is_zero_combination(rel), (m.encode(), rel)


@criterion(3)
def test_criterion_3_epimorphism_counts_and_partitions(sweep16):
    """Epimorphism counts and class-size partitions match the closed forms."""
    for m in sweep16:
        epis = enumerate_epis(m)
        assert len(epis) == expected_epi_count(m), m.encode()
        part = equivalence_classes(m)
        assert part.shape == expected_partition_shape(m), m.encode()
        assert sum(c.size for c in part.classes) == len(epis), m.encode()


def _stated_cover(m, phi):
    """Independent transcription of the per-class covering formulas."""
    b = m.b
    if m.family == "T":
        return NilManifold("T", b // 2 if phi.h else 2 * b)
    if m.family == "K":
        if phi.h:
            return NilManifold("K", b // 2)
        if phi.v[0] != phi.v[1]:
            return NilManifold("K", 2 * b)
        return NilManifold("T", 2 * b)
    if m.family == "22":
        if phi.s[0] and phi.s[1]:
            return NilManifold("K", 2 * b + 2)
        return NilManifold("2222", 2 * b)
    if m.family == "2222":
        weight = sum(phi.s)
        if weight == 4:
            return NilManifold("T", 2 * b + 4)
        return NilManifold("2222", 2 * b + 2)
    if m.family == "236":
        b2, b3 = m.betas
        k = {1: 1, 5: 2}[b3]
        return NilManifold("333", 2 * b + k, (b2, b2, k))
    if m.family == "244":
        b2, b3 = m.betas
        half = {1: 1, 3: 2}
        if not phi.s[0]:
            return NilManifold("2222", 2 * b - 1 + (b2 + b3) // 2)
        if not phi.s[2]:
            return NilManifold("244", 2 * b + half[b2], (b3, b3))
        return NilManifold("244", 2 * b + half[b3], (b2, b2))
    if m.family == "333":
        b1, b2, b3 = m.betas
        return NilManifold("333", (b + b1 + b2 + b3 - 6) // 2,
                           (3 - b3, 3 - b2, 3 - b1))
    raise AssertionError(m.family)


@criterion(4)
def test_criterion_4_covering_formulas(sweep16):
    """double_cover equals the transcribed formulas on every class."""
    for m in sweep16:
        for cls in equivalence_classes(m).classes:
            rep = cls.representative
            assert double_cover(rep) == _stated_cover(m, rep), \
                (m.encode(), rep.describe())


@criterion(5)
def test_criterion_5_covering_oracle(sweep16):
    """The rewriting + Smith-form oracle accepts every computed cover."""
    for m in sweep16:
        e = euler_number(m.seifert())
        for phi in enumerate_epis(m):
            cover = double_cover(phi)
            assert verify_cover(phi, cover), (m.encode(), phi.describe())
            scale = Fraction(1, 2) if phi.h else Fraction(2)
            assert euler_number(cover.seifert()) == scale * e


@criterion(6)
def test_criterion_6_index_criteria_two_way(sweep16):
    """Generic index criteria coincide with the per-family catalogs."""
    for m in sweep16:
        for phi in enumerate_epis(m):
            one = index_is_one(phi)
            three = cup_cube_nonzero(phi)
            assert not (one and three), (m.encode(), phi.describe())
            assert one == (index_one_case(m, phi) is not None), \
                (m.encode(), phi.describe())
            assert three == (index_three_case(m, phi) is not None), \
                (m.encode(), phi.describe())
            assert z2_index(phi) == (1 if one else 3 if three else 2)


@criterion(7)
def test_criterion_7_involution_diagrams(sweep16):
    """quotients_of reproduces the involution diagrams, empty where stated."""
    for m in sweep16:
        got = tuple((d.base, d.index) for d in quotients_of(m))
        assert got == expected_quotient_diagram(m), m.encode()
        if m.family in ("22", "236") or (m.family == "244"
                                         and m.betas == (1, 3)):
            assert got == ()
        for d in quotients_of(m):
            assert d.cover == m
            assert double_cover(d.phi) == m


@criterion(8)
def test_criterion_8_property_suites(sweep16):
    """Goldens-free properties: SNF transforms, normalization, involutions."""
    rng = random.Random(1123581321)
    for _ in range(500):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        S, U, V = smith_normal_form(mat)
        assert S == matmul(matmul(U, mat), V)
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        diag = [S[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        assert diag == nz + [0] * (len(diag) - len(nz))
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0

    for _ in range(300):
        eps = rng.choice((1, -1))
        g = rng.randint(1 if eps < 0 else 0, 4)
        if eps > 0 and g % 2:
            g += 1
        pairs = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(1, 8)
            beta = rng.choice([x for x in range(-15, 16)
                               if __import__("math").gcd(a, x) == 1])
            pairs.append((a, beta))
        inv = normalize(rng.randint(-5, 5), eps, g, pairs)
        assert normalize(inv.b, inv.epsilon, inv.g_prime, inv.pairs) == inv
        assert reverse_orientation(reverse_orientation(inv)) == inv

    for m in sweep16:
        assert reverse_orientation(reverse_orientation(m.seifert())) == m.seifert()
        moves = available_moves(m)
        for cls in equivalence_classes(m).classes:
            cover = double_cover(cls.representative)
            index = z2_index(cls.representative)
            for phi in cls.members:
                assert double_cover(phi) == cover
                assert z2_index(phi) == index
                for move in moves:
                    try:
                        image = apply_move(phi, move)
                    except MoveNotApplicable:
                        continue
                    assert double_cover(image) == cover
                    assert z2_index(image) == index
