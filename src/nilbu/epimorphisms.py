"""Epimorphisms pi_1 -> Z2 of the Nil manifolds and their equivalence classes.

A character (Z2Char) is an epimorphism of one manifold: a bit per generator
of its standard presentation, in the order s_1..s_n, v_1..v_g', h.  It is
checked when it is made (char_for, with_bits and enumerate_epis all build
through that check), so a layer given one only confirms it is a character of
its manifold.  Two epimorphisms determine equivalent double covers (the same
free involution up to conjugacy) when one is carried to the other by one of
five induced automorphism moves; the orbit closure under those moves is a
breadth-first search over bit tuples among the checked epimorphisms.  All
orderings are deterministic: characters are compared by their bit tuple.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .presentation import check_epimorphism, fundamental_group
from .seifert import FAMILIES, NilError, NilManifold, Record


class MoveNotApplicable(NilError):
    """The move's hypotheses fail for this character/family."""


class InvalidCharacter(NilError):
    """The character is not an epimorphism of this manifold's group."""


def _shape(family: str) -> tuple[int, int]:
    """(number of s-generators, number of v-generators) of the family."""
    _, g, orders, _ = FAMILIES[family]
    return len(orders), g


class Z2Char(Record):
    """An epimorphism pi_1(manifold) -> Z2, checked when it is made.

    Held as its bits in generator order, read in groups through s, v and h.
    """

    __slots__ = _fields = ("manifold", "bits")

    def __init__(self, manifold: NilManifold, bits: tuple[int, ...]):
        object.__setattr__(self, "manifold", manifold)
        object.__setattr__(self, "bits", tuple(bits))
        try:
            check_epimorphism(fundamental_group(manifold.seifert()), self.bits)
        except NilError as err:
            raise InvalidCharacter(str(err)) from err

    @property
    def s(self) -> tuple[int, ...]:
        return self.bits[:_shape(self.manifold.family)[0]]

    @property
    def v(self) -> tuple[int, ...]:
        return self.bits[_shape(self.manifold.family)[0]:-1]

    @property
    def h(self) -> int:
        return self.bits[-1]

    def to_json_dict(self) -> dict:
        return {"s": list(self.s), "v": list(self.v), "h": self.h}

    def describe(self) -> str:
        return "s=(%s) v=(%s) h=%d" % (",".join(map(str, self.s)),
                                       ",".join(map(str, self.v)), self.h)

    def with_bits(self, bits) -> "Z2Char":
        return Z2Char(self.manifold, tuple(bits))

    def __str__(self):
        return self.describe()


def char_for(m: NilManifold, s=(), v=(), h=0) -> Z2Char:
    """Build a character on m's standard generators from s/v/h bit groups."""
    n_s, n_v = _shape(m.family)
    s, v = tuple(s), tuple(v)
    if len(s) != n_s or len(v) != n_v:
        raise InvalidCharacter(
            "%s takes %d s-bits and %d v-bits, got %d and %d"
            % (m.encode(), n_s, n_v, len(s), len(v)))
    return Z2Char(m, s + v + (h,))


def validate_char(m: NilManifold, phi: Z2Char) -> Z2Char:
    """Check phi is a character of m (not of another manifold); O(1)."""
    if phi.manifold != m:
        raise InvalidCharacter("character of %s used on %s"
                               % (phi.manifold.encode(), m.encode()))
    return phi


@lru_cache(maxsize=None)
def enumerate_epis(m: NilManifold) -> tuple[Z2Char, ...]:
    """All epimorphisms pi_1(m) -> Z2, lexicographic in the bit tuple.

    The presentation's epimorphism_bits tests every nonzero assignment as an
    integer against the relators' parity masks; each survivor is then built
    as a Z2Char, whose odd_relator check confirms it independently.
    """
    pres = fundamental_group(m.seifert())
    return tuple(Z2Char(m, bits) for bits in pres.epimorphism_bits())


class FiberFlip(Record):
    """Toggle the listed v-bits; allowed when phi(h) = 1."""
    __slots__ = _fields = ("v_indices",)


class ConeSwap(Record):
    """Exchange the s-bits of two cone points with equal (a, beta)."""
    __slots__ = _fields = ("i", "j")


class TorusShear(Record):
    """Torus-base transvection: variant 1 needs phi(v1) = 1 and toggles v2;
    variant 2 needs phi(v2) = 1 and toggles v1."""
    __slots__ = _fields = ("variant",)


class KleinSwap(Record):
    """Klein-base swap of v-bits; allowed when they are (1,0) or (0,1)."""
    __slots__ = ()


class ConeSlide(Record):
    """Family 22 slide of v1 across the second cone; needs phi(s2) = 1,
    toggles v1."""
    __slots__ = ()


MoveSpec = FiberFlip | ConeSwap | TorusShear | KleinSwap | ConeSlide


def apply_move(phi: Z2Char, move: MoveSpec, m: NilManifold) -> Z2Char:
    """Image of phi under one induced automorphism move.

    Raises MoveNotApplicable when the move's hypotheses fail; the result is
    always again an epimorphism (with_bits checks it).
    """
    validate_char(m, phi)
    return phi.with_bits(_move_bits(phi.bits, move, m))


def _move_bits(bits, move: MoveSpec, m: NilManifold) -> tuple[int, ...]:
    n_s = _shape(m.family)[0]
    s, v, h = list(bits[:n_s]), list(bits[n_s:-1]), bits[-1]
    if isinstance(move, FiberFlip):
        if h != 1:
            raise MoveNotApplicable("v-flips require phi(h) = 1")
        seen = set()
        for j in move.v_indices:
            if not 1 <= j <= len(v) or j in seen:
                raise MoveNotApplicable("bad v index %r" % (j,))
            seen.add(j)
            v[j - 1] ^= 1
    elif isinstance(move, ConeSwap):
        pairs = m.row.pairs
        n = len(pairs)
        i, j = move.i, move.j
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise MoveNotApplicable("bad cone indices (%r, %r)" % (i, j))
        if pairs[i - 1] != pairs[j - 1]:
            raise MoveNotApplicable(
                "cones %d and %d have different invariants" % (i, j))
        s[i - 1], s[j - 1] = s[j - 1], s[i - 1]
    elif isinstance(move, TorusShear):
        if m.family != "T":
            raise MoveNotApplicable("shear moves live on the torus family")
        if move.variant == 1:
            if v[0] != 1:
                raise MoveNotApplicable("variant 1 needs phi(v1) = 1")
            v[1] ^= 1
        elif move.variant == 2:
            if v[1] != 1:
                raise MoveNotApplicable("variant 2 needs phi(v2) = 1")
            v[0] ^= 1
        else:
            raise MoveNotApplicable("shear variant must be 1 or 2")
    elif isinstance(move, KleinSwap):
        if m.family != "K":
            raise MoveNotApplicable("Klein swap lives on the K family")
        if v not in ([1, 0], [0, 1]):
            raise MoveNotApplicable("swap needs v-bits (1,0) or (0,1)")
        v.reverse()
    elif isinstance(move, ConeSlide):
        if m.family != "22":
            raise MoveNotApplicable("cone slide lives on the 22 family")
        if s[1] != 1:
            raise MoveNotApplicable("cone slide needs phi(s2) = 1")
        v[0] ^= 1
    else:
        raise MoveNotApplicable("unknown move %r" % (move,))
    return tuple(s + v + [h])


# the moves that live on one family only, built once
_FAMILY_MOVES = {"T": (TorusShear(1), TorusShear(2)), "K": (KleinSwap(),),
                 "22": (ConeSlide(),)}


def available_moves(m: NilManifold) -> tuple[MoveSpec, ...]:
    """Generating set of moves for m's family (single flips and swaps)."""
    _, g, _, _ = FAMILIES[m.family]
    pairs = m.row.pairs
    moves: list[MoveSpec] = [FiberFlip((j,)) for j in range(1, g + 1)]
    moves += [ConeSwap(i + 1, j + 1) for i, j in
              combinations(range(len(pairs)), 2) if pairs[i] == pairs[j]]
    return tuple(moves) + _FAMILY_MOVES.get(m.family, ())


class EpiClass(Record):
    """One equivalence class; members sorted, representative = lexicographic min."""

    __slots__ = _fields = ("members",)

    @property
    def representative(self) -> Z2Char:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


class EpiClassPartition(Record):
    __slots__ = _fields = ("manifold", "classes")

    @property
    def shape(self) -> tuple[int, ...]:
        """Class sizes, ascending."""
        return tuple(sorted(c.size for c in self.classes))


@lru_cache(maxsize=None)
def equivalence_classes(m: NilManifold) -> EpiClassPartition:
    """Partition of enumerate_epis(m) into move-orbits.

    Breadth-first closure over bit tuples; an image outside enumerate_epis(m)
    raises InvalidCharacter.  Classes are ordered by their representatives.
    """
    epis = {phi.bits: phi for phi in enumerate_epis(m)}
    moves = available_moves(m)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for start in epis:  # least first, so each starts its orbit's class
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            bits = frontier.pop()
            for move in moves:
                try:
                    image = _move_bits(bits, move, m)
                except MoveNotApplicable:
                    continue
                if image not in epis:
                    raise InvalidCharacter("%r carries %r of %s to %r"
                                           % (move, bits, m.encode(), image))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        classes.append(EpiClass(tuple(epis[bits] for bits in sorted(orbit))))
    return EpiClassPartition(m, tuple(classes))


def expected_epi_count(m: NilManifold) -> int:
    """Closed-form number of Z2-epimorphisms for m's family row."""
    fam, b = m.family, m.b
    if fam in ("T", "K"):
        return 7 if b % 2 == 0 else 3
    if fam == "22":
        return 3
    if fam == "2222":
        return 7
    if fam == "236":
        return 1
    if fam == "244":
        return 3
    if fam == "333":
        return 1 if (b + sum(m.betas)) % 2 == 0 else 0
    raise NilError("unknown family %r" % (fam,))


def expected_partition_shape(m: NilManifold) -> tuple[int, ...]:
    """Closed-form class sizes (ascending) for m's family row."""
    fam, b = m.family, m.b
    if fam == "T":
        return (3,) if b % 2 else (3, 4)
    if fam == "K":
        return (1, 2) if b % 2 else (1, 2, 4)
    if fam == "22":
        return (1, 2)
    if fam == "2222":
        return (1, 6)
    if fam == "236":
        return (1,)
    if fam == "244":
        b2, b3 = m.betas
        return (1, 2) if b2 == b3 else (1, 1, 1)
    if fam == "333":
        return (1,) if (b + sum(m.betas)) % 2 == 0 else ()
    raise NilError("unknown family %r" % (fam,))
