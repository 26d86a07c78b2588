"""Epimorphisms pi_1 -> Z2 of the Nil manifolds and their equivalence classes.

A character is a bit per generator of the standard presentation; it is an
epimorphism iff it kills every relator mod 2 and is nonzero.  Two
epimorphisms determine equivalent double covers (the same free involution up
to conjugacy) when one is carried to the other by one of five induced
automorphism moves; the orbit closure under those moves is computed here by
plain breadth-first search.  All orderings are deterministic: characters are
compared by their bit tuple in generator order s_1..s_n, v_1..v_g', h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .presentation import check_epimorphism, fundamental_group
from .seifert import NilError, NilManifold


class MoveNotApplicable(NilError):
    """The move's hypotheses fail for this character/family."""


class InvalidCharacter(NilError):
    """The character is not an epimorphism of this manifold's group."""


@dataclass(frozen=True)
class Z2Char:
    """A mod-2 character on named generators, accessed like a mapping."""

    generators: tuple[str, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "bits", tuple(self.bits))
        for b in self.bits:
            if type(b) is not int or b not in (0, 1):  # bool is not a bit
                raise InvalidCharacter("a bit must be 0 or 1, got %r" % (b,))
        if len(self.generators) != len(self.bits):
            raise InvalidCharacter("one bit per generator required")

    def __getitem__(self, name: str) -> int:
        try:
            return self.bits[self.generators.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def _parts(self) -> tuple[list[int], list[int], int]:
        s = [b for g, b in zip(self.generators, self.bits) if g.startswith("s")]
        v = [b for g, b in zip(self.generators, self.bits) if g.startswith("v")]
        return s, v, self["h"]

    def to_json_dict(self) -> dict:
        s, v, h = self._parts()
        return {"s": s, "v": v, "h": h}

    def describe(self) -> str:
        s, v, h = self._parts()
        return "s=(%s) v=(%s) h=%d" % (",".join(map(str, s)),
                                       ",".join(map(str, v)), h)

    def with_bits(self, bits) -> "Z2Char":
        return Z2Char(self.generators, tuple(bits))

    def __str__(self):
        return self.describe()


def char_for(m: NilManifold, s=(), v=(), h=0) -> Z2Char:
    """Build a character on m's standard generators from s/v/h bit groups."""
    pres = fundamental_group(m.seifert())
    n_s = sum(1 for g in pres.generators if g.startswith("s"))
    n_v = sum(1 for g in pres.generators if g.startswith("v"))
    s, v = tuple(s), tuple(v)
    if len(s) != n_s or len(v) != n_v:
        raise InvalidCharacter(
            "%s takes %d s-bits and %d v-bits, got %d and %d"
            % (m.encode(), n_s, n_v, len(s), len(v)))
    return Z2Char(pres.generators, s + v + (h,))


def validate_char(m: NilManifold, phi: Z2Char) -> Z2Char:
    """Check phi is an epimorphism of pi_1(m); raise InvalidCharacter if not."""
    pres = fundamental_group(m.seifert())
    if phi.generators != pres.generators:
        raise InvalidCharacter(
            "character generators %r do not match %s"
            % (phi.generators, m.encode()))
    try:
        check_epimorphism(pres, phi)
    except NilError as err:
        raise InvalidCharacter(str(err)) from err
    return phi


@lru_cache(maxsize=None)
def enumerate_epis(m: NilManifold) -> tuple[Z2Char, ...]:
    """All epimorphisms pi_1(m) -> Z2, lexicographic in the bit tuple."""
    pres = fundamental_group(m.seifert())
    out = []
    for bits in product((0, 1), repeat=len(pres.generators)):
        if not any(bits):
            continue
        ok = all(
            sum(bits[abs(letter) - 1] for letter in word) % 2 == 0
            for word in pres.relators)
        if ok:
            out.append(Z2Char(pres.generators, bits))
    assert len({c.bits for c in out}) == len(out)
    return tuple(out)


@dataclass(frozen=True)
class FiberFlip:
    """Toggle the listed v-bits; allowed when phi(h) = 1."""
    v_indices: tuple[int, ...]


@dataclass(frozen=True)
class ConeSwap:
    """Exchange the s-bits of two cone points with equal (a, beta)."""
    i: int
    j: int


@dataclass(frozen=True)
class TorusShear:
    """Torus-base transvection: variant 1 needs phi(v1) = 1 and toggles v2;
    variant 2 needs phi(v2) = 1 and toggles v1."""
    variant: int


@dataclass(frozen=True)
class KleinSwap:
    """Klein-base swap of v-bits; allowed when they are (1,0) or (0,1)."""


@dataclass(frozen=True)
class ConeSlide:
    """Family 22 slide of v1 across the second cone; needs phi(s2) = 1,
    toggles v1."""


MoveSpec = FiberFlip | ConeSwap | TorusShear | KleinSwap | ConeSlide


def _v_name(j: int) -> str:
    return "v%d" % j


def apply_move(phi: Z2Char, move: MoveSpec, m: NilManifold) -> Z2Char:
    """Image of phi under one induced automorphism move.

    Raises MoveNotApplicable when the move's hypotheses fail; the result is
    always again an epimorphism.
    """
    validate_char(m, phi)
    inv = m.seifert()
    bits = list(phi.bits)
    names = phi.generators

    def idx(name):
        return names.index(name)

    if isinstance(move, FiberFlip):
        if phi["h"] != 1:
            raise MoveNotApplicable("v-flips require phi(h) = 1")
        g = sum(1 for g_ in names if g_.startswith("v"))
        seen = set()
        for j in move.v_indices:
            if not 1 <= j <= g or j in seen:
                raise MoveNotApplicable("bad v index %r" % (j,))
            seen.add(j)
            bits[idx(_v_name(j))] ^= 1
    elif isinstance(move, ConeSwap):
        n = len(inv.pairs)
        i, j = move.i, move.j
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise MoveNotApplicable("bad cone indices (%r, %r)" % (i, j))
        if inv.pairs[i - 1] != inv.pairs[j - 1]:
            raise MoveNotApplicable(
                "cones %d and %d have different invariants" % (i, j))
        a, b_ = idx("s%d" % i), idx("s%d" % j)
        bits[a], bits[b_] = bits[b_], bits[a]
    elif isinstance(move, TorusShear):
        if m.family != "T":
            raise MoveNotApplicable("shear moves live on the torus family")
        if move.variant == 1:
            if phi["v1"] != 1:
                raise MoveNotApplicable("variant 1 needs phi(v1) = 1")
            bits[idx("v2")] ^= 1
        elif move.variant == 2:
            if phi["v2"] != 1:
                raise MoveNotApplicable("variant 2 needs phi(v2) = 1")
            bits[idx("v1")] ^= 1
        else:
            raise MoveNotApplicable("shear variant must be 1 or 2")
    elif isinstance(move, KleinSwap):
        if m.family != "K":
            raise MoveNotApplicable("Klein swap lives on the K family")
        pair = (phi["v1"], phi["v2"])
        if pair not in ((1, 0), (0, 1)):
            raise MoveNotApplicable("swap needs v-bits (1,0) or (0,1)")
        a, b_ = idx("v1"), idx("v2")
        bits[a], bits[b_] = bits[b_], bits[a]
    elif isinstance(move, ConeSlide):
        if m.family != "22":
            raise MoveNotApplicable("cone slide lives on the 22 family")
        if phi["s2"] != 1:
            raise MoveNotApplicable("cone slide needs phi(s2) = 1")
        bits[idx("v1")] ^= 1
    else:
        raise MoveNotApplicable("unknown move %r" % (move,))

    result = phi.with_bits(bits)
    validate_char(m, result)
    return result


def available_moves(m: NilManifold) -> tuple[MoveSpec, ...]:
    """Generating set of moves for m's family (single flips and swaps)."""
    inv = m.seifert()
    moves: list[MoveSpec] = []
    g = inv.g_prime
    moves.extend(FiberFlip((j,)) for j in range(1, g + 1))
    n = len(inv.pairs)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if inv.pairs[i - 1] == inv.pairs[j - 1]:
                moves.append(ConeSwap(i, j))
    if m.family == "T":
        moves.append(TorusShear(1))
        moves.append(TorusShear(2))
    if m.family == "K":
        moves.append(KleinSwap())
    if m.family == "22":
        moves.append(ConeSlide())
    return tuple(moves)


@dataclass(frozen=True)
class EpiClass:
    """One equivalence class; members sorted, representative = lexicographic min."""

    members: tuple[Z2Char, ...]

    @property
    def representative(self) -> Z2Char:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EpiClassPartition:
    manifold: NilManifold
    classes: tuple[EpiClass, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        """Class sizes, ascending."""
        return tuple(sorted(c.size for c in self.classes))


@lru_cache(maxsize=None)
def equivalence_classes(m: NilManifold) -> EpiClassPartition:
    """Partition of enumerate_epis(m) into move-orbits.

    Breadth-first closure under the family's available moves; classes are
    ordered by their representatives.
    """
    epis = enumerate_epis(m)
    moves = available_moves(m)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for start in epis:
        if start.bits in seen:
            continue
        orbit = {start.bits: start}
        frontier = [start]
        while frontier:
            phi = frontier.pop()
            for move in moves:
                try:
                    image = apply_move(phi, move, m)
                except MoveNotApplicable:
                    continue
                if image.bits not in orbit:
                    orbit[image.bits] = image
                    frontier.append(image)
        seen.update(orbit)
        members = tuple(sorted(orbit.values(), key=lambda c: c.bits))
        classes.append(EpiClass(members))
    classes.sort(key=lambda c: c.representative.bits)
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
