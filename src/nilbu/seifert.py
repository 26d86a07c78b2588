"""Seifert invariants of closed orientable 3-manifolds with Nil geometry.

A closed orientable Seifert fibred space over a closed base surface is
described by an invariant

    (b; eps; g'; (a_1, b_1), ..., (a_n, b_n))

where b is the Euler-like twisting integer of the section, eps = +1 for an
orientable base and -1 for a non-orientable one, g' counts handles
(eps = +1, genus g = g'/2) or crosscaps (eps = -1, g = g') of the base, and
each pair (a_i, b_i) with 0 < b_i < a_i, gcd(a_i, b_i) = 1 is an exceptional
fibre.  Two such tuples give the same oriented manifold iff they agree after
normalization; reversing orientation negates all of b, b_i.

Nil geometry is detected by two numbers: the Euler characteristic of the base
orbifold

    chi = (2 - g') - sum_i (1 - 1/a_i)

and the Euler number of the fibration

    e = b + sum_i b_i/a_i.

The manifold carries Nil geometry iff chi = 0 and e != 0, and we fix the
orientation with e > 0.  chi = 0 forces one of seven shapes, tagged here by
what the base orbifold looks like:

    tag     eps  g'  cone orders     free parameters
    T       +1   2   -               torus base, no cones
    K       -1   2   -               Klein bottle base
    22      -1   1   2, 2            two order-2 cones (betas forced to 1)
    2222    +1   0   2, 2, 2, 2      four order-2 cones
    236     +1   0   2, 3, 6         b2 in {1,2}, b3 in {1,5}
    244     +1   0   2, 4, 4         b2 <= b3 in {1,3}
    333     +1   0   3, 3, 3         b1 <= b2 <= b3 in {1,2}

Within each family b ranges over the integers with e > 0, i.e. b >= b_min.
Everything is exact: c = e * lcm(a_i) and b_min are ints, e and chi Fractions;
is_nil and classify decide on the ints.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import namedtuple
from itertools import product


class NilError(Exception):
    """Base class for the domain errors raised by this package."""


class InvariantError(NilError):
    """Raw Seifert data violates a structural constraint (a_i <= 0, gcd != 1, ...)."""


class NotNil(NilError):
    """The invariant does not satisfy chi = 0, e != 0."""


class OrientationError(NilError):
    """Nil invariant with e < 0; classify the mirror via reverse_orientation."""


class ParseError(NilError):
    """Text does not parse as a Seifert invariant or family encoding."""


class Record:
    """Immutable record compared, hashed and shown by its fields, not iterable.

    A frozen dataclass without importing dataclasses: a subclass names its
    fields in __slots__ = _fields = (...), and Record.__init__ takes one
    value per field, in that order.  A subclass that checks its values
    keeps its own __init__ and sets them with object.__setattr__, and its
    values derived from them in further __slots__, set once.  Fields alone
    define equality, hash, repr and pickling (which calls __init__ again).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s needs one value per field (%d), got %d" % (
                self.__class__.__qualname__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):  # an attrgetter is no descriptor: self._key(self)
        cls._key = (operator.attrgetter(*cls._fields) if cls._fields
                    else staticmethod(lambda self: ()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % (name,))

    __delattr__ = __setattr__


def _check_ints(*values) -> None:
    """InvariantError unless each value is an int: none is coerced."""
    for x in values:
        if type(x) is not int:  # bool is not an int here
            raise InvariantError("Seifert data must be ints, got %r" % (x,))


class SeifertInvariant(Record):
    """Normalized Seifert invariant of a closed orientable Seifert fibration.

    Pairs are kept canonically sorted; construction enforces the normal form
    (0 < b_i < a_i, gcd = 1, eps in {+1,-1}, g' >= 1 when eps = -1).  Use
    normalize() to build one from loose data.
    """

    __slots__ = _fields = ("b", "epsilon", "g_prime", "pairs")

    def __init__(self, b: int, epsilon: int, g_prime: int, pairs):
        pairs = [(a, beta) for a, beta in pairs]
        _check_ints(b, epsilon, g_prime, *(x for pair in pairs for x in pair))
        if epsilon not in (+1, -1):
            raise InvariantError("epsilon must be +1 or -1, got %r" % (epsilon,))
        if g_prime < 0:
            raise InvariantError("g' must be >= 0, got %r" % (g_prime,))
        if epsilon == -1 and g_prime < 1:
            raise InvariantError("non-orientable base needs g' >= 1")
        pairs = tuple(sorted(pairs))
        for a, beta in pairs:
            if a < 2:
                raise InvariantError("normalized pair needs a >= 2, got (%d,%d)" % (a, beta))
            if not 0 < beta < a:
                raise InvariantError("normalized pair needs 0 < beta < a, got (%d,%d)" % (a, beta))
            if math.gcd(a, beta) != 1:
                raise InvariantError("pair (%d,%d) is not coprime" % (a, beta))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "g_prime", g_prime)
        object.__setattr__(self, "pairs", pairs)

    def encode(self) -> str:
        body = "".join("(%d,%d)" % p for p in self.pairs)
        return "SF(%d; %+d; %d; %s)" % (self.b, self.epsilon, self.g_prime, body)

    __str__ = encode


def normalize(b, epsilon, g_prime, pairs) -> SeifertInvariant:
    """Bring loose Seifert data to normal form.

    Accepts arbitrary integer betas and pairs with a_i = 1; applies
    (a, beta) -> (a, beta mod a) with the quotient absorbed into b, drops
    a = 1 pairs, sorts.  Rejects a_i <= 0, gcd(a_i, beta_i) != 1 and any
    value that is not an int.
    """
    pairs = [(a, beta) for a, beta in pairs]
    _check_ints(b, epsilon, g_prime, *(x for pair in pairs for x in pair))
    clean = []
    for a, beta in pairs:
        if a <= 0:
            raise InvariantError("fibre order a must be positive, got %d" % a)
        if math.gcd(a, beta) != 1:
            raise InvariantError("pair (%d,%d) is not coprime" % (a, beta))
        q, r = divmod(beta, a)  # 0 <= r < a
        b += q
        if a == 1:
            continue  # (1, 0) is a regular fibre
        clean.append((a, r))
    return SeifertInvariant(b, epsilon, g_prime, tuple(clean))


def orbifold_euler_char(inv: SeifertInvariant) -> Fraction:
    """chi of the base orbifold: (2 - g') - sum (1 - 1/a_i)."""
    from fractions import Fraction
    return Fraction(2 - inv.g_prime) - sum(1 - Fraction(1, a) for a, _ in inv.pairs)


def euler_number(inv: SeifertInvariant) -> Fraction:
    """Euler number of the fibration: e = b + sum b_i/a_i."""
    from fractions import Fraction
    return sum((Fraction(beta, a) for a, beta in inv.pairs), Fraction(inv.b))


def cd_invariants(inv: SeifertInvariant) -> tuple[int, int, int]:
    """(c, d, a): c = e * lcm(a_i), d = number of even a_i, a = lcm(a_i)."""
    a = math.lcm(*(ai for ai, _ in inv.pairs))
    c = inv.b * a + sum(beta * (a // ai) for ai, beta in inv.pairs)
    d = sum(1 for ai, _ in inv.pairs if ai % 2 == 0)
    return c, d, a


def b_min(pairs) -> int:
    """Least b with e > 0 for the given exceptional pairs: -ceil(sum b_i/a_i) + 1."""
    lcm = math.lcm(*(a for a, _ in pairs))  # sum b_i/a_i = c0/lcm, as in cd_invariants
    return -sum(beta * (lcm // a) for a, beta in pairs) // lcm + 1


def is_nil(inv: SeifertInvariant) -> bool:
    """True iff the Seifert fibration carries Nil geometry (chi = 0, e != 0).

    Decided on integers: with L = lcm(a_i), chi L = (2 - g') L - sum (L -
    L/a_i) and e L = c of cd_invariants.
    """
    c, _, lcm = cd_invariants(inv)
    return c != 0 and (2 - inv.g_prime) * lcm == sum(
        lcm - lcm // a for a, _ in inv.pairs)


def reverse_orientation(inv: SeifertInvariant) -> SeifertInvariant:
    """The oppositely oriented manifold: b -> -b - n, beta_i -> a_i - beta_i."""
    n = len(inv.pairs)
    return SeifertInvariant(
        -inv.b - n, inv.epsilon, inv.g_prime,
        tuple((a, a - beta) for a, beta in inv.pairs))


# family tag -> (epsilon, g', cone orders, orders carrying a free beta)
FAMILIES = {
    "T":    (+1, 2, (), ()),
    "K":    (-1, 2, (), ()),
    "22":   (-1, 1, (2, 2), ()),
    "2222": (+1, 0, (2, 2, 2, 2), ()),
    "236":  (+1, 0, (2, 3, 6), (3, 6)),
    "244":  (+1, 0, (2, 4, 4), (4, 4)),
    "333":  (+1, 0, (3, 3, 3), (3, 3, 3)),
}

# families whose free betas are stored sorted (their cone orders coincide)
_SORTED_BETAS = {"244", "333"}


def family_rows() -> list[tuple[str, tuple[int, ...]]]:
    """All (family, betas) rows: one per allowed cone-parameter combination.

    Each free beta is a unit mod its cone order, as NilManifold checks;
    the families of _SORTED_BETAS keep only nondecreasing betas.  Families
    come in FAMILIES order and betas lexicographic, the order of ROWS and
    so of sweep.
    """
    rows = []
    for family, (_, _, _, free) in FAMILIES.items():
        units = [[beta for beta in range(1, a) if math.gcd(a, beta) == 1]
                 for a in free]
        for betas in product(*units):
            if family not in _SORTED_BETAS or list(betas) == sorted(betas):
                rows.append((family, betas))
    return rows


# one family row: its pairs, lcm(a_i), c0 (c = b*lcm + c0), b_min, d (even a_i)
FamilyRow = namedtuple("FamilyRow", ("pairs", "lcm", "c0", "b_min", "d"))


def _family_row(family: str, betas) -> FamilyRow:
    # the cones without a free beta come first and are order 2, beta = 1
    eps, g, orders, free = FAMILIES[family]
    pairs = tuple(zip(orders, (1,) * (len(orders) - len(free)) + betas))
    c0, d, lcm = cd_invariants(SeifertInvariant(0, eps, g, pairs))
    return FamilyRow(pairs, lcm, c0, b_min(pairs), d)


# (family, betas) -> FamilyRow, in family_rows() order; pairs come sorted
ROWS = {row: _family_row(*row) for row in family_rows()}


class NilManifold(Record):
    """A Nil Seifert manifold named by family tag and parameters.

    betas holds the free exceptional-fibre parameters of the family (order-2
    cones are forced to beta = 1 and carry none).  244 and 333 betas are kept
    sorted; b must satisfy e > 0, i.e. b >= b_min of the family row.  row is
    that FamilyRow and c = e * lcm(a_i) = b * row.lcm + row.c0.
    """

    _fields = ("family", "b", "betas")
    __slots__ = _fields + ("row", "c")

    def __init__(self, family: str, b: int, betas: tuple[int, ...] = ()):
        if family not in FAMILIES:
            raise InvariantError("unknown family tag %r" % (family,))
        _, _, _, free = FAMILIES[family]
        betas = tuple(betas)
        _check_ints(b, *betas)
        if family in _SORTED_BETAS:
            betas = tuple(sorted(betas))
        if len(betas) != len(free):
            raise InvariantError(
                "family %s takes %d cone parameters, got %d"
                % (family, len(free), len(betas)))
        for a, beta in zip(free, betas):
            if not (0 < beta < a and math.gcd(a, beta) == 1):
                raise InvariantError(
                    "cone parameter %d invalid for order %d in family %s"
                    % (beta, a, family))
        row = ROWS[(family, betas)]
        if b < row.b_min:
            raise InvariantError("b = %d below b_min = %d for family %s%r"
                                 % (b, row.b_min, family, betas))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "c", b * row.lcm + row.c0)

    def seifert(self) -> SeifertInvariant:
        """Expand the family encoding to its normalized Seifert invariant."""
        eps, g, _, _ = FAMILIES[self.family]
        return SeifertInvariant(self.b, eps, g, self.row.pairs)

    def encode(self) -> str:
        if not self.betas:
            return "%s(%d)" % (self.family, self.b)
        return "%s(%d;%s)" % (self.family, self.b, ",".join(map(str, self.betas)))

    __str__ = encode


def classify(inv: SeifertInvariant) -> NilManifold:
    """Place a Nil invariant into its family.

    Raises NotNil when chi != 0 or e = 0, and OrientationError when e < 0
    (the mirror, reverse_orientation(inv), is the one with e > 0).
    """
    if not is_nil(inv):
        try:
            text = "chi = %s, e = %s" % (orbifold_euler_char(inv), euler_number(inv))
        except ValueError:  # more digits than str() converts
            text = "chi or e too wide to print"
        raise NotNil("not Nil geometry: " + text)
    if cd_invariants(inv)[0] < 0:  # e = c / lcm(a_i)
        raise OrientationError(
            "e = %s < 0; classify(reverse_orientation(inv)) names the mirror"
            % (euler_number(inv),))
    for (tag, betas), row in ROWS.items():
        eps, g, _, _ = FAMILIES[tag]
        if (eps, g, row.pairs) == (inv.epsilon, inv.g_prime, inv.pairs):
            return NilManifold(tag, inv.b, betas)
    orders = tuple(a for a, _ in inv.pairs)
    raise NotNil("chi = 0, e > 0 but shape %r matches no family" % ((inv.epsilon, inv.g_prime, orders),))


def sweep(depth: int = 16):
    """Every family row with b from b_min to b_min + depth, an int >= 0."""
    if type(depth) is not int:  # bool is not a depth
        raise TypeError("depth must be an int, got %r" % (depth,))
    if depth < 0:
        raise ValueError("depth must be >= 0, got %d" % depth)
    return (NilManifold(family, b, betas) for (family, betas), row in ROWS.items()
            for b in range(row.b_min, row.b_min + depth + 1))


# whitespace may stand between tokens, never inside one; [0-9], because \d
# would also match other scripts' digits, which int() converts
_INT = r"\s*(-?[0-9]+)\s*"
_PAIR_RE = re.compile(r"\(%s,%s\)" % (_INT, _INT))
_SF_RE = re.compile(r"\s*SF\s*\(%s;\s*([+-]?1)\s*;\s*([0-9]+)\s*;"
                    r"((?:\s*%s)*)\s*\)\s*" % (_INT, _PAIR_RE.pattern))
_FAMILY_RE = re.compile(r"\s*([A-Za-z0-9]+)\s*\(%s(?:;((?:%s,)*%s))?\)\s*"
                        % (_INT, _INT, _INT))


def _cap() -> int:
    # most digits a parsed integer may have: 2 under the int/str limit, as 36b
    # must print, or 0, no cap, when the limit is 0 or missing (Python < 3.10.7)
    return max(getattr(sys, "get_int_max_str_digits", int)() - 2, 0)


def _int(digits: str) -> int:
    n = len(digits.lstrip("-"))
    if 0 < _cap() < n:
        raise ParseError("integer of %d digits is too long" % n)
    return int(digits)


def parse_seifert(text: str) -> SeifertInvariant:
    """Parse 'SF(b; eps; g'; (a1,b1)(a2,b2)...)', spaces between tokens; normalizes."""
    m = _SF_RE.fullmatch(text)
    if not m:
        raise ParseError("not a Seifert invariant encoding: %r" % text)
    b, eps, g = map(_int, m.group(1, 2, 3))
    pairs = [(_int(a), _int(beta)) for a, beta in _PAIR_RE.findall(m.group(4))]
    try:
        inv = normalize(b, eps, g, pairs)
    except InvariantError as err:
        raise ParseError(str(err)) from err
    if 0 < 3 * _cap() < inv.b.bit_length() and abs(inv.b) >= 10 ** _cap():
        raise ParseError("normalized b has more than %d digits" % _cap())
    return inv


def parse_family(text: str) -> NilManifold:
    """Parse a family encoding like 'T(3)', '236(0;1,5)', '333(-1;1,2,2)'."""
    m = _FAMILY_RE.fullmatch(text)
    if not m or m.group(1) not in FAMILIES:
        raise ParseError("not a family encoding: %r" % text)
    family, b = m.group(1), _int(m.group(2))
    betas = tuple(map(_int, re.findall("-?[0-9]+", m.group(3) or "")))
    try:
        return NilManifold(family, b, betas)
    except InvariantError as err:
        raise ParseError(str(err)) from err


def parse_manifold(text: str) -> NilManifold:
    """Parse either encoding; SF(...) input is classified (so must be Nil, e > 0)."""
    if re.match(r"\s*SF\s*\(", text):
        return classify(parse_seifert(text))
    return parse_family(text)
