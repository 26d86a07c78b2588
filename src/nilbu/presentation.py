"""Finite group presentations, fundamental groups, index-2 subgroups.

Words are tuples of syllables: (k, e) is the k-th generator (1-based) to the
power e, a nonzero int, so h^-b is the one syllable (h, -b) and no word's size
grows with an exponent (the syllable words of Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, section 2.5).  Presentations
keep their relators freely reduced, with no two adjacent syllables on one
generator, but otherwise untouched: no Tietze simplification is applied to
a presentation, so rewritten subgroup presentations stay in the raw
Reidemeister-Schreier shape.
FinitePresentation.relators spells the relators out letter by letter (+k,
-k) for tests that pin that form; nothing in the package reads it.  A mod-2
assignment is a tuple of bits in generator order, each the int 0 or 1 and
nothing else; odd_relator tests it against the parities of each relator's
exponent sums, found as the presentation is validated, and epimorphism_bits
runs through every nonzero assignment as an integer against the same parities.

pi_1 sees b only through h^-b, so _ROW_PARTS holds each family row's
relators with the section relator up to h^-b, shared by every presentation
of the row.
reidemeister_schreier, which builds the whole kernel presentation, is kept
as the reference that the tests hold the oracle's rows to; nothing in the
package calls it, and the benchmark's tracer names it.
"""

from __future__ import annotations

from functools import lru_cache

from .seifert import (FAMILIES, ROWS, InvariantError, NilError, NilManifold,
                      Record)

Word = tuple[tuple[int, int], ...]


class NotAHomomorphism(NilError):
    """The mod-2 assignment does not kill every relator (or misses a generator)."""


class NotSurjective(NilError):
    """The mod-2 assignment sends every generator to 0."""


def free_reduce(word) -> Word:
    """Merge adjacent syllables on one generator and drop zero exponents.

    A reduced tuple comes back as itself, anything else as a new tuple.
    """
    out = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    out = tuple(out)
    return word if out == word else out


def letters(word) -> tuple[int, ...]:
    """The word letter by letter: +k for each generator k, -k for its inverse."""
    return tuple(letter for gen, exp in word
                 for letter in ((gen,) * exp if exp > 0 else (-gen,) * -exp))


def _parity(word: Word) -> int:
    """The word's exponent-sum parities, bit k for generator k+1."""
    odd = 0
    for gen, exp in word:
        odd ^= (exp & 1) << (gen - 1)
    return odd


class FinitePresentation(Record):
    """Generators by name, relators as syllable words, freely reduced on entry.

    _odd_masks holds each relator's exponent-sum parities, bit k for generator
    k+1 (_parity; reduction keeps sums).
    """

    _fields = ("generators", "words")
    __slots__ = _fields + ("_odd_masks",)

    def __init__(self, generators: tuple[str, ...], words: tuple[Word, ...]):
        names = tuple(generators)
        if len(set(names)) != len(names):
            raise InvariantError("duplicate generator names")
        object.__setattr__(self, "generators", names)
        g = len(names)
        reduced = []
        masks = []
        for word in words:
            word = tuple(word)
            for gen, exp in word:
                if type(gen) is not int or type(exp) is not int \
                        or not 1 <= gen <= g:
                    raise InvariantError("syllable %r references no generator"
                                         % ((gen, exp),))
            reduced.append(free_reduce(word))
            masks.append(_parity(word))
        object.__setattr__(self, "words", tuple(reduced))
        object.__setattr__(self, "_odd_masks", tuple(masks))

    @property
    def relators(self) -> tuple[tuple[int, ...], ...]:
        """The relators letter by letter; O(sum of |exponents|), for tests."""
        return tuple(map(letters, self.words))

    def odd_relator(self, bits) -> Word | None:
        """First relator with odd image under bits (one per generator), or None."""
        mask = sum(bit << i for i, bit in enumerate(bits))
        return next((word for word, odd in zip(self.words, self._odd_masks)
                     if (mask & odd).bit_count() % 2), None)

    def epimorphism_bits(self) -> list[tuple[int, ...]]:
        """Bits of every epimorphism onto Z2, in lexicographic order.

        Each x in 1 .. 2^n - 1, bit k for generator k+1, is kept when it
        meets every relator's odd mask in an even number of bits.
        """
        n = len(self.generators)
        xs = range(1, 1 << n)
        for odd in set(self._odd_masks):
            xs = [x for x in xs if not (x & odd).bit_count() & 1]
        return sorted(tuple(x >> k & 1 for k in range(n)) for x in xs)

    def format(self) -> str:
        """Debug rendering '<g1,g2 | w1, w2>'; for logging and test goldens only."""
        body = ", ".join(format_word(self, w) for w in self.words)
        return "<%s | %s>" % (",".join(self.generators), body)

    __str__ = format


def format_word(pres: FinitePresentation, word) -> str:
    """Render a word like 's1 s2 v1^2 h^-3', a syllable at a time; 1 if empty."""
    if not word:
        return "1"
    return " ".join(pres.generators[gen - 1] if exp == 1
                    else "%s^%d" % (pres.generators[gen - 1], exp)
                    for gen, exp in word)


def _commutator(x: int, y: int) -> Word:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def _row_parts(family: str, pairs) -> tuple:
    """pi_1 of a family row but for b: names, the relators before the
    section relator, the section relator up to h^-b, and the number of h."""
    eps, g, _, _ = FAMILIES[family]
    n = len(pairs)
    names = tuple("s%d" % (i + 1) for i in range(n)) \
        + tuple("v%d" % (j + 1) for j in range(g)) + ("h",)
    s = tuple(range(1, n + 1))
    v = tuple(range(n + 1, n + g + 1))
    h = n + g + 1

    relators: list[Word] = []
    for i in range(n):
        relators.append(_commutator(s[i], h))
    for i, (a, beta) in enumerate(pairs):
        relators.append(((s[i], a), (h, beta)))
    for j in range(g):
        # v h v^-1 h^-eps
        relators.append(((v[j], 1), (h, 1), (v[j], -1), (h, -eps)))
    long_word: Word = tuple((x, 1) for x in s)
    if eps == +1:
        for k in range(g // 2):
            long_word += _commutator(v[2 * k], v[2 * k + 1])
    else:
        for j in range(g):
            long_word += ((v[j], 2),)
    return names, tuple(relators), long_word, h


# (family, betas) -> _row_parts; static like ROWS, shared by the row's pi_1s
_ROW_PARTS = {key: _row_parts(key[0], row.pairs) for key, row in ROWS.items()}


# entries of each bounded lru cache: from cleared caches a verify visit or a
# CLI query fills at most 1 entry of each (fundamental_group only for a
# rejected JSON --phi); so no entry is evicted within one before it is read
# again
_BOUND = 32


@lru_cache(maxsize=_BOUND)
def fundamental_group(m: NilManifold) -> FinitePresentation:
    """Standard presentation of pi_1 of the Nil manifold m, cached by m.

    eps and g' come from m's family, the exceptional pairs (a_i, b_i) from
    m.row and b from m.b.  Generators s_1..s_n (exceptional sections),
    v_1..v_g' (base classes), h (regular fibre).  Relators, in order: the
    fibre-commutation relators [s_i, h]; the cone relators s_i^{a_i}
    h^{b_i}; the base relators v_j h v_j^-1 h^{-eps}; and the section
    relator s_1...s_n V h^{-b} where V is the product of handle commutators
    (eps = +1, g' even) or crosscap squares (eps = -1).  Every power is one
    syllable, so the size of the presentation does not depend on b.
    """
    names, fixed, section, h = _ROW_PARTS[m.family, m.betas]
    return FinitePresentation(names, fixed + (section + ((h, -m.b),),))


def exponent_matrix(pres: FinitePresentation) -> list[list[int]]:
    """Abelianized relator matrix: one row per relator, one column per generator."""
    rows = []
    for word in pres.words:
        row = [0] * len(pres.generators)
        for gen, exp in word:
            row[gen - 1] += exp
        rows.append(row)
    return rows


def check_bits(bits, n: int) -> None:
    """NotAHomomorphism unless bits holds n bits, each the int 0 or 1."""
    for bit in bits:
        if type(bit) is not int or bit not in (0, 1):  # bool is not a bit
            raise NotAHomomorphism("a bit must be 0 or 1, got %r" % (bit,))
    if len(bits) != n:
        raise NotAHomomorphism("one bit per generator required")


def check_epimorphism(pres: FinitePresentation, bits) -> None:
    """Validate bits (in generator order) as an epimorphism pi -> Z2.

    Raises NotAHomomorphism unless there is one bit, the int 0 or 1, per
    generator and every relator has even image; NotSurjective if every bit
    is 0.
    """
    check_bits(bits, len(pres.generators))
    word = pres.odd_relator(bits)
    if word is not None:
        raise NotAHomomorphism(
            "relator %s has odd image" % format_word(pres, word))
    if not any(bits):
        raise NotSurjective("phi kills every generator")


def reidemeister_schreier(pres: FinitePresentation, bits) -> FinitePresentation:
    """Presentation of the index-2 subgroup ker(phi) by Reidemeister-Schreier.

    The reference for the oracle's rows, coverings.kernel_rows.  phi is
    given by its bits in generator order.  The transversal is {1, t}, t the
    phi = 1 generator of the largest |exponent| in any syllable (the first
    on a tie), see below.
    Schreier generators are gamma(r, x) = r x (rx-bar)^-1 for coset r in
    {0, 1} and generator x, named 'x.r'; the trivial gamma(0, t) is
    dropped, leaving 2n - 1 generators.  Each relator
    is rewritten starting at both cosets, giving 2r relators, freely reduced
    but not otherwise simplified (empty rewrites are kept).  A syllable x^k
    read from coset r rewrites in closed form when phi(x) = 0, to (x.r)^k,
    or when x = t: the coset representatives are t^0 and t^1, so t^r t^k
    t^-r' = (t^2)^q = (t.1)^q with r' = (k + r) mod 2 and q = (k + r) // 2.
    Any other x with phi(x) = 1 gives x.r x.r' ..., a letter a syllable: so
    t is h in pi_1 once phi(h) = 1 and |b| is the largest exponent, bounded
    in b.
    """
    check_epimorphism(pres, bits)
    # (|exponent|, -generator) of the largest syllable
    t = -max(((abs(exp), -gen) for word in pres.words for gen, exp in word
              if bits[gen - 1]), default=(0, -1 - bits.index(1)))[1] - 1

    names = []
    index = []  # index[x][r]: number of generator x.r (None for t.0)
    for x, base_name in enumerate(pres.generators):
        index.append([None, None])
        for r in (0, 1):
            if x == t and r == 0:
                continue
            index[x][r] = len(names) + 1
            names.append("%s.%d" % (base_name, r))

    relators = []
    for word in pres.words:
        for start in (0, 1):
            out = []
            coset = start
            for gen, exp in word:
                x = gen - 1
                if not bits[x]:
                    out.append((index[x][coset], exp))
                elif x == t:
                    out.append((index[t][1], (exp + coset) // 2))
                    coset ^= exp & 1
                elif exp > 0:
                    for _ in range(exp):
                        out.append((index[x][coset], 1))
                        coset ^= 1
                else:
                    for _ in range(-exp):
                        coset ^= 1
                        out.append((index[x][coset], -1))
            assert coset == start, "relator escaped its coset"
            relators.append(out)
    return FinitePresentation(tuple(names), tuple(relators))
