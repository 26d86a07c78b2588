"""The per-row tables that stand in for a manifold's presentation.

pi_1 of a Nil manifold sees b only through the syllable h^-b of the section
relator, so homology._RELATIONS, built at import from
presentation._ROW_PARTS with one entry per family row, gives what the
presentation gave: it holds H1's relation matrix at b = 0, and
relation_matrix(m) subtracts b at (h, section relator).  It must equal the
transposed helpers.exponent_matrix(fundamental_group(m)) entry by entry, so
h1(m) equals helpers.abelianization(fundamental_group(m)), generator images
too.

The characters need no table of their own: epimorphisms.check_character(m,
bits) accepts the bits exactly when they are an epimorphism of m's row and
parity in epimorphisms._MOD2.  It must raise what
check_epimorphism(fundamental_group(m), bits) raises, with the same message,
for every assignment, well formed or not, at b_min, b_min + 1, 10^12 and
10^12 + 1 of every row; a mutant that looks up b's parity wrong must be
caught, and a table that misses an epimorphism must raise AssertionError.
A bit tuple is a key of the oracle's table, coverings._KERNEL, exactly when
check_epimorphism accepts it on m's presentation at either parity of b.

Neither h1 nor the character check builds a presentation, so a sweep builds
none, and neither does the import that builds the tables: a fresh
interpreter constructs no FinitePresentation and calls no
fundamental_group through import nilbu.cli and the whole CLI corpus.
"""

import inspect
import os
import subprocess
import sys
from itertools import product

import pytest

from nilbu import (FinitePresentation, NilManifold, NotAHomomorphism,
                   Z2Char, check_epimorphism, coverings, enumerate_epis,
                   epimorphisms, equivalence_classes, fundamental_group, h1,
                   homology, verify_sweep)
from nilbu.epimorphisms import check_character
from nilbu.homology import relation_matrix
from nilbu.seifert import NilError, ROWS

from helpers import abelianization, exponent_matrix

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FAR = 10 ** 12


def manifolds(b_max):
    @st.composite
    def draw_manifold(draw):
        (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
        return NilManifold(family, draw(st.integers(row.b_min, b_max)), betas)
    return draw_manifold()


def check_h1(m):
    pres = fundamental_group.__wrapped__(m)
    R = exponent_matrix(pres)
    assert [list(row) for row in relation_matrix(m)] \
        == [list(column) for column in zip(*R)], m
    group, expected = h1(m), abelianization(pres)
    assert group == expected, m
    assert list(group.gen_images.items()) \
        == list(expected.gen_images.items()), m


def test_relation_matrix_and_h1_match_the_presentation():
    assert len(homology._RELATIONS) == len(ROWS) == 15
    for (family, betas), row in ROWS.items():
        for b in (*range(row.b_min, row.b_min + 5), FAR, FAR + 1):
            check_h1(NilManifold(family, b, betas))


@settings(deadline=None)
@given(manifolds(FAR))
def test_relation_matrix_and_h1_at_large_b(m):
    check_h1(m)


def outcome(check, *args):
    try:
        check(*args)
    except (NilError, AssertionError) as err:
        return type(err), str(err)
    return None


def assignments(n):
    """Every 0/1 tuple of length n - 1, n and n + 1, and tuples of length n
    holding True or 2 in one place, among 0s or among the bits of an
    epimorphism."""
    for length in (n - 1, n, n + 1):
        yield from product((0, 1), repeat=length)
    for base in ((0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)):
        for i in range(n):
            for value in (True, 2):
                yield base[:i] + (value,) + base[i + 1:]


def disagreements(check):
    """(m, bits, got, expected) wherever check(m, bits) and
    check_epimorphism on m's presentation differ, at two small and two
    large b of either parity of every row."""
    found = []
    for (family, betas), row in ROWS.items():
        for b in (row.b_min, row.b_min + 1, FAR, FAR + 1):
            m = NilManifold(family, b, betas)
            pres = fundamental_group.__wrapped__(m)
            for bits in assignments(len(pres.generators)):
                got = outcome(check, m, bits)
                expected = outcome(check_epimorphism, pres, bits)
                if got != expected:
                    found.append((m, bits, got, expected))
    return found


def test_character_check_matches_the_presentation():
    assert disagreements(check_character) == []


def test_kernel_keys_are_the_accepted_characters():
    # cover M --phi looks a checked character up in coverings._KERNEL, so
    # a bit tuple is a key exactly when it is a character at either parity;
    # the characters come from the presentations, not from _MOD2, which
    # keys the table
    accepted = set()
    for (family, betas), row in ROWS.items():
        for b in (row.b_min, row.b_min + 1):
            pres = fundamental_group.__wrapped__(NilManifold(family, b, betas))
            for bits in product((0, 1), repeat=len(pres.generators)):
                if outcome(check_epimorphism, pres, bits) is None:
                    accepted.add((family, betas, bits))
    assert set(coverings._KERNEL) == accepted


def test_character_check_names_the_odd_relator():
    m = NilManifold("T", 3)
    assert outcome(check_character, m, (0, 0, 1)) == (
        NotAHomomorphism, "relator v1 v2 v1^-1 v2^-1 h^-3 has odd image")


def test_a_check_blind_to_the_parity_of_b_is_caught():
    source = inspect.getsource(check_character)
    assert source.count("m.b % 2") == 1
    namespace = dict(vars(epimorphisms))
    exec(source.replace("m.b % 2", "0"), namespace)
    found = disagreements(namespace["check_character"])
    assert found
    assert all(m.b % 2 for m, _, _, _ in found)


def test_a_table_missing_an_epimorphism_is_caught(monkeypatch):
    m = NilManifold("T", 3)
    key = m.family, m.betas, m.b % 2
    epis, orbits = epimorphisms._MOD2[key]
    monkeypatch.setitem(epimorphisms._MOD2, key, (epis[1:], orbits))
    Z2Char(m, epis[1])
    with pytest.raises(AssertionError, match="misses the epimorphism"):
        Z2Char(m, epis[0])


def test_a_sweep_builds_no_presentation(monkeypatch):
    built = []
    init = FinitePresentation.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    for cached in (fundamental_group, h1, enumerate_epis,
                   equivalence_classes):
        cached.cache_clear()
    monkeypatch.setattr(FinitePresentation, "__init__", counting)
    assert verify_sweep(16)["ok"]
    assert built == []
    fundamental_group(NilManifold("T", 2))  # the counter sees a build
    assert len(built) == 1


# counts, in a fresh interpreter, the FinitePresentation constructions and
# the fundamental_group calls (cache misses; a hit follows a miss) through
# import nilbu.cli, and then through a digest of the CLI corpus
_COUNT_BUILDS = """
import os, sys
counts = [0, 0]
PRESENTATION = os.path.join("nilbu", "presentation.py")
def profile(frame, event, arg):
    code = frame.f_code
    if event != "call" or not code.co_filename.endswith(PRESENTATION):
        return
    if code.co_name == "fundamental_group":
        counts[1] += 1
    elif (code.co_name == "__init__" and type(frame.f_locals["self"]).__name__
          == "FinitePresentation"):
        counts[0] += 1
sys.setprofile(profile)
import nilbu.cli
sys.setprofile(None)
print(*counts)
import cli_corpus
corpus = cli_corpus.argv_corpus()
counts[:] = [0, 0]
sys.setprofile(profile)
digest = cli_corpus.digest(corpus)
sys.setprofile(None)
print(*counts, digest)
"""


def test_the_runtime_builds_no_presentation():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(epimorphisms.__file__))
    out = subprocess.run([sys.executable, "-c", _COUNT_BUILDS], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join((src, tests))))
    assert out.stdout == "0 0\n0 0 96084500621ba7f22fe051d03cb7424d\n"
