"""The rule table of quotients_of against the exhaustive reference.

helpers.quotients_of tries every class of every base that the Euler number
allows and sends each through double_cover.  nilbu's quotients_of reads
coverings._RULES, double_cover inverted once at import into 42 affine rules
keyed by the cover's row, and solves one divmod per rule.  Both must find the
same descriptors (base, phi bits, cover, index); no double_cover and no
class_representatives runs after import; and a rule with its b0' or its step
moved by one is caught by the reference comparison.
"""

from collections import Counter

import pytest

import helpers
from nilbu import (NilManifold, coverings, enumerate_epis, equivalence_classes,
                   quotients_of, sweep)
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _descriptors(found):
    return [(d.base, d.phi.bits, d.cover, d.index) for d in found]


def _mismatches(manifolds):
    return [m for m in manifolds if _descriptors(quotients_of(m))
            != _descriptors(helpers.quotients_of(m))]


def test_pruned_search_matches_reference():
    assert _mismatches(sweep(256)) == []


@st.composite
def large_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, 10 ** 12)), betas)


@st.composite
def large_covers(draw):
    # a random manifold is rarely a double cover; the cover of a random
    # base and class always is
    base = draw(large_manifolds())
    classes = equivalence_classes(base).classes
    if not classes:
        return base
    rep = draw(st.sampled_from(classes)).representative
    return coverings.double_cover(rep)


@settings(deadline=None)  # examples from the profile: 1000 under ci
@given(st.one_of(large_manifolds(), large_covers()))
def test_pruned_search_matches_reference_at_large_b(m):
    assert _descriptors(quotients_of(m)) == _descriptors(helpers.quotients_of(m))


def test_no_double_cover_runs_after_import(monkeypatch):
    def refuse(*args):
        raise AssertionError("called after import")

    expected = [_descriptors(quotients_of(m)) for m in sweep(16)]
    monkeypatch.setattr(coverings, "double_cover", refuse)
    monkeypatch.setattr(coverings, "class_representatives", refuse)
    assert [_descriptors(quotients_of(m)) for m in sweep(16)] == expected
    assert any(expected)


def test_the_table_holds_42_rules():
    rules = [rule for rules in coverings._RULES.values() for rule in rules]
    assert len(rules) == 42
    assert Counter(rule[0] for rule in rules) == {
        "T": 3, "K": 5, "22": 4, "2222": 4, "236": 8, "244": 14, "333": 4}


def _mutants():
    # the table with one rule's b0' (field 4) or step (field 5) moved by one;
    # a step of 0 is left out, since divmod by 0 raises at once
    for target, rules in sorted(coverings._RULES.items()):
        for i, rule in enumerate(rules):
            for field in (4, 5):
                for delta in (-1, 1):
                    if field == 5 and rule[field] + delta == 0:
                        continue
                    mutant = list(rule)
                    mutant[field] += delta
                    yield target, {**coverings._RULES, target: (
                        rules[:i] + (tuple(mutant),) + rules[i + 1:])}


def test_a_rule_moved_by_one_is_caught(monkeypatch):
    uncaught = []
    for (family, betas), table in _mutants():
        monkeypatch.setattr(coverings, "_RULES", table)
        b_min = ROWS[family, betas].b_min
        if not _mismatches(NilManifold(family, b, betas)
                           for b in range(b_min, b_min + 17)):
            uncaught.append(table[family, betas])
    assert uncaught == []


def test_search_builds_no_partition_and_no_epimorphism_list():
    calls = [(f.cache_info().hits, f.cache_info().misses)
             for f in (enumerate_epis, equivalence_classes)]
    for m in sweep(16):
        quotients_of(m)
    assert calls == [(f.cache_info().hits, f.cache_info().misses)
                     for f in (enumerate_epis, equivalence_classes)]
