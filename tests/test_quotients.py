"""The pruned search of quotients_of against the exhaustive reference.

helpers.quotients_of tries every class of every base that the Euler number
allows.  nilbu's quotients_of skips family rows by lcm(a_i) and classes by
their h-bit, and builds only each class's representative; both must find
the same descriptors (base, phi bits, index), and the pruned search may only
try candidates that obey both rules.
"""

import pytest

import helpers
from nilbu import (NilManifold, coverings, enumerate_epis, equivalence_classes,
                   euler_number, quotients_of, sweep)
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _descriptors(found):
    return [(d.base, d.phi.bits, d.cover, d.index) for d in found]


def test_pruned_search_matches_reference():
    for m in sweep(64):
        assert _descriptors(quotients_of(m)) == \
            _descriptors(helpers.quotients_of(m)), m


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


@settings(max_examples=60, deadline=None)
@given(st.one_of(large_manifolds(), large_covers()))
def test_pruned_search_matches_reference_at_large_b(m):
    assert _descriptors(quotients_of(m)) == _descriptors(helpers.quotients_of(m))


def test_search_tries_only_candidates_that_obey_both_rules(monkeypatch):
    bases, covers = [], []
    representatives_of = coverings.class_representatives
    cover_of = coverings.double_cover

    def recording_representatives(base):
        bases.append(base)
        return representatives_of(base)

    def recording_cover(phi):
        cover = cover_of(phi)
        covers.append(cover)
        return cover

    monkeypatch.setattr(coverings, "class_representatives",
                        recording_representatives)
    monkeypatch.setattr(coverings, "double_cover", recording_cover)
    for m in sweep(16):
        bases.clear()
        covers.clear()
        quotients_of(m)
        lcm = m.row.lcm
        assert all(n.row.lcm in (lcm, 2 * lcm) for n in bases), m
        e = euler_number(m.seifert())
        assert all(euler_number(c.seifert()) == e for c in covers), m


def test_search_builds_no_partition_and_no_epimorphism_list():
    calls = [(f.cache_info().hits, f.cache_info().misses)
             for f in (enumerate_epis, equivalence_classes)]
    for m in sweep(16):
        quotients_of(m)
    assert calls == [(f.cache_info().hits, f.cache_info().misses)
                     for f in (enumerate_epis, equivalence_classes)]
