"""The names that the benchmark harness pins in the package.

perfbench/spans.py and perfbench/workloads.py reach into nilbu by name, and
the benchmark files may change only in a change to the benchmark itself.  A
refactor that removes or reshapes one of these names breaks the benchmark;
this test makes it fail in tier-1 instead of in perfbench/selftest.py.

* spans.TRACED names each traced function, and Tracer.install fetches every
  entry with getattr.  Among them epimorphisms.validate_char (ROADMAP item 1
  deletes it), presentation.reidemeister_schreier (the word-level rewriting,
  kept as the reference of the oracle's kernel_rows; no sweep calls it, so
  the test calls it through the module) and the layers that item 12's stats
  layer would count in the tracer's place.
* Tracer.install wraps a traced name only where nilbu or one of the seven
  modules in spans.LAYERS binds it, and nilbu.paper is not among them.  So
  the catalogs in paper call epimorphisms.validate_char through the module:
  a validate_char imported into paper would escape the wrapper, and the
  sweep below would count no validate_char call.
* Tracer._observe_fundamental_group and _observe_reidemeister_schreier read
  result.relators (item 1 would count syllables instead).
* spans.CACHED names the four lru-cached functions, fundamental_group, h1,
  enumerate_epis and equivalence_classes, and cached_functions() and
  clear_caches() need their cache_clear; the tracer's wrapper reads
  cache_info.  All four are bounded at presentation._BOUND entries.  The
  static tables built at import, presentation._ROW_PARTS,
  homology._RELATIONS, homology._H1, epimorphisms._MOD2 and
  coverings._KERNEL, are no lru caches: clear_caches() leaves them, as a
  fresh process has them.  Since h1 and the character check read those
  tables, a sweep builds no presentation, and fundamental_group's counts
  come from the test's own calls.
* workloads.check_claim calls nilbu.index_one_case(m, phi) and
  nilbu.index_three_case(m, phi) with the pair (item 1 drops the m), and
  the other five transcriptions, all by the names that nilbu re-exports
  from nilbu.paper; perfbench/selftest.py patches two of them there.
"""

import os
import sys

import pytest

from nilbu import NilManifold, cli, enumerate_epis, presentation, verify_sweep

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    spans.clear_caches()  # so that every traced layer runs
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        spans.clear_caches()


def test_tracer_installs_and_reads_a_sweep(tracer):
    assert verify_sweep(0)["ok"]
    # the sweep builds no presentation, and its oracle no kernel
    # presentation; the tracer wraps the module's fundamental_group and
    # reidemeister_schreier, so call them there: pi_1 of one manifold once
    # as a miss and once as a hit, and the rewriting on one pair
    m = NilManifold("T", 2)
    phi = enumerate_epis(m)[0]
    presentation.fundamental_group(m)
    pres = presentation.fundamental_group(m)
    presentation.reidemeister_schreier(pres, phi.bits)
    summary = tracer.summary()
    assert summary["presentation.relator_letters"][0] > 0
    assert summary["presentation.rs_relator_letters"][0] > 0
    assert summary["epimorphisms.validate_char.calls"][0] > 0
    assert summary["fundamental_group.hit_ratio"][0] > 0


def test_cached_functions_can_be_cleared():
    functions = spans.cached_functions()
    assert len(functions) == len(spans.CACHED)
    assert all(hasattr(fn, "cache_clear") for fn in functions)


def test_index_claim_is_checked_with_the_catalogs():
    query = workloads.Query("index", ["index", "T(2)", "--phi", "3",
                                      "--format", "json"], "T", 2, ())
    _, rc, text = workloads.call_main(cli.main, query)
    claim = workloads.claim_of(query, rc, text)
    assert claim is not None and workloads.check_claim(query, claim)
