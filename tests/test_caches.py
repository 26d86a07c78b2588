"""Every nilbu cache and table stays bounded however deep the sweep goes.

fundamental_group, enumerate_epis and equivalence_classes keep at most
_BOUND entries, and every manifold's characters share the bit tuples of the
mod-2 table, which is built at import with one entry per family row and
parity of b and never grows.  So is the oracle's kernel table,
presentation._KERNEL, built at import beside the family rows' relators in
presentation._ROW_PARTS, with one entry per family row and character of
its relators but the section relator, 73 in all.  h1 is the one unbounded
cache: z2_index and the oracle read H1 of the same covers and bases again
across queries, and at that bound a warm query stream missed 4.3 times as
often and ran 18% slower.  Outside the caches, the memory that a sweep
holds while it runs and frees by its return does not grow with depth
either.
"""

import os
import subprocess
import sys
import tracemalloc

from nilbu import (NilManifold, enumerate_epis, epimorphisms,
                   equivalence_classes, fundamental_group, h1, presentation,
                   verify_sweep)
from nilbu.presentation import _BOUND


def test_caches_stay_bounded_through_deeper_sweeps():
    for cached in (fundamental_group, h1, enumerate_epis,
                   equivalence_classes):
        cached.cache_clear()
    assert len(presentation._KERNEL) == 73
    for depth in (16, 64):
        assert verify_sweep(depth)["ok"], depth
        for bounded in (fundamental_group, enumerate_epis,
                        equivalence_classes):
            assert bounded.cache_info().currsize <= _BOUND, depth
        assert len(epimorphisms._MOD2) == 30, depth
        assert len(presentation._KERNEL) == 73, depth
        near = enumerate_epis(NilManifold("T", 2))
        far = enumerate_epis(NilManifold("T", 10 ** 12))
        assert len(near) == len(far) == 7, depth
        assert all(a.bits is b.bits for a, b in zip(near, far)), depth


def test_import_fills_no_cache():
    src = os.path.dirname(os.path.dirname(epimorphisms.__file__))
    code = ("import nilbu; print(*(f.cache_info().currsize for f in "
            "(nilbu.fundamental_group, nilbu.h1, nilbu.enumerate_epis, "
            "nilbu.equivalence_classes)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0 0 0 0\n"


def _transient(depth):
    # the traced peak of verify_sweep(depth) minus the traced size at return
    tracemalloc.start()
    try:
        report = verify_sweep(depth)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["ok"], depth
    return peak - size


def test_sweep_memory_outside_the_caches_does_not_grow_with_depth():
    for depth in (16, 64):  # fill the caches first
        verify_sweep(depth)
    assert _transient(64) - _transient(16) < 64 * 1024
