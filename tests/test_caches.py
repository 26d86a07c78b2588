"""Every nilbu cache and table stays bounded however deep the sweep goes.

fundamental_group, h1, enumerate_epis and equivalence_classes keep at most
_BOUND entries, and every manifold's characters share the bit tuples of the
mod-2 table, which is built at import with one entry per family row and
parity of b and never grows.  So is the oracle's kernel table,
coverings._KERNEL, built at import from the family rows' relators in
presentation._ROW_PARTS, with one entry per family row and epimorphism
at either parity of b, 41 in all, each holding the rows of the relators
but the section relator already diagonalized.  So are the tables that stand
in for a manifold's presentation in homology, built at import from the same
relators with one entry per family row, 15 in all: _RELATIONS, H1's
relation matrix at b = 0, and _H1, its fixed rows diagonalized.  h1 is
bounded too: the oracle and z2_index read H1 of covers and bases from _H1,
so only verify's own check of a manifold and nilbu h1 run h1, and none
reads an entry again within a query; unbounded, h1 held all of a
depth-1024 verify's growth (peak RSS 34.4 MB, against 16.0 MB bounded).
Outside the caches, the memory that a sweep holds while it runs and frees
by its return does not grow with depth either.
"""

import os
import subprocess
import sys
import tracemalloc

from nilbu import (NilManifold, coverings, enumerate_epis, epimorphisms,
                   equivalence_classes, fundamental_group, h1, homology,
                   verify_sweep)
from nilbu.presentation import _BOUND


def test_caches_stay_bounded_through_deeper_sweeps():
    for cached in (fundamental_group, h1, enumerate_epis,
                   equivalence_classes):
        cached.cache_clear()
    assert len(coverings._KERNEL) == 41
    for depth in (16, 64):
        assert verify_sweep(depth)["ok"], depth
        for bounded in (fundamental_group, h1, enumerate_epis,
                        equivalence_classes):
            assert bounded.cache_info().currsize <= _BOUND, depth
        assert len(epimorphisms._MOD2) == 30, depth
        assert len(coverings._KERNEL) == 41, depth
        assert len(homology._RELATIONS) == 15, depth
        assert len(homology._H1) == 15, depth
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
