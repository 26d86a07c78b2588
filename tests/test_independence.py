"""The cross-checked routes share no arithmetic that decides the answer.

Each criterion of verify_manifold compares two routes.  For every pair of
routes this test records, with sys.setprofile (this thread of this process
only), the nilbu code objects each route runs over every manifold of
sweep(6), or every (m, phi) pair on it, and asserts that the code both
routes run lies within ALLOWED.  Every lru cache is cleared before each
route's run, so a cache can only hide from a route code that the route
itself already ran on an earlier sample.  A nested code object (a genexpr
or lambda) is named by the function that holds it.  Every transcribed route
lives in nilbu.paper; test_paper_imports.py holds that split over every
branch by import rules, and this test checks the helpers the routes share.
"""

import inspect
import os
import sys

import pytest

import nilbu
from nilbu import (bu_index, coverings, epimorphisms, homology, paper,
                   presentation, seifert)

# shared code that may run on both routes: name -> why it decides nothing
ALLOWED = {
    "epimorphisms.Z2Char.h": "reads the character's bit on h",
    "epimorphisms.Z2Char.s": "reads the character's bits on the cone sections",
    "epimorphisms._shape": "the family's generator counts, by which Z2Char.s "
                           "slices the bits",
    "seifert.NilManifold.__init__": "builds and checks a manifold value",
    "seifert._check_ints": "rejects a record's argument that is not an int",
    "seifert.NilManifold.encode": "prints a manifold; both diagrams sort by it",
}

# (route, route) per criterion; a route takes (m, phi) or m
PAIR_ROUTES = {
    "oracle": (lambda m, phi: coverings.double_cover(phi),
               lambda m, phi: coverings.verify_cover(phi, COVERS[phi])),
    "index 1": (lambda m, phi: bu_index.index_is_one(phi),
                paper.index_one_case),
    "index 3": (lambda m, phi: bu_index.cup_cube_nonzero(phi),
                paper.index_three_case),
}
MANIFOLD_ROUTES = {
    "h1": (homology.h1, paper.h1_closed_form),
    "epi count": (epimorphisms.enumerate_epis, paper.expected_epi_count),
    "partition": (epimorphisms.equivalence_classes,
                  paper.expected_partition_shape),
    "diagram": (coverings.quotients_of, paper.expected_quotient_diagram),
}

CACHED = (presentation.fundamental_group, homology.h1,
          epimorphisms.enumerate_epis, epimorphisms.equivalence_classes)
MANIFOLDS = list(seifert.sweep(6))
PAIRS = [(m, phi) for m in MANIFOLDS for phi in epimorphisms.enumerate_epis(m)]
COVERS = {phi: coverings.double_cover(phi) for _, phi in PAIRS}
PACKAGE = os.path.dirname(nilbu.__file__) + os.sep


def _names():
    # every nilbu code object -> "module.qualname" of the function holding it
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if inspect.iscode(const):
                add(const, name)

    for module in (bu_index, coverings, epimorphisms, homology, paper,
                   presentation, seifert):
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                func = inspect.unwrap(getattr(member, "fget", member))
                if inspect.isfunction(func):
                    add(func.__code__, "%s.%s" % (short, func.__qualname__))
    return names


NAMES = _names()


def _ran(route, samples):
    """The nilbu code objects that route runs on samples from cold caches."""
    for fn in CACHED:
        fn.cache_clear()
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for args in samples:
            route(*args)
    finally:
        sys.setprofile(previous)
    assert seen, "the profile hook saw no nilbu code"
    return seen


def _shared(routes, samples):
    first, second = routes
    shared = _ran(first, samples) & _ran(second, samples)
    return {NAMES.get(code, code.co_name) for code in shared}


@pytest.mark.parametrize("criterion", PAIR_ROUTES)
def test_pair_routes_share_no_arithmetic(criterion):
    assert _shared(PAIR_ROUTES[criterion], PAIRS) - set(ALLOWED) == set()


@pytest.mark.parametrize("criterion", MANIFOLD_ROUTES)
def test_manifold_routes_share_no_arithmetic(criterion):
    samples = [(m,) for m in MANIFOLDS]
    assert _shared(MANIFOLD_ROUTES[criterion], samples) - set(ALLOWED) == set()


def test_a_shared_helper_is_seen():
    # both index-3 routes read phi.s, so the recording does see shared code
    m, phi = next((m, phi) for m, phi in PAIRS if m.family == "244")
    assert "epimorphisms.Z2Char.s" in _shared(PAIR_ROUTES["index 3"],
                                              [(m, phi)])
