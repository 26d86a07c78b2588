"""The orbit closure over bit tuples against the character-level reference.

helpers.equivalence_classes closes orbits through apply_move, building and
checking a character for every image.  nilbu's equivalence_classes reads the
orbits of the manifold's row and parity from a table built at import by
epimorphisms._mod2_layer, which works on bit tuples and looks each image up
among the epimorphisms; both must give the same partition, and an image
outside them must be an error.
"""

import pytest

import helpers
from nilbu import InvalidCharacter, NilManifold, equivalence_classes
from nilbu import epimorphisms
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def test_partition_matches_reference(sweep16):
    for m in sweep16:
        assert equivalence_classes(m) == helpers.equivalence_classes(m), m


@st.composite
def large_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, 10 ** 12)), betas)


@settings(max_examples=60, deadline=None)
@given(large_manifolds())
def test_partition_matches_reference_at_large_b(m):
    # the wrapped function, so that no cached partition stands in for it
    assert equivalence_classes.__wrapped__(m) == helpers.equivalence_classes(m)


def test_image_outside_the_epimorphisms_raises(monkeypatch):
    # the zero map is a homomorphism but not onto Z2
    monkeypatch.setattr(epimorphisms, "_move_bits",
                        lambda bits, move, m: (0,) * len(bits))
    with pytest.raises(InvalidCharacter):
        epimorphisms._mod2_layer(NilManifold("T", 2))
    # on T(3) the relator v1 v2 v1^-1 v2^-1 h^-3 has odd image when phi(h) = 1
    monkeypatch.setattr(epimorphisms, "_move_bits",
                        lambda bits, move, m: (0, 1, 1))
    with pytest.raises(InvalidCharacter):
        epimorphisms._mod2_layer(NilManifold("T", 3))
