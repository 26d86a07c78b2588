"""Queries at b up to 10^12: no word, matrix or loop may grow with b.

Words are syllables, so h^-b is one syllable at any b.  These tests run
every independent route at b far beyond what a letter-by-letter word could
hold: a regression to an O(b) path would not finish.
"""

import json

import pytest

from nilbu import (NilManifold, double_cover, enumerate_epis,
                   expected_quotient_diagram, h1, h1_closed_form,
                   parse_manifold, quotients_of, verify_cover)
from nilbu.cli import main
from nilbu.seifert import ROWS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

B = 10 ** 12


@st.composite
def large_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, B)), betas)


@settings(max_examples=60, deadline=None)
@given(large_manifolds())
def test_oracle_and_closed_forms_at_large_b(m):
    for phi in enumerate_epis(m):
        assert verify_cover(phi, double_cover(phi)), phi
    assert h1(m).decomposition == h1_closed_form(m)
    got = tuple((d.base, d.index) for d in quotients_of(m))
    assert got == expected_quotient_diagram(m)


# one row of each of the seven families, each with an epimorphism at b = B
ROWS_AT_B = ["T(%d)" % B, "K(%d)" % B, "22(%d)" % B, "2222(%d)" % B,
             "236(%d;1,5)" % B, "244(%d;1,3)" % B, "333(%d;1,1,2)" % B]


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr()
    assert out.err == ""
    return code, json.loads(out.out)


@pytest.mark.parametrize("text", ROWS_AT_B)
def test_cli_at_b_ten_to_the_twelve(capsys, text):
    m = parse_manifold(text)
    code, obj = run_json(capsys, "h1", text)
    assert code == 0
    assert (obj["h1"]["free_rank"], tuple(obj["h1"]["torsion"])) \
        == h1_closed_form(m)
    code, obj = run_json(capsys, "cover", text, "--phi", "0")
    assert code == 0 and obj["verified"] is True
    assert obj["cover"] == double_cover(enumerate_epis(m)[0]).encode()
    code, obj = run_json(capsys, "index", text, "--phi", "0")
    assert code == 0 and obj["index"] in (1, 2, 3)
    code, obj = run_json(capsys, "involutions", text)
    assert code == 0
    assert [(d["base"], d["index"]) for d in obj["quotients"]] \
        == [(base.encode(), index)
            for base, index in expected_quotient_diagram(m)]
