"""The per-row H1 table that spares the Smith loop off the nilbu h1 path.

homology._H1 holds, for each family row, an affine_entry: the fixed
relators' exponent-sum rows diagonalized once and the section relator's
row replayed through the column operations C, as u - b v.
h1_invariants(m) must equal h1(m).decomposition, and kills_torsion(m,
bits) must equal the Smith reference
helpers.torsion_subgroup_killed_by(bits, h1(m)), on every manifold and
pair of sweep(256) and at b up to 10^12.  A kills_torsion
that skips the division by gcd(a), and a table whose v skips the replay of
C, must be caught.  After import, verify_sweep runs the Smith loop once per
manifold, for verify's own reading of h1(m), and the cover, index and
involutions queries and nilbu table run it not at all.
"""

import pytest

from nilbu import (NilManifold, cli, enumerate_epis, h1, homology,
                   verify_sweep)
from nilbu.homology import h1_invariants, kills_torsion
from nilbu.seifert import ROWS, sweep

from helpers import torsion_subgroup_killed_by

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FAR = 10 ** 12


def mismatches(manifolds):
    """(m, bits or None) where the table disagrees with Smith's h1."""
    found = []
    for m in manifolds:
        group = h1.__wrapped__(m)
        if h1_invariants(m) != group.decomposition:
            found.append((m, None))
        for phi in enumerate_epis(m):
            if kills_torsion(m, phi.bits) \
                    != torsion_subgroup_killed_by(phi.bits, group):
                found.append((m, phi.bits))
    return found


def test_the_table_matches_smith_on_the_sweep():
    assert len(homology._H1) == 15
    assert mismatches(sweep(256)) == []


@st.composite
def far_manifolds(draw):
    (family, betas), row = draw(st.sampled_from(sorted(ROWS.items())))
    return NilManifold(family, draw(st.integers(row.b_min, FAR)), betas)


@settings(deadline=None)  # examples from the profile: 1000 under ci
@given(far_manifolds())
def test_the_table_matches_smith_at_large_b(m):
    assert mismatches([m]) == []


def test_kills_torsion_without_the_division_by_gcd_is_caught(monkeypatch):
    # gcd(a) read as 1 wherever a != 0: phi(h) = 1 then kills the torsion
    # Z_b of T(b) whenever b is even; row_invariants reads the same gcd, so
    # only the pairs count here
    monkeypatch.setattr(homology, "gcd", lambda x, y: 1 if x or y else 0)
    found = [m for m, bits in mismatches(sweep(16)) if bits is not None]
    assert {m.b % 2 for m in found if m.family == "T"} == {0}


def test_a_table_whose_v_skips_the_replay_is_caught(monkeypatch):
    table = {}
    for key, (entry, pivots, free) in homology._H1.items():
        count, torsion, ((u, _),) = entry
        _, fixed, _, h = homology._ROW_PARTS[key]
        diag, _ = homology.diagonalize(
            [homology._exponents(word) for word in fixed])
        unreplayed = {} if diag.get(h - 1) == 1 else {h - 1: 1}
        table[key] = ((count, torsion, ((u, unreplayed),)), pivots, free)
    monkeypatch.setattr(homology, "_H1", table)
    assert mismatches(sweep(16))


@pytest.fixture
def smith_calls(monkeypatch):
    calls = []
    smith = homology.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return smith(matrix)

    h1.cache_clear()
    monkeypatch.setattr(homology, "smith_normal_form", counting)
    yield calls
    h1.cache_clear()


def test_verify_runs_smith_once_per_manifold(smith_calls):
    report = verify_sweep(16)
    assert report["ok"]
    assert len(smith_calls) == report["manifolds"] == 255


def test_cover_index_and_involutions_run_no_smith(smith_calls, capsys):
    argvs = [["table", "--b-max", "16"]]  # it prints only the invariants
    for m in sweep(4):
        text = m.encode()
        argvs.append(["involutions", text])
        if enumerate_epis(m):
            argvs += [["cover", text, "--phi", "0"],
                      ["index", text, "--phi", "0"]]
    for argv in argvs:
        assert cli.main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    assert smith_calls == []
