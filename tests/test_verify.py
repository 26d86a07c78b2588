"""Every cross-check of the verify sweep is live.

For each failure line of verify_manifold, one test breaks the single route
that the check compares, for one manifold and character only, and expects
exactly that line (the involution diagram is covered in test_cli.py).
Patching a module's function reaches verify, which calls every layer through
its module.
"""

import pytest

from nilbu import (NilManifold, bu_index, char_for, coverings, epimorphisms,
                   homology, paper, verify_sweep)
from nilbu.cli import main

T1 = NilManifold("T", 1)
PHI = char_for(T1, v=(1, 0))  # in T(1)'s one class, not its representative
REP = "s=() v=(0,1) h=0"


def _break(monkeypatch, module, name, args, wrong):
    # module.name answers wrong(real answer) for these args, else as before
    real = getattr(module, name)

    def patched(*call):
        got = real(*call)
        return wrong(got) if call == args else got

    monkeypatch.setattr(module, name, patched)


CASES = {
    "h1_closed_form": (
        paper, (T1,), lambda got: (2, (5,)),
        ["T(1): h1 (2, ()) does not match closed form (2, (5,))"]),
    "h1_stated_relations": (
        paper, (T1,), lambda got: got + [{"v1": 1}],
        ["T(1): stated relation {'v1': 1} fails in H1"]),
    "expected_epi_count": (
        paper, (T1,), lambda got: got + 1,
        ["T(1): 3 epimorphisms, expected 4"]),
    "mod2_rank": (
        homology, None, lambda got: got + 1,
        ["T(1): epi count disagrees with mod-2 rank"]),
    "expected_partition_shape": (
        paper, (T1,), lambda got: (1, 2),
        ["T(1): partition shape (3,), expected (1, 2)"]),
    # the oracle checks every cover double_cover gives, so it objects too
    "double_cover": (
        coverings, (PHI,), lambda got: NilManifold("T", 3),
        ["T(1): class %s has several covers %r"
         % (REP, {NilManifold("T", 2), NilManifold("T", 3)}),
         "T(1): oracle rejects cover T(3) for s=() v=(1,0) h=0"]),
    "z2_index": (
        bu_index, (PHI,), lambda got: 2,
        ["T(1): class %s has several indices {1, 2}" % REP]),
    "verify_cover": (
        coverings, (PHI, NilManifold("T", 2)), lambda got: False,
        ["T(1): oracle rejects cover T(2) for s=() v=(1,0) h=0"]),
    "index_one_case": (
        paper, (T1, PHI), lambda got: None,
        ["T(1): index-1 criterion vs catalog mismatch for s=() v=(1,0) h=0"]),
    "index_three_case": (
        paper, (T1, PHI), lambda got: "class T",
        ["T(1): index-3 criterion vs catalog mismatch for s=() v=(1,0) h=0"]),
}


@pytest.mark.parametrize("name", CASES)
def test_broken_route_gives_its_failure_line(monkeypatch, name):
    module, args, wrong, lines = CASES[name]
    if args is None:  # mod2_rank reads T(1)'s group, not T(1)
        args = (homology.h1(T1),)
    _break(monkeypatch, module, name, args, wrong)
    report = verify_sweep(0)
    assert report["ok"] is False
    assert report["failures"] == lines


def test_verify_exits_two_on_a_broken_oracle(monkeypatch, capsys):
    module, args, wrong, lines = CASES["verify_cover"]
    _break(monkeypatch, module, "verify_cover", args, wrong)
    assert main(["verify", "--b-max", "0"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == lines[0] and out[-1] == "FAILURES: 1"


def test_classes_sharing_a_cover_are_reported(monkeypatch):
    # without its shears T(1)'s one class of three falls apart into three
    # classes, all covered by T(2): the partition is then too fine
    monkeypatch.setitem(epimorphisms._FAMILY_MOVES, "T", ())
    for b in (1, 2):  # the T rows of the table, rebuilt without the shears
        monkeypatch.setitem(epimorphisms._MOD2, ("T", (), b % 2),
                            epimorphisms._mod2_layer(NilManifold("T", b)))
    epimorphisms.equivalence_classes.cache_clear()
    try:
        failures = verify_sweep(0)["failures"]
    finally:
        epimorphisms.equivalence_classes.cache_clear()
    assert ("T(1): classes s=() v=(0,1) h=0 and s=() v=(1,0) h=0 "
            "share cover T(2)") in failures
    assert ("T(1): classes s=() v=(0,1) h=0 and s=() v=(1,1) h=0 "
            "share cover T(2)") in failures
