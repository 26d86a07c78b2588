"""Work bounded by the input text, not by b: an exact count of opcodes.

Every query reads b through closed forms and static per-row tables, so the
Python work of one CLI query must not grow with b at all.  A clock could
not tell an O(log b) loop from noise; the number of bytecodes that
sys.settrace reports can.  For one row of each family, at b = b0 + 24 *
10^e for e = 3, 12, 100 and 1000 (b keeps its residue mod 24, so every
branch on b's residues is the same), each of classify, h1, epis, cover,
index and involutions must run exactly as many opcodes at every e.  Each
count is of a call from cleared caches after one warm-up call of the same
query at b0, which builds what a first call builds.  Arithmetic on b
itself runs in C and is not counted; a Python loop over b's bits is, and
one added to a branch of double_cover must be caught.
"""

import gc
import sys

from nilbu import cli, double_cover, enumerate_epis, equivalence_classes, h1
from nilbu.presentation import fundamental_group

# one row of each family, at a b0 where it has an epimorphism
ROWS_AT_B0 = ["T(%d)", "K(%d)", "22(%d)", "2222(%d)", "236(%d;1,5)",
              "244(%d;1,3)", "333(%d;1,1,1)"]
B0 = {"T(%d)": 2, "K(%d)": 2, "22(%d)": 0, "2222(%d)": -1,
      "236(%d;1,5)": -1, "244(%d;1,3)": -1, "333(%d;1,1,1)": 1}
QUERIES = [["classify"], ["h1"], ["epis"], ["cover", "--phi", "0"],
           ["index", "--phi", "0"], ["involutions"]]
EXPONENTS = (3, 12, 100, 1000)


def opcodes(argv) -> int:
    """Opcodes that cli.main(argv) runs from cleared caches.

    The collector is off while counting: a collection would run the
    finalizers of other tests' garbage inside the count.
    """
    for cached in (fundamental_group, h1, enumerate_epis,
                   equivalence_classes):
        cached.cache_clear()
    gc.collect()
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    gc.disable()
    sys.settrace(trace)
    try:
        code = cli.main(argv)
    finally:
        sys.settrace(None)
        gc.enable()
    assert code == 0, argv
    return count


def varying(capsys, queries, rows) -> list:
    """(argv at b0, counts) for each query whose count changes with e."""
    found = []
    for row in rows:
        for command, *options in queries:
            def argv(b):
                return [command, row % b] + options + ["--format", "json"]
            assert cli.main(argv(B0[row])) == 0, argv(B0[row])
            counts = [opcodes(argv(B0[row] + 24 * 10 ** e))
                      for e in EXPONENTS]
            if len(set(counts)) > 1:
                found.append((argv(B0[row]), counts))
    capsys.readouterr()
    return found


def test_every_query_runs_the_same_opcodes_at_every_b(capsys):
    assert varying(capsys, QUERIES, ROWS_AT_B0) == []


def test_a_loop_over_the_bits_of_b_in_double_cover_is_caught(
        capsys, monkeypatch):
    def looping(phi):
        if phi.h:  # the branch that halves b
            for _ in range(phi.manifold.b.bit_length()):
                pass
        return double_cover(phi)

    monkeypatch.setattr(cli, "double_cover", looping)
    found = varying(capsys, [["cover", "--phi", "0"]], ROWS_AT_B0)
    assert "T(2)" in [argv[1] for argv, _ in found]
