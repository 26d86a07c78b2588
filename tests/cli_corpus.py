"""A fixed argv corpus over the whole command line, and the md5 that pins it.

The corpus runs every query subcommand on every family row at b_min..b_min+4,
10^12 and 10^12 + 1: classify, h1, epis and involutions, and cover and index
with --phi 0..7 (an index past the last epimorphism is an error line, which
is pinned too), plus a few SF(...) inputs to classify, table --b-max 40 and
verify --b-max 3, each in text and in JSON.  argparse usage errors are left
out, because their text changes between Python versions, and so are
integers near the interpreter's int/str digit limit (near_limit_rows and
near_limit_overflows), because what they print depends on that limit.

digest() runs each argv through cli.main in this process and hashes (argv,
stdout, stderr, exit code) of all of them in order.  Run as a script, it
prints the argv count and the digest:

    PYTHONPATH=src python tests/cli_corpus.py
"""

import contextlib
import hashlib
import io

from nilbu import NilManifold, sweep
from nilbu.cli import main

QUERIES = ("classify", "h1", "epis", "involutions")
PHI_QUERIES = ("cover", "index")
PHIS = range(8)
FORMATS = ("text", "json")

# loose or foreign Seifert data: chi != 0, e = 0, e < 0, unnormalized pairs
SEIFERT_INPUTS = (
    "SF(0; +1; 0; (2,1)(3,1)(6,5))",
    "SF(-1; +1; 0; (2,1)(3,1)(6,5))",
    "SF(-2; +1; 0; (2,1)(3,1)(6,5))",
    "SF(3; +1; 0; (2,3)(3,-2)(6,7))",
    "SF(1; +1; 0; (2,1)(3,1)(5,1))",
    "SF(0; +1; 2; )",
    "SF(4; -1; 2; (1,3))",
)


def manifolds():
    """Every family row at b_min..b_min+4, 10^12 and 10^12 + 1."""
    for m in sweep(0):
        for b in [m.b + k for k in range(5)] + [10 ** 12, 10 ** 12 + 1]:
            yield NilManifold(m.family, b, m.betas)


def argv_corpus():
    """The corpus, in a fixed order, each argv a list of strings."""
    corpus = []
    for m in manifolds():
        text = m.encode()
        for fmt in FORMATS:
            corpus += [[q, text, "--format", fmt] for q in QUERIES]
            corpus += [[q, text, "--phi", str(i), "--format", fmt]
                       for q in PHI_QUERIES for i in PHIS]
    for text in SEIFERT_INPUTS:
        corpus += [["classify", text, "--format", fmt] for fmt in FORMATS]
    for fmt in FORMATS:
        corpus.append(["table", "--b-max", "40", "--format", fmt])
        corpus.append(["verify", "--b-max", "3", "--format", fmt])
    return corpus


def near_limit_rows(digits):
    """Every query on every row at b of the given number of nines, in its
    family encoding and, for classify, through SF(...) too."""
    corpus = []
    for m in sweep(0):
        b = "9" * digits
        text = m.encode().replace("(%d" % m.b, "(" + b, 1)
        corpus += [[q, text] for q in QUERIES]
        corpus += [[q, text, "--phi", "0"] for q in PHI_QUERIES]
        corpus.append(["classify", m.seifert().encode().replace(
            "(%d;" % m.b, "(%s;" % b, 1)])
    return corpus


def near_limit_overflows(cap):
    """SF(...) input whose tokens have at most cap digits, but whose
    normalized b has more, or whose chi or e has too many to print."""
    nines = "9" * cap
    wide = "".join("(1,%s)" % nines for _ in range(11))
    a = 10 ** ((cap + 3) // 2)
    return [["h1", "SF(0; +1; 0; (2,1)(3,1)(6,5)%s)" % wide],
            ["h1", "SF(%s; +1; 2; (1,1))" % nines],
            ["classify", "SF(%s; +1; 0; (2,3)(3,1)(6,5))" % nines],
            ["classify", "SF(0; +1; 0; (%d,1)(%d,1))" % (a + 1, a + 3)],
            ["classify", "SF(%s; +1; 0; (2,1)(%s,1))" % (nines, nines)]]


def run(argv):
    """(stdout, stderr, exit code) of cli.main on argv, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def digest(corpus=None):
    """md5 hex digest of (argv, stdout, stderr, exit code) over the corpus."""
    h = hashlib.md5()
    for argv in argv_corpus() if corpus is None else corpus:
        h.update(("%r\n" % ((argv,) + run(argv),)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(len(argv_corpus()), digest())
