"""Fuzz the command line: random argv through one process's ``main``.

Whatever the input, ``main`` returns or exits with 0, 1 or 2, lets no other
exception out, and an exit 1 ends stderr with an ``error:`` line.  Every
example runs in the same process, so the parser that ``main`` reuses sees
them all.
"""

import contextlib
import io

import pytest

from nilbu import sweep
from nilbu.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

QUERIES = ("classify", "h1", "epis", "cover", "index", "involutions")
SWEEPS = ("table", "verify")
LOWEST = list(sweep(0))  # each family row at its b_min

# ASCII digits, other scripts' digits (Arabic-Indic, Extended Arabic-Indic,
# Devanagari) and underscores, which int() would also read
DIGITS = "0123456789" + "١٣۷०" + "_"

# ASCII and other whitespace, which may stand between tokens but not
# inside a number
SPACES = st.sampled_from((" ", "\t", "\u2002", "\u3000", "  "))


@st.composite
def split_numbers(draw):
    digits = str(draw(st.integers(10, 10 ** 12)))
    cut = draw(st.integers(1, len(digits) - 1))
    return digits[:cut] + draw(SPACES) + digits[cut:]


numbers = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.text(st.sampled_from(DIGITS), min_size=1, max_size=6),
    st.just("7" * 5000),  # more digits than int() converts
    split_numbers(),
)


@st.composite
def family_texts(draw):
    low = draw(st.sampled_from(LOWEST))
    b = draw(st.one_of(st.integers(low.b, low.b + 8).map(str), numbers))
    betas = ";" + ",".join(map(str, low.betas)) if low.betas else ""
    return "%s(%s%s)" % (low.family, b, betas)


@st.composite
def seifert_texts(draw):
    pairs = "".join("(%s,%s)" % (draw(numbers), draw(numbers))
                    for _ in range(draw(st.integers(0, 4))))
    return "SF(%s; %s; %s; %s)" % (draw(numbers), draw(st.sampled_from(
        ("+1", "-1", "1", "2"))), draw(numbers), pairs)


manifolds = st.one_of(family_texts(), family_texts(), seifert_texts(),
                      st.text(max_size=12))  # garbage

phis = st.one_of(st.integers(0, 3).map(str), numbers, st.sampled_from(
    ('{"v": [1, 0], "h": 0}', '{"s": [1, 1], "v": [0], "h": 0}',
     '{"v": [1, 0], "h": 3}', '{"h": "x"}', "[1, 2]")), st.text(max_size=8))

# at most 2 when it parses: a deeper sweep takes a second or more
b_maxes = st.one_of(st.integers(-1, 2).map(str), st.sampled_from(
    ("0_0", "1_0", "\u0661", "-\u0661", "\u0969", "x", "1.5", "7" * 5000)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(QUERIES + SWEEPS))
    if command in SWEEPS:  # always with a depth: the default, 16, takes seconds
        argv = [command, "--b-max", draw(b_maxes)]
    else:
        argv = [command, draw(manifolds)]
        # cover and index need it, the other queries refuse it
        if command in ("cover", "index") or draw(st.integers(0, 4)) == 0:
            argv += ["--phi", draw(phis)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "text", "xml")))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_any_argv_exits_cleanly(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "error:" in err.splitlines()[-1], (argv, err)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LOWEST), split_numbers(), st.booleans())
def test_split_number_exits_one(low, split, in_b):
    # a number split by whitespace is an error, wherever it stands
    betas = list(map(str, low.betas))
    if in_b or not betas:
        text = "%s(%s%s)" % (low.family, split,
                             ";" + ",".join(betas) if betas else "")
    else:
        betas[-1] = split
        text = "%s(%d;%s)" % (low.family, low.b, ",".join(betas))
    code, err = _run(["h1", text])
    assert code == 1 and len(err.splitlines()) == 1, (text, err)
    assert err.startswith("error: "), (text, err)
