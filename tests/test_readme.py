"""The README's examples are run as written.

Each `$ nilbu ...` transcript in a fenced block goes through cli.main and
must print its listed output byte for byte; the python block runs as a
doctest.
"""

import doctest
import os
import re
import shlex

import pytest

from nilbu.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def _blocks(lang):
    # every fenced block in order, so that no closing fence opens a block
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```(\w*)\n(.*?)^```$", f.read(), re.M | re.S)
    return [body for tag, body in blocks if tag == lang]


def _transcripts():
    # (argv, stdout) for each '$ nilbu' line and the lines up to the next
    # one, less the blank line that separates two transcripts
    out = []
    for block in _blocks(""):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ nilbu "):
                command, _, output = chunk.partition("\n")
                out.append((shlex.split(command)[2:],
                            output.rstrip("\n") + "\n"))
    return out


TRANSCRIPTS = _transcripts()


def test_readme_has_seven_transcripts():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == [
        "classify", "h1", "epis", "cover", "index", "involutions", "verify"]


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS,
                         ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_readme_transcript(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_readme_python_block():
    block, = _blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README", README, 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
