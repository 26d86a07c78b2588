"""The whole command-line surface, pinned by one md5 over a fixed corpus.

A change that keeps the output of every argv in tests/cli_corpus.py byte for
byte keeps this digest; any other change to what the CLI prints, to stdout
or stderr, or to its exit codes moves it.  Every text output of the corpus
must also be its command's renderer applied to the parsed JSON output of the
same argv, so the text holds nothing the JSON does not.  Integers near the
interpreter's int/str limit are checked apart from the digest.
"""

import json
import sys

import pytest

import cli_corpus
from nilbu import cli


def test_corpus_output_is_byte_identical_to_golden():
    corpus = cli_corpus.argv_corpus()
    assert len(corpus) == 4218
    assert cli_corpus.digest(corpus) == "96084500621ba7f22fe051d03cb7424d"


def test_text_is_rendered_from_the_json():
    # each text output is its command's renderer applied to the parsed JSON
    # of the same argv, with the same exit code; an error prints the same
    # error line in both formats
    parser = cli._parser()
    for argv in cli_corpus.argv_corpus():
        if argv[-2:] != ["--format", "text"]:
            continue
        text_out, text_err, text_code = cli_corpus.run(argv)
        json_out, json_err, json_code = cli_corpus.run(argv[:-1] + ["json"])
        assert (text_code, text_err) == (json_code, json_err), argv
        if text_err:
            assert (text_code, text_out, json_out) == (1, "", ""), argv
            assert text_err.startswith("error: "), argv
            continue
        args = parser.parse_args(argv)
        rendered = "\n".join(args.text(json.loads(json_out), args)) + "\n"
        assert rendered == text_out, argv


def _limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _run_clean(argv):
    # no traceback: exit 0, or exit 1 with one error line and no output
    out, err, code = cli_corpus.run(argv)
    assert code == 0 or (code, out) == (1, "") and \
        err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    return code, err


@pytest.mark.skipif(not _limit(), reason="no int/str digit limit")
@pytest.mark.parametrize("fmt", cli_corpus.FORMATS)
def test_near_limit_input_never_prints_a_traceback(fmt):
    cap = _limit() - 2
    for argv in cli_corpus.near_limit_rows(cap):
        code, err = _run_clean(argv + ["--format", fmt])
        if argv[0] not in cli_corpus.PHI_QUERIES:  # 333 may have no phi 0
            assert code == 0, (argv, err)
    too_long = "error: integer of %d digits is too long\n" % (cap + 1)
    for argv in cli_corpus.near_limit_rows(cap + 1):
        assert _run_clean(argv + ["--format", fmt]) == (1, too_long), argv
    for argv in cli_corpus.near_limit_overflows(cap):
        assert _run_clean(argv + ["--format", fmt])[0] == 1, argv


@pytest.mark.skipif(not _limit(), reason="no int/str digit limit to lift")
@pytest.mark.parametrize("drop_getter", [False, True])
def test_no_cap_without_a_limit(monkeypatch, drop_getter):
    # with the limit at 0, or with no getter (Python < 3.10.7), any token parses
    limit = _limit()
    b = "7" * (limit + 700)
    sys.set_int_max_str_digits(0)
    try:
        if drop_getter:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        out, err, code = cli_corpus.run(["h1", "T(%s)" % b])
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out.startswith("H1(T(%s)) = Z^2 + Z_%s\n" % (b, b))
