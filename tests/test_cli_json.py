"""The CLI's JSON writer against ``json.dumps(obj, indent=2)``.

``cli._json`` writes the indented JSON itself, since an indent sends
``json.dumps`` to its pure-Python encoder.  On every tree of the types the
CLI emits it must give the same text, and on any other type it must raise
TypeError rather than print something json.dumps would not.
"""

import json

import pytest

from nilbu import cli
from nilbu.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

# any code point, lone surrogates included, with quotes, backslashes and
# control characters drawn often
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ufeff')))

TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 40, 10 ** 40) | TEXT,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)


@given(TREES)
def test_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


def test_constants_and_empty_containers():
    assert cli._json(True) == "true" and cli._json(False) == "false"
    assert cli._json([True, 1, None]) == '[\n  true,\n  1,\n  null\n]'
    assert cli._json({"a": [], "b": {}, "c": ()}) == \
        '{\n  "a": [],\n  "b": {},\n  "c": []\n}'


@pytest.mark.parametrize("obj", [1.5, {1, 2}, {1: 0}, [0, {"a": {(1,): 0}}],
                                 {"a": [0.0]}, b"x", object()])
def test_other_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        cli._json(obj)


@pytest.mark.parametrize("argv", [
    ["h1", "2222(0)"], ["h1", "T(1)"], ["epis", "22(0)"],
    ["epis", "236(0;1,5)"], ["involutions", "T(2)"],
    ["involutions", "236(0;1,1)"], ["index", "T(2)", "--phi", "1"],
    ["index", "22(0)", "--phi", "0"], ["index", "244(7;1,1)", "--phi", "1"],
    ["cover", "22(0)", "--phi", "0"],
    ["cover", "244(7;1,1)", "--phi", '{"s":[1,0,1],"v":[],"h":0}'],
    ["verify", "--b-max", "1"], ["classify", "T(5)"],
    ["table", "--b-max", "0"]])
def test_cli_objects_match_json_dumps(argv, monkeypatch, capsys):
    # record the object that the command returns; a parser built per call
    # picks up the recording command
    returned = []
    name = "cmd_" + argv[0]
    command = getattr(cli, name)

    def recording(args):
        code, obj = command(args)
        returned.append(obj)
        return code, obj

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert main(argv + ["--format", "json"]) == 0
    (obj,) = returned
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"
