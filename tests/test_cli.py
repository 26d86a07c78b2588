import hashlib
import json
import os
import subprocess
import sys

import pytest

import nilbu.coverings
from nilbu import cli
from nilbu.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "SF(0; +1; 0; (2,1)(3,1)(6,5))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "236(0;1,5)"
    assert lines[1] == "  seifert: SF(0; +1; 0; (2,1)(3,1)(6,5))"
    assert lines[2] == "  e = 5/3"
    assert lines[3] == "  c = 10  d = 2  b_min = -1"


def test_classify_json(capsys):
    code, obj = run_json(capsys, "classify", "SF(0;+1;0;(6,5)(3,1)(2,1))")
    assert code == 0
    assert obj == {"manifold": "236(0;1,5)",
                   "seifert": "SF(0; +1; 0; (2,1)(3,1)(6,5))",
                   "e": "5/3", "c": 10, "d": 2, "b_min": -1}


def test_h1_text(capsys):
    code, out, _ = run(capsys, "h1", "2222(0)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H1(2222(0)) = Z_2 + Z_2 + Z_8"
    assert any(line.startswith("  h -> ") for line in lines[1:])


def test_h1_json(capsys):
    code, obj = run_json(capsys, "h1", "T(1)")
    assert code == 0
    assert obj["manifold"] == "T(1)"
    assert obj["h1"]["free_rank"] == 2
    assert obj["h1"]["torsion"] == []
    assert set(obj["h1"]["gen_images"]) == {"v1", "v2", "h"}


def test_epis_text(capsys):
    code, out, _ = run(capsys, "epis", "22(0)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "22(0): 3 epimorphisms, 2 classes"
    assert lines[1] == "  [0] s=(0,0) v=(1) h=0"
    assert "class 0 (size 1)" in out and "class 1 (size 2)" in out


def test_epis_json(capsys):
    code, obj = run_json(capsys, "epis", "2222(0)")
    assert code == 0
    assert obj["count"] == 7
    assert sorted(c["size"] for c in obj["classes"]) == [1, 6]
    members = sorted(i for c in obj["classes"] for i in c["members"])
    assert members == list(range(7))


def test_cover_by_index(capsys):
    code, out, _ = run(capsys, "cover", "22(0)", "--phi", "0")
    assert code == 0
    assert out.splitlines() == ["base:  22(0)",
                                "phi:   s=(0,0) v=(1) h=0",
                                "cover: 2222(0)",
                                "index: 2",
                                "oracle: ok"]


def test_cover_by_json_phi(capsys):
    code, obj = run_json(capsys, "cover", "22(0)",
                         "--phi", '{"s": [1, 1], "v": [0], "h": 0}')
    assert code == 0
    assert obj == {"base": "22(0)", "phi": {"s": [1, 1], "v": [0], "h": 0},
                   "cover": "K(2)", "index": 2, "verified": True}


def test_index_command(capsys):
    code, out, _ = run(capsys, "index", "T(2)", "--phi",
                       '{"v": [0, 0], "h": 1}')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index(T(2), s=() v=(0,0) h=1) = 3"
    assert "  kills torsion: no" in lines
    assert "  cup cube nonzero: yes" in lines
    assert "  catalog: class T with b = 2 mod 4 and phi(h) = 1" in lines

    code, obj = run_json(capsys, "index", "T(3)", "--phi", "0")
    assert code == 0
    assert obj["index"] == 1
    assert obj["catalog"] == "class T with phi(h) = 0"


def test_involutions_text(capsys):
    code, out, _ = run(capsys, "involutions", "T(1)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cover: T(1)"
    assert lines[1] == "free involutions: 1"
    assert "T(2)" in lines[3] and lines[3].rstrip().endswith("3")


def test_involutions_none(capsys):
    code, obj = run_json(capsys, "involutions", "236(0;1,1)")
    assert code == 0
    assert obj["quotients"] == []
    assert "not a double cover" in obj["note"]


def test_table(capsys):
    code, obj = run_json(capsys, "table", "--b-max", "0")
    assert code == 0
    assert len(obj["rows"]) == 15
    assert len(obj["entries"]) == 15
    by_key = {(r["family"], tuple(r["betas"])): r for r in obj["rows"]}
    assert by_key[("236", (2, 1))] == {"family": "236", "betas": [2, 1],
                                       "c_slope": 6, "c_intercept": 8,
                                       "d": 2, "b_min": -1}
    assert by_key[("T", ())]["c_slope"] == 1
    assert by_key[("2222", ())]["c_intercept"] == 4

    code, out, _ = run(capsys, "table", "--b-max", "0")
    assert code == 0
    assert "236(b;2,1)" in out and "6b+8" in out
    assert "2222(b)" in out and "2b+4" in out


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--b-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    assert lines[-2].startswith("verified 45 manifolds, ")
    assert lines[-2].endswith("depth 2")


def test_verify_json(capsys):
    code, obj = run_json(capsys, "verify", "--b-max", "1")
    assert code == 0
    assert obj["ok"] is True
    assert obj["manifolds"] == 30
    assert obj["failures"] == []


def test_verify_reports_mismatch(capsys, monkeypatch):
    real = nilbu.coverings.expected_quotient_diagram

    def wrong(m):
        diagram = real(m)
        return diagram[:-1] if m.encode() == "T(1)" else diagram

    monkeypatch.setattr(nilbu.coverings, "expected_quotient_diagram", wrong)
    line = "T(1): involution diagram [('T(2)', 3)], expected []"
    code, obj = run_json(capsys, "verify", "--b-max", "0")
    assert code == 2
    assert obj["ok"] is False
    assert obj["failures"] == [line]
    code, out, _ = run(capsys, "verify", "--b-max", "0")
    assert code == 2
    assert out.splitlines()[0] == line
    assert out.splitlines()[-1] == "FAILURES: 1"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--b-max", "3")
    _, second, _ = run(capsys, "table", "--b-max", "3")
    assert first == second


def test_invalid_inputs_exit_one(capsys):
    code, _, err = run(capsys, "classify", "nonsense")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "classify", "SF(0;+1;2;)")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "cover", "22(0)", "--phi", "7")
    assert code == 1
    code, _, err = run(capsys, "cover", "22(0)", "--phi",
                       '{"s": [1, 0], "v": [0], "h": 0}')
    assert code == 1
    code, _, err = run(capsys, "cover", "22(0)", "--phi", "[1,2]")
    assert code == 1
    bad_phis = [("T(2)", '{"h": "x", "v": [0, 0]}'),
                ("T(2)", '{"s": 5}'),
                ("T(2)", '{"v": [1, 0], "h": 3}'),
                ("T(2)", '{"v": [1, 0], "h": 1.7}'),
                ("T(2)", '{"v": [true, false], "h": 0}'),
                ("T(2)", '{"v": [3, 0], "h": 0}'),
                ("T(2)", '{"v": [1, 0], "h": 1, "x": 9}'),
                ("22(0)", '{"s": "11", "v": [0], "h": 0}')]
    for manifold, phi in bad_phis:
        for command in ("cover", "index"):
            code, out, err = run(capsys, command, manifold, "--phi", phi)
            assert code == 1 and out == "", (command, phi)
            assert len(err.splitlines()) == 1, (command, phi)
            assert err.startswith("error: "), (command, phi)
    exact = [('{"v":[1,0],"h":3}', "a bit must be 0 or 1, got 3"),
             ('{"v":[true,false],"h":0}', "a bit must be 0 or 1, got True"),
             ('{"v":[0,0],"h":1}',
              "relator v1 v2 v1^-1 v2^-1 h^-3 has odd image")]
    for phi, message in exact:
        code, out, err = run(capsys, "cover", "T(3)", "--phi", phi)
        assert (code, out, err) == (1, "", "error: %s\n" % message), phi
    # the same errors at b = 10^12 cost no more than at b = 3
    exact = [("T(1000000000000)", '{"v":[1,0],"h":3}',
              "a bit must be 0 or 1, got 3"),
             ("T(1000000000001)", '{"v":[0,0],"h":1}',
              "relator v1 v2 v1^-1 v2^-1 h^-1000000000001 has odd image")]
    for manifold, phi, message in exact:
        code, out, err = run(capsys, "cover", manifold, "--phi", phi)
        assert (code, out, err) == (1, "", "error: %s\n" % message), phi
    digits = "7" * 5000  # more digits than int() converts
    too_long = "error: integer of 5000 digits is too long\n"
    for args in (("h1", "T(%s)" % digits),
                 ("classify", "SF(%s; +1; 2; )" % digits)):
        assert run(capsys, *args) == (1, "", too_long), args[0]
    too_long = "error: --phi holds an integer with too many digits\n"
    for phi in (digits, '{"v": [1, 0], "h": %s}' % digits):
        assert run(capsys, "cover", "T(3)", "--phi", phi) == (1, "", too_long)
    for command in ("cover", "index"):  # no epimorphism, so no index range
        code, out, err = run(capsys, command, "333(0;1,1,1)", "--phi", "0")
        assert (code, out) == (1, "")
        assert err == "error: 333(0;1,1,1) has no epimorphism onto Z2\n"
    # other scripts' digits and underscores are not read as ASCII digits
    for args in (("h1", "T(\u0663)"), ("h1", "T(1_0)"),
                 ("classify", "SF(0; +1; 0; (2,1)(3,1)(6,\u0665))"),
                 ("epis", "236(0;1,\u0665)"),
                 ("cover", "T(2)", "--phi", "0_1"),
                 ("cover", "T(2)", "--phi", "\u0661"),
                 ("index", "T(2)", "--phi", "\u0661")):
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, ""), args
        assert len(err.splitlines()) == 1 and err.startswith("error: "), args
    # whitespace inside a number splits it instead of being dropped
    for args in (("h1", "T(1 2)"), ("h1", "T(1 2)"),
                 ("classify", "SF(0; +1; 0; (2,1)(3,1)(6,5 0))"),
                 ("epis", "236(0;1,5 0)")):
        code, out, err = run(capsys, *args)
        assert (code, out) == (1, ""), args
        assert len(err.splitlines()) == 1 and err.startswith("error: "), args


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["cover", "22(0)"])  # --phi is required
    assert exc.value.code == 1
    capsys.readouterr()
    for command in ("verify", "table"):  # an empty sweep must not pass
        with pytest.raises(SystemExit) as exc:
            main([command, "--b-max", "-1"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --b-max: must be >= 0, got -1" in out.err
    for command in ("verify", "table"):
        for b_max in ("0_0", "\u0663", "1_6"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--b-max", b_max])
            assert exc.value.code == 1
            out = capsys.readouterr()
            assert out.out == ""
            errors = [line for line in out.err.splitlines() if "error:" in line]
            assert errors == ["nilbu %s: error: argument --b-max: invalid int "
                              "value: %r" % (command, b_max)]
    # argparse echoes argv; a control character in it stays on the error line
    for ctrl, shown in (("\n", "\\n"), ("\r", "\\r"), ("\x0c", "\\x0c")):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "T(1)", "--phi", "1%s0" % ctrl])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1] == (
            "nilbu: error: unrecognized arguments: --phi 1%s0" % shown)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--b-max", "1%s6" % ctrl])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.err.splitlines()[-1] == (
            "nilbu verify: error: argument --b-max: invalid int value: %r"
            % ("1%s6" % ctrl))


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_leaks_no_state(capsys):
    query = ["cover", "22(0)", "--phi", "0", "--format", "json"]
    text_query = ["h1", "T(1)"]
    first = _outcome(capsys, query)
    first_text = _outcome(capsys, text_query)
    assert first[0] == 0 and first_text[0] == 0
    for argv, code in ((["cover", "22(0)"], 1),  # --phi is required
                       (["verify", "--b-max", "-1"], 1),
                       (["--help"], 0),
                       (["h1", "--help"], 0),
                       (["h1", "nonsense", "--format", "json"], 1),  # NilError
                       (["frobnicate"], 1)):
        assert _outcome(capsys, argv)[0] == code, argv
    assert _outcome(capsys, query) == first
    assert _outcome(capsys, text_query) == first_text


def test_parser_is_built_once(monkeypatch, capsys):
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in (["h1", "T(1)"], ["classify", "T(2)"], ["epis", "22(0)"]):
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_import_builds_no_parser():
    # a one-shot process must not pay for a parser at import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import nilbu.cli; "
            "print(nilbu.cli._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"


def test_import_loads_no_dataclasses_or_fractions():
    # which modules the import adds to the interpreter's own start-up, not
    # how long it takes: dataclasses brings inspect, fractions brings decimal;
    # with -S no site hook (such as a .pth file) has loaded typing first
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; before = set(sys.modules); import nilbu.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    for flags in ([], ["-S"]):
        out = subprocess.run([sys.executable, *flags, "-c", code],
                             check=True, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        added = set(out.split())
        assert "nilbu.cli" in added, flags
        assert not added & {"dataclasses", "inspect", "fractions", "decimal",
                            "typing"}, flags


def test_closed_stdout_exits_one_without_traceback():
    # the reader is gone before any output is written, as with `| head -1`
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilbu.cli", "verify", "--b-max", "2",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_verify_json_is_byte_identical_to_golden(capsys):
    # every speed-up must leave the depth-64 report byte for byte as it is
    assert main(["verify", "--b-max", "64", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == \
        "686182278425d94558d64aac1fe41a76"
