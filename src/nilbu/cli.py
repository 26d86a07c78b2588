"""Command line front end.

Subcommands: classify, h1, epis, cover, index, involutions, table, verify.
Each cmd_* builds one JSON-shaped object and returns it with its exit code.
--format json writes that object; the default text is its text_* renderer's
lines, read from the object alone (and --b-max for verify).  Both are stable
across runs.  Exit codes: 0 success, 1 invalid input (or stdout closed
before the output was written), 2 verification mismatch.

main builds its argparse parser on the first call and reuses it; each call
parses its argv in one argparse pass.  JSON comes from _json, a direct
writer whose bytes equal json.dumps(obj, indent=2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from .bu_index import index_report, z2_index
from .coverings import (CoveringDescriptor, double_cover, quotients_of,
                        verify_cover)
from .epimorphisms import (char_for, describe, enumerate_epis,
                           equivalence_classes)
from .homology import h1, h1_invariants
from .seifert import (ROWS, NilError, NilManifold, ParseError, euler_number,
                      parse_manifold, sweep)
from .verify import verify_sweep


class _Parser(argparse.ArgumentParser):
    # invalid input exits 1, per the interface contract (argparse default is 2);
    # the message echoes argv, so its control characters are escaped as repr
    # does, which keeps the error on one line
    def error(self, message):
        message = "".join(ch if ch.isprintable() else repr(ch)[1:-1]
                          for ch in message)
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _group_text(g: dict) -> str:
    # H1 from its JSON's free_rank and torsion: Z^2 + Z_4, Z, or 0
    rank = g["free_rank"]
    parts = ["Z"] if rank == 1 else ["Z^%d" % rank] if rank else []
    parts += ["Z_%d" % d for d in g["torsion"]]
    return " + ".join(parts) or "0"


def _json(obj, pad="\n") -> str:
    """The bytes of json.dumps(obj, indent=2), for the types the CLI emits.

    json.dumps with an indent runs json's pure-Python encoder; this writer
    quotes strings with its C function (where json was built with one).
    Dispatch is on the exact type, and a key that is not a string fails in
    _quote, so any other object raises TypeError.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return "true" if obj is True else "false" if obj is False else "null"
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        parts = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        parts = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    raise TypeError("Object of type %s is not JSON serializable"
                    % kind.__name__)


def _run(args) -> int:
    # the command's object, as JSON or as its renderer's text
    code, obj = args.func(args)
    print(_json(obj) if args.format == "json"
          else "\n".join(args.text(obj, args)))
    return code


_DECIMAL_RE = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """An integer in ASCII decimal digits, for the --phi index and --b-max.

    int() alone also takes other scripts' digits and underscores.  The error
    text is the one argparse gives for type=int.
    """
    if _DECIMAL_RE.fullmatch(text.strip()):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _parse_phi(m: NilManifold, text: str):
    text = text.strip()
    try:
        idx = _decimal(text)
    except argparse.ArgumentTypeError:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError("--phi must be an index or a JSON object: %s" % err) from err
        except ValueError as err:  # more digits than int() converts
            raise ParseError("--phi holds an integer with too many digits") from err
        except RecursionError as err:
            raise ParseError("--phi JSON nests too deeply") from err
        if not (isinstance(obj, dict) and set(obj) <= {"s", "v", "h"} and
                all(isinstance(obj.get(k, []), list) for k in "sv")):
            raise ParseError("--phi JSON must be an object with lists s, v "
                             "and a bit h")
        return char_for(m, **obj)
    epis = enumerate_epis(m)
    if not epis:
        raise ParseError("%s has no epimorphism onto Z2" % m.encode())
    if not 0 <= idx < len(epis):
        raise ParseError("phi index %d out of range 0..%d" % (idx, len(epis) - 1))
    return epis[idx]


def cmd_classify(args):
    m = parse_manifold(args.manifold)
    inv = m.seifert()
    return 0, {"manifold": m.encode(), "seifert": inv.encode(),
               "e": str(euler_number(inv)), "c": m.c, "d": m.row.d,
               "b_min": m.row.b_min}


def text_classify(obj, args):
    return [obj["manifold"], "  seifert: %(seifert)s" % obj,
            "  e = %(e)s" % obj, "  c = %(c)d  d = %(d)d  b_min = %(b_min)d" % obj]


def cmd_h1(args):
    m = parse_manifold(args.manifold)
    return 0, {"manifold": m.encode(), "h1": h1(m).to_json_dict()}


def text_h1(obj, args):
    g = obj["h1"]
    return ["H1(%s) = %s" % (obj["manifold"], _group_text(g))] + [
        "  %s -> (%s)" % (name, ", ".join(map(str, coords)))
        for name, coords in g["gen_images"].items()]


def cmd_epis(args):
    m = parse_manifold(args.manifold)
    epis = enumerate_epis(m)
    part = equivalence_classes(m)
    index_of = {phi.bits: i for i, phi in enumerate(epis)}
    return 0, {"manifold": m.encode(), "count": len(epis),
               "epimorphisms": [phi.to_json_dict() for phi in epis],
               "classes": [{"size": cls.size,
                            "representative": cls.representative.to_json_dict(),
                            "members": [index_of[c.bits] for c in cls.members]}
                           for cls in part.classes]}


def text_epis(obj, args):
    classes = obj["classes"]
    return (["%s: %d epimorphisms, %d classes"
             % (obj["manifold"], obj["count"], len(classes))]
            + ["  [%d] %s" % (i, describe(**phi))
               for i, phi in enumerate(obj["epimorphisms"])]
            + ["  class %d (size %d): members %s" % (k, cls["size"], cls["members"])
               for k, cls in enumerate(classes)])


def cmd_cover(args):
    m = parse_manifold(args.manifold)
    phi = _parse_phi(m, args.phi)
    cover = double_cover(phi)
    desc = CoveringDescriptor(phi, cover, z2_index(phi))
    checked = verify_cover(phi, cover)
    return 0 if checked else 2, dict(desc.to_json_dict(), verified=checked)


def text_cover(obj, args):
    return ["base:  %(base)s" % obj, "phi:   %s" % describe(**obj["phi"]),
            "cover: %(cover)s" % obj, "index: %(index)d" % obj,
            "oracle: %s" % ("ok" if obj["verified"] else "MISMATCH")]


def cmd_index(args):
    m = parse_manifold(args.manifold)
    return 0, index_report(_parse_phi(m, args.phi))


def text_index(report, args):
    yes = {True: "yes", False: "no"}
    lines = ["index(%s, %s) = %d" % (report["manifold"],
                                     describe(**report["phi"]), report["index"]),
             "  kills torsion: %s" % yes[report["kills_torsion"]],
             "  cup cube nonzero: %s" % yes[report["cup_cube_nonzero"]]]
    if report["catalog"]:
        lines.append("  catalog: %(catalog)s" % report)
    return lines


def cmd_involutions(args):
    m = parse_manifold(args.manifold)
    obj = {"cover": m.encode(),
           "quotients": [d.to_json_dict() for d in quotients_of(m)]}
    if not obj["quotients"]:
        obj["note"] = "none: not a double cover of any manifold in this geometry"
    return 0, obj


def text_involutions(obj, args):
    if "note" in obj:
        return ["cover: %(cover)s" % obj, "free involutions: %(note)s" % obj]
    rows = [(q["base"], describe(**q["phi"]), q["index"]) for q in obj["quotients"]]
    base_w = max(len(base) for base, _, _ in rows)
    phi_w = max(len(phi) for _, phi, _ in rows)
    return ["cover: %(cover)s" % obj, "free involutions: %d" % len(rows)] + [
        "  %-*s  %-*s  %s" % (base_w, base, phi_w, phi, index)
        for base, phi, index in [("base", "phi", "index")] + rows]


def _c_formula(slope: int, intercept: int) -> str:
    head = "b" if slope == 1 else "%db" % slope
    return "%s%+d" % (head, intercept) if intercept else head


def cmd_table(args):
    rows = [{"family": family, "betas": list(betas), "c_slope": row.lcm,
             "c_intercept": row.c0, "d": row.d, "b_min": row.b_min}
            for (family, betas), row in ROWS.items()]
    entries = []
    for m in sweep(args.b_max):
        e = euler_number(m.seifert())
        free_rank, torsion = h1_invariants(m)
        entries.append({"manifold": m.encode(), "c": m.c, "d": m.row.d,
                        "e": str(e), "free_rank": free_rank,
                        "torsion": list(torsion)})
    return 0, {"rows": rows, "entries": entries}


def text_table(obj, args):
    lines = ["%-12s  %-8s  %s  %s" % ("family", "c", "d", "b_min")]
    for row in obj["rows"]:
        betas = ";" + ",".join(map(str, row["betas"])) if row["betas"] else ""
        lines.append("%-12s  %-8s  %d  %d" % (
            "%s(b%s)" % (row["family"], betas),
            _c_formula(row["c_slope"], row["c_intercept"]), row["d"], row["b_min"]))
    lines += ["", "%-12s  %-5s  %s  %-6s  %s" % ("manifold", "c", "d", "e", "h1")]
    return lines + ["%-12s  %-5d  %d  %-6s  %s" % (
        e["manifold"], e["c"], e["d"], e["e"], _group_text(e)) for e in obj["entries"]]


def cmd_verify(args):
    report = verify_sweep(args.b_max)
    return 0 if report["ok"] else 2, report


def text_verify(report, args):
    # the report has no depth, so the depth is read from the argv
    failures = report["failures"]
    return failures + [
        "verified %d manifolds, %d (manifold, phi) pairs, depth %d"
        % (report["manifolds"], report["pairs"], args.b_max),
        "FAILURES: %d" % len(failures) if failures else "OK"]


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser = _Parser(prog="nilbu",
                     description="Nil Seifert manifolds: homology, double "
                                 "covers, Borsuk-Ulam indices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="normalize and name a Seifert invariant")
    p.add_argument("manifold", help="SF(...) or family encoding")
    p.set_defaults(func=cmd_classify, text=text_classify)

    p = sub.add_parser("h1", parents=[common], help="first homology")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_h1, text=text_h1)

    p = sub.add_parser("epis", parents=[common],
                       help="Z2-epimorphisms and their equivalence classes")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_epis, text=text_epis)

    p = sub.add_parser("cover", parents=[common],
                       help="double cover cut out by an epimorphism")
    p.add_argument("manifold")
    p.add_argument("--phi", required=True,
                   help="epimorphism: index into epis order, or JSON "
                        "{\"s\":[...],\"v\":[...],\"h\":0|1}")
    p.set_defaults(func=cmd_cover, text=text_cover)

    p = sub.add_parser("index", parents=[common],
                       help="Z2-index of (manifold, phi) with criterion trace")
    p.add_argument("manifold")
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_index, text=text_index)

    p = sub.add_parser("involutions", parents=[common],
                       help="all free involutions with this double cover")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_involutions, text=text_involutions)

    p = sub.add_parser("table", parents=[common],
                       help="the family table: c, d, b_min, plus entries")
    p.add_argument("--b-max", type=_decimal, default=16,
                   help="entries run b_min..b_min+k per family (default 16)")
    p.set_defaults(func=cmd_table, text=text_table)

    p = sub.add_parser("verify", parents=[common],
                       help="full cross-check sweep (oracle, partitions, "
                            "indices, involution diagrams)")
    p.add_argument("--b-max", type=_decimal, default=16,
                   help="sweep b_min..b_min+k per family (default 16)")
    p.set_defaults(func=cmd_verify, text=text_verify)
    parser.commands = sub.choices  # name -> subparser, for main's one pass
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so one serves every call to main;
    # built on the first call rather than at import, so a one-shot process
    # pays nothing extra
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no command, help, or a command argparse rejects
        args = parser.parse_args(argv)
    else:
        # what parse_args does with a command, without scanning argv twice
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    if getattr(args, "b_max", 0) < 0:
        parser.error("argument --b-max: must be >= 0, got %d" % args.b_max)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except NilError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
