"""Run ``nilbu.cli.main`` once in a fresh process and report it as JSON.

    python3 perfbench/cli_child.py 0 -- ARGV...          untraced
    python3 perfbench/cli_child.py 1 SPANS.gz -- ARGV... traced

Prints one JSON object: the exit code, the captured standard output, the
seconds spent in main and, when traced, the per-layer metrics and the
counts behind their ratios.  The spans go to SPANS.gz.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout

import spans


def main() -> int:
    sep = sys.argv.index("--")
    trace = sys.argv[1] == "1"
    argv = sys.argv[sep + 1:]
    import nilbu.cli
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = nilbu.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            main_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    report = {"rc": rc, "stdout": out.getvalue(), "main_s": main_s}
    if tracer:
        tracer.write(sys.argv[2])
        report["metrics"] = tracer.summary()
        report["bases"] = tracer.bases()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
