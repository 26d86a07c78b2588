"""Inputs, closed-loop runners and correctness checks for the nilbu benchmark.

Three workloads, each one client in a closed loop in one process, no
threads:

* verify-sweep: ``nilbu verify --b-max 64 --format json`` in a fresh
  process per sweep, exactly as a user runs it.  Every layer runs at small b.
* large-b: single ``h1``, ``cover --phi 0``, ``index --phi 0`` and
  ``involutions`` queries on every family row with b log-uniform in
  [1e4, 5e4], each through ``nilbu.cli.main`` with the lru caches cleared
  first, as a fresh process would start.  Presentation words grow with b.
* warm-stream: a long-lived process sends a Zipf-skewed stream of small-b
  queries of six kinds through ``nilbu.cli.main`` and never clears the
  caches, so about half the cached calls hit.

Inputs come from the workload seed only; the program sees the generated
argv.  Outputs are reduced to claims while the clock is stopped, and the
claims are checked against independent routes after the timed loop, so the
checks neither count in the timings nor warm the caches being measured.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# The family rows, transcribed here so that inputs do not come from the
# program: tag -> (epsilon, g', cone orders, orders with a free beta).
SHAPES = {
    "T": (+1, 2, (), ()),
    "K": (-1, 2, (), ()),
    "22": (-1, 1, (2, 2), ()),
    "2222": (+1, 0, (2, 2, 2, 2), ()),
    "236": (+1, 0, (2, 3, 6), (3, 6)),
    "244": (+1, 0, (2, 4, 4), (4, 4)),
    "333": (+1, 0, (3, 3, 3), (3, 3, 3)),
}
ROWS = ([("T", ()), ("K", ()), ("22", ()), ("2222", ())]
        + [("236", (b2, b3)) for b2 in (1, 2) for b3 in (1, 5)]
        + [("244", (1, 1)), ("244", (1, 3)), ("244", (3, 3))]
        + [("333", (1, 1, 1)), ("333", (1, 1, 2)), ("333", (1, 2, 2)),
           ("333", (2, 2, 2))])

# sizes; the self-test runs the same code on the small ones.  round_s is
# the time one round of each workload takes on the reference machine (2
# cores, CPython 3.11); it turns --seconds into a number of rounds.  A
# warm-stream chunk of 90 queries is one block of the stream (every family
# row and kind once), so each round has the same mix.  In longer chunks the
# tail percentile falls between the involution cache hits and misses, where
# it swings with the number of misses in the chunk.
FULL = {"depth": 64, "b_lo": 10_000, "b_hi": 50_000, "span": 200,
        "chunk": 90, "trace_queries": 1500, "setup_trials": 6,
        "round_s": {"verify-sweep": 6.0, "large-b": 17.5, "warm-stream": 0.25}}
TINY = {"depth": 2, "b_lo": 100, "b_hi": 500, "span": 20,
        "chunk": 40, "trace_queries": 120, "setup_trials": 2,
        "round_s": {"verify-sweep": 0.4, "large-b": 0.45, "warm-stream": 0.09}}

# (manifolds, pairs) that nilbu verify must report at each depth
EXPECTED_SWEEP = {64: (975, 2270), 2: (45, 100)}

LARGE_B_KINDS = ("h1", "cover", "index", "involutions")
WARM_KINDS = ("classify", "h1", "epis", "cover", "index", "involutions")
ZIPF_S = 1.3


# -- the family table, independently of the program ------------------------

def pairs_of(family, betas):
    _, _, orders, free = SHAPES[family]
    it, free_left, pairs = iter(betas), list(free), []
    for a in orders:
        if free_left and a == free_left[0]:
            free_left.pop(0)
            pairs.append((a, next(it)))
        else:
            pairs.append((a, 1))
    return pairs


def b_min_of(family, betas):
    return 1 - math.ceil(sum(Fraction(beta, a) for a, beta in pairs_of(family, betas)))


def encode(family, b, betas):
    if not betas:
        return "%s(%d)" % (family, b)
    return "%s(%d;%s)" % (family, b, ",".join(map(str, betas)))


def epi_count(family, b, betas):
    """Number of epimorphisms onto Z2, from H1 mod 2 of each family."""
    if family in ("T", "K"):
        return 7 if b % 2 == 0 else 3
    if family == "333":
        return 1 if (b + sum(betas)) % 2 == 0 else 0
    return {"22": 3, "2222": 7, "236": 1, "244": 3}[family]


class Query:
    """One CLI call: its argv and the manifold it is about."""

    __slots__ = ("kind", "argv", "family", "b", "betas")

    def __init__(self, kind, argv, family, b, betas):
        self.kind, self.argv = kind, argv
        self.family, self.b, self.betas = family, b, betas

    def key(self):
        return tuple(self.argv)


# -- input generators --------------------------------------------------------

def large_b_round(seed, r, size):
    """Round r: every family row once per query kind, in seeded order.

    b is log-uniform in [b_lo, b_hi] by strata: each kind gives every row
    a different one of len(ROWS) strata, fixed by (row, kind), and the seed
    and round place b inside its stratum.  So every round of every seed has
    the same spread of b per row and kind: the cost of a round, and the
    order statistics the tail latency is read from, stay steady.  333 rows
    get b + 1 where b + sum(betas) is odd, so that an epimorphism exists
    for --phi 0.
    """
    rng = random.Random("large-b/%d/%d" % (seed, r))
    n = len(ROWS)
    ratio = size["b_hi"] / size["b_lo"]
    queries = []
    for i, (family, betas) in enumerate(ROWS):
        for j, kind in enumerate(LARGE_B_KINDS):
            stratum = (i + 4 * j) % n
            b = round(size["b_lo"] * ratio ** ((stratum + rng.random()) / n))
            if family == "333" and (b + sum(betas)) % 2:
                b += 1
            argv = [kind, encode(family, b, betas)]
            if kind in ("cover", "index"):
                argv += ["--phi", "0"]
            queries.append(Query(kind, argv + ["--format", "json"],
                                 family, b, betas))
    rng.shuffle(queries)
    return queries


def _sf_text(rng, family, b, betas):
    # a loose SF(...) spelling of the manifold: one beta moved by a multiple
    # of its order, b compensating, so parse and normalize do real work
    eps, g, _, _ = SHAPES[family]
    pairs = pairs_of(family, betas)
    if pairs:
        k = rng.choice((-1, 0, 1))
        i = rng.randrange(len(pairs))
        a, beta = pairs[i]
        pairs[i] = (a, beta + k * a)
        b -= k
    body = "".join("(%d,%d)" % p for p in pairs)
    return "SF(%d; %+d; %d; %s)" % (b, eps, g, body)


def warm_stream(seed, size):
    """Endless seeded stream of small-b queries, Zipf-skewed in b.

    The stream runs in blocks that hold every (family row, kind) pair once,
    in seeded order, so the mix of rows and kinds is the same for every
    seed.  Within a row the seed ranks b_min..b_min+span at random and each
    query draws rank k with weight 1/k**ZIPF_S, so repeats (cache hits)
    come from every row alike.  cover and index take a random --phi index
    (epis instead when the manifold has no epimorphism).
    """
    rng = random.Random("warm-stream/%d" % seed)
    width = size["span"] + 1
    ranked = {row: rng.sample(range(width), width) for row in ROWS}
    cum = list(itertools.accumulate(k ** -ZIPF_S for k in range(1, width + 1)))
    pairs = [(row, kind) for row in ROWS for kind in WARM_KINDS]
    while True:
        block = rng.sample(pairs, len(pairs))
        ranks = rng.choices(range(width), cum_weights=cum, k=len(block))
        for ((family, betas), kind), rank in zip(block, ranks):
            b = b_min_of(family, betas) + ranked[(family, betas)][rank]
            count = epi_count(family, b, betas)
            if kind in ("cover", "index") and count == 0:
                kind = "epis"
            if kind == "classify":
                argv = [kind, _sf_text(rng, family, b, betas)]
            else:
                argv = [kind, encode(family, b, betas)]
            if kind in ("cover", "index"):
                argv += ["--phi", str(rng.randrange(count))]
            yield Query(kind, argv + ["--format", "json"], family, b, betas)


# -- running the CLI ---------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("NILBU_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args):
    """Run python3 with args from the checkout root; (seconds, rc, stdout, maxrss_kb)."""
    os.makedirs(OUT, exist_ok=True)
    err_path = os.path.join(OUT, "child.stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, errors="replace") as err:
            sys.stderr.write("python3 %s exited %d: %s\n"
                             % (" ".join(args[:2]), proc.returncode,
                                err.read()[-2000:]))
    return elapsed, proc.returncode, out.decode(), usage.ru_maxrss


def setup_seconds(trials):
    """Times from a fresh interpreter until ``import nilbu.cli`` is done."""
    args = ["-c", "import nilbu.cli"]
    run_child(args)  # compile the bytecode once, as an installed package has
    times = []
    for _ in range(trials):
        elapsed, rc, _, _ = run_child(args)
        if rc != 0:
            raise RuntimeError("import nilbu.cli failed in a fresh interpreter")
        times.append(elapsed)
    return times


def call_main(main, query):
    """One in-process CLI call; (seconds, rc, stdout).  rc None = exception."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(query.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc = None
            err.write("%s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write("query %r failed: rc=%r %s\n"
                         % (query.argv, rc, err.getvalue().strip()[:300]))
    return elapsed, rc, out.getvalue()


# -- claims and their independent checks ----------------------------------------

def claim_of(query, rc, text):
    """Reduce one CLI output to the facts that get checked; None = unusable."""
    if rc != 0:
        return None
    try:
        obj = json.loads(text)
        kind = query.kind
        if kind == "classify":
            return (obj["manifold"], obj["seifert"], obj["e"], obj["c"],
                    obj["d"], obj["b_min"])
        if kind == "h1":
            return (obj["manifold"], obj["h1"]["free_rank"],
                    tuple(obj["h1"]["torsion"]))
        if kind == "epis":
            members = sorted(i for c in obj["classes"] for i in c["members"])
            return (obj["manifold"], obj["count"],
                    tuple(sorted(c["size"] for c in obj["classes"])),
                    members == list(range(obj["count"])))
        if kind == "cover":
            return (obj["base"], obj["cover"], obj["verified"])
        if kind == "index":
            phi = obj["phi"]
            return (obj["manifold"], tuple(phi["s"]), tuple(phi["v"]),
                    phi["h"], obj["index"])
        if kind == "involutions":
            return (obj["cover"], tuple((d["base"], d["index"])
                                        for d in obj["quotients"]))
    except (ValueError, KeyError, TypeError):
        return None
    raise ValueError("unknown query kind %r" % (query.kind,))


def _sf_encode(family, b, betas):
    eps, g, _, _ = SHAPES[family]
    body = "".join("(%d,%d)" % p for p in sorted(pairs_of(family, betas)))
    return "SF(%d; %+d; %d; %s)" % (b, eps, g, body)


def check_claim(query, claim):
    """True iff the claim agrees with a route independent of the one the CLI took."""
    import nilbu
    m = nilbu.NilManifold(query.family, query.b, query.betas)
    enc = encode(query.family, query.b, query.betas)
    kind = query.kind
    if kind == "classify":
        pairs = pairs_of(query.family, query.betas)
        e = query.b + sum((Fraction(beta, a) for a, beta in pairs), Fraction(0))
        lcm = math.lcm(*(a for a, _ in pairs)) if pairs else 1
        return claim == (enc, _sf_encode(query.family, query.b, query.betas),
                         str(e), int(e * lcm),
                         sum(1 for a, _ in pairs if a % 2 == 0),
                         b_min_of(query.family, query.betas))
    if kind == "h1":
        free_rank, torsion = nilbu.h1_closed_form(m)
        return claim == (enc, free_rank, tuple(torsion))
    if kind == "epis":
        return claim == (enc, nilbu.expected_epi_count(m),
                         tuple(sorted(nilbu.expected_partition_shape(m))), True)
    if kind == "cover":
        return claim[0] == enc and claim[2] is True
    if kind == "index":
        _, s, v, h, index = claim
        phi = nilbu.char_for(m, s, v, h)
        one = nilbu.index_one_case(m, phi) is not None
        three = nilbu.index_three_case(m, phi) is not None
        expected = 1 if one else 3 if three else 2
        return claim[0] == enc and not (one and three) and index == expected
    if kind == "involutions":
        expected = tuple((base.encode(), index)
                         for base, index in nilbu.expected_quotient_diagram(m))
        return claim == (enc, expected)
    return False


class Gate:
    """Collects claims per distinct argv while timing; checks them afterwards.

    An operation fails when it exits non-zero or crashes, when its output
    does not parse, when the same argv gave a different claim earlier, or
    when its claim fails the independent check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.claims = {}  # argv -> [query, claim, count]

    def record(self, query, rc, text):
        self.attempted += 1
        claim = claim_of(query, rc, text)
        seen = self.claims.get(query.key())
        if claim is None or (seen is not None and seen[1] != claim):
            self.failed += 1
        elif seen is None:
            self.claims[query.key()] = [query, claim, 1]
        else:
            seen[2] += 1

    def tally(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self):
        from nilbu import NilError
        for query, claim, count in self.claims.values():
            try:
                ok = check_claim(query, claim)
            except NilError:  # e.g. the reported phi is no epimorphism
                ok = False
            if not ok:
                sys.stderr.write("wrong output for %r: %r\n" % (query.argv, claim))
                self.failed += count
        self.claims.clear()


def check_sweep(depth, rc, text):
    """verify must exit 0 with ok true and the expected manifold and pair counts."""
    if rc != 0:
        return False
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return (obj.get("ok") is True and obj.get("failures") == []
            and (obj.get("manifolds"), obj.get("pairs")) == EXPECTED_SWEEP[depth])


# -- timed runs ----------------------------------------------------------------

def rounds_for(workload, seconds, size):
    """Whole rounds to run back to back: --seconds over the nominal round time.

    The count does not depend on how fast the machine happens to be during
    the run, so every run of a workload measures the same work and mix, and
    its percentiles rest on the same number of samples.
    """
    return max(1, round(seconds / size["round_s"][workload]))


def hd_quantile(samples, p, steps=16):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta(p(n+1), (1-p)(n+1)) mass on [(i-1)/n, i/n] (Simpson's rule, steps
    subintervals each).  Where the samples cluster with gaps between them,
    as query kinds and family rows make them here, it moves smoothly
    instead of jumping across a gap as one order statistic does.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        ys = [pdf(lo + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(rounds):
    """Highest percentile with at least ten samples beyond it; (value, label).

    rounds holds the latencies of each round of the run.  With eleven or
    more rounds of eleven or more samples the percentile is taken in every
    round and the median over rounds is reported, so that a few stalls of
    the shared machine (a whole-run p99.9 rests on ten samples) do not set
    it.  Otherwise the samples are pooled; with fewer than eleven no
    percentile qualifies and the maximum is reported, labelled as such.
    Percentiles are Harrell-Davis estimates.
    """
    def one(samples):
        n = len(samples)
        return hd_quantile(samples, (n - 10) / n)

    sizes = sorted(len(r) for r in rounds)
    if len(rounds) >= 11 and sizes[0] >= 11:
        n = sizes[0]  # the rounds of a workload are all one size
        return (statistics.median(one(r) for r in rounds),
                "p%.1f of each round (n=%d per round, 10 samples beyond, "
                "Harrell-Davis), median over %d rounds"
                % (100 * (n - 10) / n, n, len(rounds)))
    pooled = [x for r in rounds for x in r]
    n = len(pooled)
    if n < 11:
        return max(pooled), "max (n=%d < 11, no percentile has ten samples beyond it)" % n
    return one(pooled), "p%.1f (n=%d, 10 samples beyond, Harrell-Davis)" % (
        100 * (n - 10) / n, n)


def verify_argv(size):
    return ["verify", "--b-max", str(size["depth"]), "--format", "json"]


CLI_ARGS = ["-c", "import sys; from nilbu.cli import main; sys.exit(main())"]


def timed_verify_sweep(n_rounds, seed, size):
    depth = size["depth"]
    sweeps, rss = [], []
    gate = Gate()
    for _ in range(n_rounds):
        elapsed, rc, out, maxrss = run_child(CLI_ARGS + verify_argv(size))
        sweeps.append(elapsed)
        rss.append(maxrss)
        ok = check_sweep(depth, rc, out)
        gate.tally(ok)
        if not ok:
            sys.stderr.write("verify sweep failed: rc=%r %s\n" % (rc, out[:300]))
    pairs = EXPECTED_SWEEP[depth][1]
    return {"wall": sweeps, "rounds": [[s] for s in sweeps],
            "ops": pairs * len(sweeps),
            "ops_unit": "pairs verified", "peak_rss_kb": max(rss),
            "round_label": "one `nilbu verify --b-max %d` process" % depth,
            "gate": gate}


def serve(queries, cold, gate, tracer=None):
    """Send queries through nilbu.cli.main; returns their latencies.

    cold clears the lru caches before each query, outside the clock, as a
    fresh process per query would start.  With a tracer, each query is one
    request id.
    """
    import nilbu.cli
    main = nilbu.cli.main  # the tracer's wrapper while one is installed
    latencies = []
    for query in queries:
        if cold:
            spans.clear_caches()
        if tracer:
            tracer.request += 1
        elapsed, rc, out = call_main(main, query)
        latencies.append(elapsed)
        gate.record(query, rc, out)
    return latencies


def _timed_in_process(n_rounds, rounds, cold, round_label):
    gate = Gate()
    per_round = []
    spans.clear_caches()
    for queries in itertools.islice(rounds, n_rounds):
        per_round.append(serve(queries, cold, gate))
    return {"wall": [sum(done) for done in per_round], "rounds": per_round,
            "ops": sum(map(len, per_round)),
            "ops_unit": "queries",
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "round_label": round_label, "gate": gate}


def timed_large_b(n_rounds, seed, size):
    rounds = (large_b_round(seed, r, size) for r in itertools.count())
    return _timed_in_process(n_rounds, rounds, True,
                             "one round of %d cold-cache queries"
                             % (len(ROWS) * len(LARGE_B_KINDS)))


def timed_warm_stream(n_rounds, seed, size):
    stream = warm_stream(seed, size)
    rounds = ([next(stream) for _ in range(size["chunk"])]
              for _ in itertools.count())
    return _timed_in_process(n_rounds, rounds, False,
                             "one chunk of %d warm-cache queries" % size["chunk"])


TIMED = {"verify-sweep": timed_verify_sweep, "large-b": timed_large_b,
         "warm-stream": timed_warm_stream}


# -- traced runs -----------------------------------------------------------------
# A traced run does a fixed amount of work, so that its counts repeat
# exactly for one seed: the same work once untraced and once traced, each
# from empty caches.  The difference in wall time is the tracing overhead.

def spans_path(workload, seed):
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, "spans-%s-seed%d.tsv.gz" % (workload, seed))


def traced_verify_sweep(seed, size, gate):
    argv = verify_argv(size)
    walls, result = [], None
    for trace in (0, 1):
        args = [os.path.join(ROOT, "perfbench", "cli_child.py"), str(trace)]
        if trace:
            args.append(spans_path("verify-sweep", seed))
        _, rc, out, _ = run_child(args + ["--"] + argv)
        try:
            result = json.loads(out)
        except ValueError:
            result = {"rc": rc, "stdout": "", "main_s": 0.0}
        walls.append(result["main_s"])
        gate.tally(rc == 0 and check_sweep(size["depth"], result["rc"],
                                           result["stdout"]))
    if "metrics" not in result:
        raise RuntimeError("the traced verify process reported no metrics")
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    return walls, metrics, result["bases"]


def traced_in_process(workload, seed, size, gate):
    cold = workload == "large-b"
    if cold:
        queries = large_b_round(seed, 0, size)
    else:
        queries = list(itertools.islice(warm_stream(seed, size),
                                        size["trace_queries"]))
    spans.clear_caches()
    untraced = sum(serve(queries, cold, gate))
    spans.clear_caches()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s = sum(serve(queries, cold, gate, tracer))
    finally:
        tracer.uninstall()
    tracer.write(spans_path(workload, seed))
    return [untraced, traced_s], tracer.summary(), tracer.bases()


def traced(workload, seed, size):
    """Per-layer metrics, the tracing overhead and the counts behind ratios."""
    gate = Gate()
    if workload == "verify-sweep":
        walls, metrics, bases = traced_verify_sweep(seed, size, gate)
    else:
        walls, metrics, bases = traced_in_process(workload, seed, size, gate)
    gate.check()
    untraced, with_trace = walls
    metrics["trace.overhead_s"] = (with_trace - untraced, "s")
    metrics["trace.overhead_ratio"] = (
        (with_trace - untraced) / untraced if untraced else 0.0, "ratio")
    return metrics, bases, walls, gate
