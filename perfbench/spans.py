"""In-memory spans around the public functions of each nilbu layer.

The tracer is installed from outside the package: every function listed in
TRACED is replaced by a recording wrapper in each module that binds it
(the package imports with ``from .x import y``, so a function can be bound
in several modules).  A span records its name, request id, start, end and
parent span; spans live in arrays until the run ends, when summary() turns
them into per-layer metrics and write() dumps them.  Counts that need a
call's arguments or result (relator letters built, moves applied,
epimorphisms found per character tried) are recorded in the wrapper.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter

LAYERS = ("seifert", "presentation", "homology", "epimorphisms", "coverings",
          "bu_index", "cli")

TRACED = {
    "seifert": ("euler_number", "b_min", "parse_manifold"),
    "presentation": ("fundamental_group", "reidemeister_schreier",
                     "check_epimorphism"),
    "homology": ("smith_normal_form", "h1"),
    "epimorphisms": ("enumerate_epis", "equivalence_classes", "apply_move",
                     "validate_char"),
    "coverings": ("double_cover", "verify_cover", "quotients_of"),
    "bu_index": ("z2_index", "index_report"),
    "cli": ("main", "build_parser"),
}

# the lru_cache'd functions, by the layer that defines them
CACHED = {"fundamental_group": "presentation", "h1": "homology",
          "enumerate_epis": "epimorphisms",
          "equivalence_classes": "epimorphisms"}

NAMES = tuple("%s.%s" % (layer, fn) for layer, fns in TRACED.items()
              for fn in fns)


def cached_functions():
    """The four lru_cache'd functions as the package defines them."""
    found = [getattr(importlib.import_module("nilbu." + layer), fn)
             for fn, layer in CACHED.items()]
    # while a tracer is installed the module holds its wrapper
    return [fn if hasattr(fn, "cache_info") else fn.__wrapped__ for fn in found]


def clear_caches() -> None:
    """Empty every lru cache, as a fresh process would start."""
    for fn in cached_functions():
        fn.cache_clear()


def _generator_count(m) -> int:
    # generators of the standard presentation: s_i per cone, v_j per base
    # class, and h; read from the family table so no cache is touched
    from nilbu.seifert import FAMILIES
    _, g, orders, _ = FAMILIES[m.family]
    return len(orders) + g + 1


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.name_ids = array("q")
        self.requests = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack: list[int] = []
        self.request = 0
        self.counts: Counter = Counter()
        self._patched: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("nilbu")] + [
            importlib.import_module("nilbu." + layer) for layer in LAYERS]
        wrappers = {}
        for layer, fns in TRACED.items():
            for fn_name in fns:
                fn = getattr(importlib.import_module("nilbu." + layer), fn_name)
                name = "%s.%s" % (layer, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(NAMES.index(name), fn_name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name_id: int, fn_name: str, fn):
        name_ids, requests = self.name_ids, self.requests
        starts, ends, parents = self.starts, self.ends, self.parents
        stack = self.stack
        clock = time.perf_counter_ns
        observe = getattr(self, "_observe_" + fn_name, None)
        cache_info = getattr(fn, "cache_info", None)

        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            requests.append(self.request)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, "error")
                raise
            ends[idx] = clock()
            stack.pop()
            status = "ok"
            if cache_info is not None:
                # per call, because callers may cache_clear() between calls
                status = "hit" if cache_info().misses == misses else "ok"
                self.counts[fn_name + (".hits" if status == "hit" else ".misses")] += 1
            if observe is not None:
                observe(args, result, status)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    # -- counts that need arguments or results ----------------------------
    # status is "ok" (computed), "hit" (served by the lru cache) or "error"

    def _observe_fundamental_group(self, args, result, status):
        if status == "ok":
            self.counts["relator_letters"] += sum(map(len, result.relators))

    def _observe_reidemeister_schreier(self, args, result, status):
        if status == "ok":
            self.counts["rs_relator_letters"] += sum(map(len, result.relators))

    def _observe_enumerate_epis(self, args, result, status):
        if status == "ok":
            self.counts["chars_tried"] += 2 ** _generator_count(args[0]) - 1
            self.counts["epis_found"] += len(result)

    def _observe_apply_move(self, args, result, status):
        self.counts["moves_tried"] += 1
        if status == "ok":
            self.counts["moves_applied"] += 1

    def _observe_quotients_of(self, args, result, status):
        if status == "ok":
            self.counts["quotients_found"] += len(result)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics, {name: (value, unit)}, from the recorded spans."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_ns = [0] * n
        lib_child_ns = [0] * n
        calls = Counter()
        total_ns = Counter()
        cli_ids = {NAMES.index(x) for x in NAMES if x.startswith("cli.")}
        main_id = NAMES.index("cli.main")
        qo_id = NAMES.index("coverings.quotients_of")
        dc_id = NAMES.index("coverings.double_cover")
        candidates = 0
        for i in range(n):
            name_id = self.name_ids[i]
            calls[name_id] += 1
            total_ns[name_id] += dur[i]
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += dur[i]
                if name_id not in cli_ids:
                    lib_child_ns[p] += dur[i]
                if name_id == dc_id and self.name_ids[p] == qo_id:
                    candidates += 1
        layer_self = Counter()
        main_self = 0
        for i in range(n):
            name = NAMES[self.name_ids[i]]
            layer_self[name.split(".")[0]] += dur[i] - child_ns[i]
            if self.name_ids[i] == main_id:
                main_self += dur[i] - lib_child_ns[i]

        def ms(name):
            return total_ns[NAMES.index(name)] / 1e6

        def count(name):
            return calls[NAMES.index(name)]

        def ratio(num, base):
            return num / base if base else 0.0

        c = self.counts
        out = {
            "seifert.euler_number.calls": (count("seifert.euler_number"), "count"),
            "seifert.b_min.calls": (count("seifert.b_min"), "count"),
            "seifert.parse_manifold.ms": (ms("seifert.parse_manifold"), "ms"),
            "presentation.fundamental_group.ms":
                (ms("presentation.fundamental_group"), "ms"),
            "presentation.relator_letters": (c["relator_letters"], "count"),
            "presentation.reidemeister_schreier.ms":
                (ms("presentation.reidemeister_schreier"), "ms"),
            "presentation.rs_relator_letters": (c["rs_relator_letters"], "count"),
            "presentation.check_epimorphism.calls":
                (count("presentation.check_epimorphism"), "count"),
            "homology.smith_normal_form.ms": (ms("homology.smith_normal_form"), "ms"),
            "homology.smith_normal_form.calls":
                (count("homology.smith_normal_form"), "count"),
            "homology.h1.ms": (ms("homology.h1"), "ms"),
            "epimorphisms.enumerate_epis.ms": (ms("epimorphisms.enumerate_epis"), "ms"),
            "epimorphisms.epis_found_ratio":
                (ratio(c["epis_found"], c["chars_tried"]), "ratio"),
            "epimorphisms.equivalence_classes.ms":
                (ms("epimorphisms.equivalence_classes"), "ms"),
            "epimorphisms.apply_move.calls": (count("epimorphisms.apply_move"), "count"),
            "epimorphisms.move_applied_ratio":
                (ratio(c["moves_applied"], c["moves_tried"]), "ratio"),
            "epimorphisms.validate_char.calls":
                (count("epimorphisms.validate_char"), "count"),
            "epimorphisms.validate_char.ms": (ms("epimorphisms.validate_char"), "ms"),
            "coverings.double_cover.ms": (ms("coverings.double_cover"), "ms"),
            "coverings.verify_cover.ms": (ms("coverings.verify_cover"), "ms"),
            "coverings.quotients_of.ms": (ms("coverings.quotients_of"), "ms"),
            "coverings.quotient_candidates": (candidates, "count"),
            "coverings.quotient_hit_ratio":
                (ratio(c["quotients_found"], candidates), "ratio"),
            "bu_index.z2_index.ms": (ms("bu_index.z2_index"), "ms"),
            "bu_index.index_report.ms": (ms("bu_index.index_report"), "ms"),
            "cli.main.self_ms": (main_self / 1e6, "ms"),
            "cli.build_parser.ms": (ms("cli.build_parser"), "ms"),
        }
        for fn_name in CACHED:
            hits, misses = c[fn_name + ".hits"], c[fn_name + ".misses"]
            out[fn_name + ".hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        for layer in LAYERS[:-1]:  # the cli layer's self time is cli.main.self_ms
            out[layer + ".self_ms"] = (layer_self[layer] / 1e6, "ms")
        return out

    def bases(self) -> dict:
        """The numerators and bases behind each ratio, as exact counts."""
        keys = ["chars_tried", "epis_found", "moves_tried", "moves_applied",
                "quotients_found"]
        keys += [fn + suffix for fn in CACHED for suffix in (".hits", ".misses")]
        return {k: self.counts[k] for k in keys}

    def write(self, path: str) -> None:
        """Dump every span as tab-separated name, request, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\trequest\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.starts)):
                out.write("%s\t%d\t%d\t%d\t%d\n" % (
                    NAMES[self.name_ids[i]], self.requests[i], self.starts[i],
                    self.ends[i], self.parents[i]))
