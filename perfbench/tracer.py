"""Spans and counters around rostcalc's public functions, for the traced run.

``Tracer.install()`` swaps each traced function for a wrapper in every
rostcalc namespace that holds it: module globals (so a name one module
imported from another is covered too, as ``val`` is in corresp, endalg,
steenrod, verify and sympow), module-level dicts such as ``verify.SUITES``
and ``cli.COMMANDS``, and class attributes for methods (so ``__rmul__ =
__mul__`` aliases are covered).  ``uninstall()`` puts the originals back.

A span records name, start, end and parent.  Spans stay in memory in flat
arrays and are written out once, by ``write_spans``, after the run.
"""

import functools
import sys
import time
from array import array
from collections import Counter

_WIDE = "scaled_wall_s, peak_rss_mb on audit-wide; no change on audit-grid"
_GRID = "scaled_job_ms_p50, scaled_job_ms_p90 on audit-grid"
_TABLES = "scaled_wall_s on tables"
_ENUM = "scaled_wall_s on tables; no change on requests"
_TAIL = "scaled_job_ms_p99 on requests"
_CORR = "scaled_job_ms_p90, scaled_job_ms_p99 on requests"
_SMALL = "scaled_job_ms_p50 on requests"

#: Per-layer metrics: (name, unit, better, the end-to-end metric on the
#: workload that a change to this layer should move).  BENCHMARK.json lists
#: the same names, units and directions.
PER_LAYER = (
    ("steenrod.audit_s", "s", "lower", _WIDE),
    ("steenrod.expand_s", "s", "lower", _WIDE),
    ("steenrod.classify_s", "s", "lower", _WIDE),
    ("steenrod.products", "count", "lower", _WIDE),
    ("steenrod.classify_calls", "count", "lower", _WIDE),
    ("steenrod.classify_useful_ratio", "ratio", "higher", _WIDE),
    ("steenrod.replay_s", "s", "lower", _GRID),
    ("steenrod.verdicts", "count", "higher", _GRID),
    ("steenrod.verdicts_per_s", "1/s", "higher", _GRID),
    ("steenrod.cartan_cache_hit_ratio", "ratio", "higher", _GRID),
    ("steenrod.grid_zero", "count", "higher", "none: 17,349 on audit-grid"),
    ("steenrod.grid_at_least", "count", "higher",
     "none: 64,445 on audit-grid"),
    ("steenrod.grid_exact", "count", "higher", "none: 97 on audit-grid"),
    ("motcoh.enumerate_s", "s", "lower", _ENUM),
    ("motcoh.enumerate_calls", "count", "lower", _ENUM),
    ("motcoh.monomials", "count", "higher", _ENUM),
    ("motcoh.row_s", "s", "lower", _ENUM),
    ("rostchow.closed_s", "s", "lower", _TABLES),
    ("rostchow.recurrence_self_s", "s", "lower", _TABLES),
    ("rostchow.compare_s", "s", "lower", _TABLES),
    ("corresp.compose_s", "s", "lower", _CORR),
    ("corresp.compose_calls", "count", "lower", _CORR),
    ("corresp.mul_calls", "count", "lower", _CORR),
    ("splitring.mul_calls", "count", "lower", _TAIL),
    ("arith.val_calls", "count", "lower", _TAIL),
    ("endalg.s", "s", "lower", _TAIL),
    ("sympow.verify_s", "s", "lower", _TAIL),
    ("sympow.matmul_calls", "count", "lower", _TAIL),
    ("exprlang.parse_s", "s", "lower", _SMALL),
    ("exprlang.evaluate_s", "s", "lower", _SMALL),
    ("exprlang.ast_nodes", "count", "lower", _SMALL),
    ("cli.self_s", "s", "lower", _SMALL),
    ("verify.correspondences_s", "s", "lower", _TAIL),
    ("verify.symmpow_s", "s", "lower", _TAIL),
    ("verify.endalg_s", "s", "lower", _TAIL),
    ("cli.requests", "count", "higher", "none: 1,000 on requests"),
    ("cli.nonzero_exits", "count", "lower", "none: 0 while requests succeed"),
    ("trace.overhead_pct", "%", "lower",
     "none: traced against untraced scaled_wall_s"),
)

#: groups whose metric is self time (duration minus traced children)
SELF_TIME = {"rostchow.recurrence": "rostchow.recurrence_self_s",
             "cli.main": "cli.self_s"}


def _ast_nodes(node):
    return 1 + sum(_ast_nodes(c) for c in node.children)


class Tracer:
    """Flat, in-memory span store plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self._classify_keys = set()
        self._undo = []

    # --- wrappers --------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span, then runs after(args,
        result) outside the span (for counters that read the result)."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap fn so that each call bumps a counter (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset_stack(self):
        """Forget open spans after a job was interrupted mid-call."""
        del self._stack[1:]

    # --- hooks -------------------------------------------------------------

    def _after_audit(self, args, report):
        self.counts["steenrod.verdicts"] += sum(report.counts().values())
        self.counts["steenrod.classify_keys"] += len(self._classify_keys)
        self._classify_keys.clear()

    def _after_classify(self, args, verdict):
        prod = args[0]
        ctx, kinds = prod.context, prod.classify()
        self._classify_keys.add(
            (ctx.kind, ctx.m, ctx.s, ctx.r, ctx.i, ctx.j, ctx.k, ctx.l,
             kinds["theta"], kinds["second"], kinds["third"]))

    def _after_expand(self, args, products):
        self.counts["steenrod.products"] += len(products)

    def _after_enumerate(self, args, monomials):
        self.counts["motcoh.monomials"] += len(monomials)

    def _after_parse(self, args, node):
        self.counts["exprlang.ast_nodes"] += _ast_nodes(node)

    def _after_main(self, args, code):
        self.counts["cli.requests"] += 1
        self.counts["cli.nonzero_exits"] += code != 0

    # --- installation ----------------------------------------------------

    def _targets(self):
        """(owner, attribute, make_wrapper) for everything traced."""
        from rostcalc import (arith, cli, corresp, endalg, exprlang, motcoh,
                              rostchow, splitring, steenrod, sympow, verify)

        def span(name, after=None):
            return lambda fn: self.span(name, fn, after)

        def count(name):
            return lambda fn: self.count(name, fn)

        audit = span("steenrod.audit", self._after_audit)
        out = [
            (steenrod, "audit_rationality", audit),
            (steenrod, "audit_generators", audit),
            (steenrod, "cartan_expand", span("steenrod.expand")),
            (steenrod, "substitute_dcmp",
             span("steenrod.expand", self._after_expand)),
            (steenrod, "valuation_bound",
             span("steenrod.classify", self._after_classify)),
            (steenrod, "replay", span("steenrod.replay")),
            (motcoh, "enumerate_monomials",
             span("motcoh.enumerate", self._after_enumerate)),
            (motcoh, "even_row", span("motcoh.row")),
            (motcoh, "odd_row", span("motcoh.row")),
            (rostchow, "closed_form", span("rostchow.closed")),
            (rostchow, "recurrence", span("rostchow.recurrence")),
            (rostchow, "compare", span("rostchow.compare")),
            (corresp, "compose", span("corresp.compose")),
            (corresp.Corr, "__mul__", count("corresp.mul_calls")),
            (splitring.ChowClass, "__mul__", count("splitring.mul_calls")),
            (arith, "val", count("arith.val_calls")),
            (sympow.GradedMap, "__matmul__", count("sympow.matmul_calls")),
            (exprlang, "parse", span("exprlang.parse", self._after_parse)),
            (exprlang, "evaluate", span("exprlang.evaluate")),
            (cli, "main", span("cli.main", self._after_main)),
        ]
        for name in ("is_rational", "invert", "identity"):
            out.append((endalg, name, span("endalg")))
        for name in ("__mul__", "__add__", "__sub__", "__pow__", "scale"):
            out.append((endalg.EndTuple, name, span("endalg")))
        for name in ("verify_somesome", "verify_manyi_ccom",
                     "verify_triangles"):
            out.append((sympow, name, span("sympow.verify")))
        for suite in verify.SUITES:
            out.append((verify, f"suite_{suite}", span(f"verify.{suite}")))
        return out

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rostcalc" or name.startswith("rostcalc.")]
        for owner, attr, make in self._targets():
            original = vars(owner)[attr]
            wrapper = make(original)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._swap(owner, key, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append(
                                    functools.partial(value.__setitem__, k,
                                                      original))

    def _swap(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append(functools.partial(setattr, owner, key, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # --- results -----------------------------------------------------------

    def layer_metrics(self, cartan_info):
        """Per-layer metrics from the spans and counters so far.

        A group's time counts each span of the group that has no ancestor
        of the same group (so recursion and wrappers calling wrappers of the
        same layer are not counted twice); SELF_TIME groups subtract the
        time their direct traced children cover instead.
        """
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        groups = self.names
        incl = Counter()
        calls = Counter()
        paths = [frozenset()] * n
        interned = {}
        for i in range(n):
            g = groups[self.span_name[i]]
            par = self.span_parent[i]
            above = paths[par] if par >= 0 else frozenset()
            if par >= 0:
                child[par] += dur[i]
            if g not in above:
                incl[g] += dur[i]
            calls[g] += 1
            key = (above, g)
            if key not in interned:
                interned[key] = above | {g}
            paths[i] = interned[key]
        self_time = Counter()
        for i in range(n):
            g = groups[self.span_name[i]]
            if g in SELF_TIME:
                self_time[SELF_TIME[g]] += dur[i] - child[i]

        c = self.counts
        hits, misses = cartan_info.hits, cartan_info.misses
        out = {
            "steenrod.audit_s": incl["steenrod.audit"],
            "steenrod.expand_s": incl["steenrod.expand"],
            "steenrod.classify_s": incl["steenrod.classify"],
            "steenrod.products": c["steenrod.products"],
            "steenrod.classify_calls": calls["steenrod.classify"],
            "steenrod.classify_useful_ratio":
                c["steenrod.classify_keys"] / calls["steenrod.classify"]
                if calls["steenrod.classify"] else 0.0,
            "steenrod.replay_s": incl["steenrod.replay"],
            "steenrod.verdicts": c["steenrod.verdicts"],
            "steenrod.verdicts_per_s":
                c["steenrod.verdicts"] / incl["steenrod.audit"]
                if incl["steenrod.audit"] else 0.0,
            "steenrod.cartan_cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "motcoh.enumerate_s": incl["motcoh.enumerate"],
            "motcoh.enumerate_calls": calls["motcoh.enumerate"],
            "motcoh.monomials": c["motcoh.monomials"],
            "motcoh.row_s": incl["motcoh.row"],
            "rostchow.closed_s": incl["rostchow.closed"],
            "rostchow.recurrence_self_s":
                self_time["rostchow.recurrence_self_s"],
            "rostchow.compare_s": incl["rostchow.compare"],
            "corresp.compose_s": incl["corresp.compose"],
            "corresp.compose_calls": calls["corresp.compose"],
            "corresp.mul_calls": c["corresp.mul_calls"],
            "splitring.mul_calls": c["splitring.mul_calls"],
            "arith.val_calls": c["arith.val_calls"],
            "endalg.s": incl["endalg"],
            "sympow.verify_s": incl["sympow.verify"],
            "sympow.matmul_calls": c["sympow.matmul_calls"],
            "exprlang.parse_s": incl["exprlang.parse"],
            "exprlang.evaluate_s": incl["exprlang.evaluate"],
            "exprlang.ast_nodes": c["exprlang.ast_nodes"],
            "cli.self_s": self_time["cli.self_s"],
            "verify.correspondences_s": incl["verify.correspondences"],
            "verify.symmpow_s": incl["verify.symmpow"],
            "verify.endalg_s": incl["verify.endalg"],
            "cli.requests": c["cli.requests"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        return out

    def write_spans(self, path):
        """One line per span: id, parent id, name, start and end in
        seconds of the tracer's clock."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
