"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` replaces each traced public function of `ucayley` by a
timing wrapper in every module namespace listed for it, so calls from other
modules (and nested calls such as the alpha retry inside `is_well_covered`)
become child spans.  A span records its name, start, end, busy time, parent
and task; spans stay in memory until `write` at the end of the run.  A
layer's self time is its busy time minus the busy time of its child spans.

`enumerate_maximal_independent` is a generator: its span is busy only
inside `next()`, from the first item to exhaustion, not in the call that
returns the generator.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from importlib import import_module

# metric stem, attribute, owners whose attribute is replaced.  An owner is a
# module, or a module plus a class name.  Owners are listed per function, not
# discovered: a recursive function is not wrapped in its own module (make_ring,
# jacobson_radical, det_entries), and is_well_covered's own enumeration stays
# its self time, so `indsets.enum_*` counts only full enumerations.
PATCHES = (
    ("rings.parse", "parse_spec", ("ucayley", "ucayley.rings")),
    ("rings.make", "make_ring", ("ucayley", "ucayley.verify")),
    ("rings.units", "units", ("ucayley.rings.Ring",)),
    ("rings.radical", "jacobson_radical", ("ucayley", "ucayley.verify")),
    ("rings.det", "det_entries", ("ucayley.verify", "ucayley.constructions")),
    ("graphs.build", "build_graph", ("ucayley", "ucayley.verify", "ucayley.constructions")),
    ("graphs.conj", "conjunction_product", ("ucayley", "ucayley.verify")),
    ("indsets.alpha", "independence_number", ("ucayley", "ucayley.indsets", "ucayley.verify")),
    ("indsets.wc", "is_well_covered", ("ucayley", "ucayley.verify")),
    ("indsets.enum", "enumerate_maximal_independent",
     ("ucayley", "ucayley.complexes", "ucayley.verify")),
    ("indsets.greedy", "greedy_extend", ("ucayley", "ucayley.verify", "ucayley.constructions")),
    ("complexes.complex", "independence_complex", ("ucayley", "ucayley.verify")),
    ("complexes.skeleton", "pure_skeleton", ("ucayley", "ucayley.verify")),
    ("complexes.codim1", "codim1_connected", ("ucayley", "ucayley.complexes", "ucayley.verify")),
    ("complexes.shelling", "find_shelling", ("ucayley", "ucayley.verify")),
    ("complexes.export", "export_stanley_reisner", ("ucayley",)),
    ("structure.classify", "classify_well_covered", ("ucayley", "ucayley.verify")),
    ("structure.classify", "classify_cm", ("ucayley",)),
    ("structure.classify", "classify_gorenstein", ("ucayley", "ucayley.verify")),
    ("structure.classify", "semisimple_quotient", ("ucayley",)),
    ("constructions.dfamily", "d_family", ("ucayley", "ucayley.constructions")),
    ("constructions.avoidance", "avoidance_partner", ("ucayley", "ucayley.constructions")),
    ("constructions.row_mix", "row_mix", ("ucayley", "ucayley.constructions")),
    ("constructions.witness", "product_witness", ("ucayley", "ucayley.constructions")),
)

# Searches whose node count is read from the Budget passed as argument 1.
COUNTS_NODES = {"indsets.alpha", "indsets.wc", "indsets.enum", "complexes.shelling"}
GENERATORS = {"indsets.enum"}
CHECK_LISTS = ("SMALL_CHECKS", "MEDIUM_CHECKS")

UNMEASURED = -1.0  # metric value of a layer that never fired
SPAN_FIELDS = ["id", "name", "task", "sample", "parent", "start", "end", "busy", "self",
               "nodes", "items", "error"]


def _owner(path):
    try:
        return import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(import_module(module), name)


class Span:
    __slots__ = ("id", "name", "parent", "task", "sample", "start", "end", "busy",
                 "child_busy", "nodes", "items", "info", "error", "origin", "entered")

    def __init__(self, sid, name, parent, task, sample):
        self.id, self.name, self.parent = sid, name, parent
        self.task, self.sample = task, sample
        self.start = self.end = self.entered = None
        self.busy = self.child_busy = 0.0
        self.nodes = self.items = 0
        self.info = self.error = None
        self.origin = False

    @property
    def self_time(self):
        return self.busy - self.child_busy


class Tracer:
    def __init__(self):
        import ucayley.indsets
        self._budget = ucayley.indsets.Budget
        self.spans = []  # finished spans
        self.opened = 0
        self.stack = []
        self.task = "setup"
        self.sample = None  # None during set-up, else which traced run of the task
        self._last_exc = None
        self._patches = []  # (owner, attribute or None for a check list, original, wrapper)
        for stem, attr, owners in PATCHES:
            objs = [_owner(path) for path in owners]
            original = getattr(objs[0], attr)
            wrapper = (self._wrap_generator if stem in GENERATORS else self._wrap)(stem, original)
            for obj, path in zip(objs, owners):
                if getattr(obj, attr) is not original:
                    raise RuntimeError("%s.%s is not the function the tracer wraps" % (path, attr))
                self._patches.append((obj, attr, original, wrapper))
        import ucayley.verify
        for name in CHECK_LISTS:
            checks = getattr(ucayley.verify, name)
            self._patches.append((checks, None, list(checks), [
                (cid, desc, self._wrap("verify.check." + cid, fn)) for cid, desc, fn in checks]))

    # --- installation --------------------------------------------------------

    def install(self):
        for obj, attr, _, wrapper in self._patches:
            if attr is None:
                obj[:] = wrapper
            else:
                setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, original, _ in self._patches:
            if attr is None:
                obj[:] = original
            else:
                setattr(obj, attr, original)

    def begin_task(self, task, sample):
        self.task, self.sample = task, sample
        self._last_exc = None

    # --- spans ---------------------------------------------------------------

    def _new(self, name):
        self.opened += 1
        return Span(self.opened, name, self.stack[-1] if self.stack else None,
                    self.task, self.sample)

    def _enter(self, span):
        span.entered = time.perf_counter()
        if span.start is None:
            span.start = span.entered
        self.stack.append(span)

    def _leave(self, span):
        span.end = time.perf_counter()
        span.busy += span.end - span.entered
        self.stack.pop()

    def _finish(self, span):
        self.spans.append(span)
        if span.parent is not None:
            span.parent.child_busy += span.busy

    def _error(self, span, exc):
        span.error = type(exc).__name__
        span.origin = exc is not self._last_exc  # else a child span recorded it first
        self._last_exc = exc

    def _budget_of(self, args, kwargs):
        """The Budget a search will tick, made explicit when the caller passed none."""
        if len(args) > 1:
            if args[1] is None:
                args = (args[0], self._budget()) + args[2:]
            return args, kwargs, args[1]
        if kwargs.get("budget") is None:
            kwargs = dict(kwargs, budget=self._budget())
        return args, kwargs, kwargs["budget"]

    def _wrap(self, name, fn):
        counts_nodes = name in COUNTS_NODES
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_nodes:
                args, kwargs, budget = self._budget_of(args, kwargs)
                before = budget.nodes
            span = self._new(name)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(span, exc)
                raise
            finally:
                if counts_nodes:
                    span.nodes = budget.nodes - before
                self._leave(span)
                self._finish(span)
            if after is not None:
                after(span, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args, kwargs, budget = self._budget_of(args, kwargs)
            return self._drive(self._new(name), fn(*args, **kwargs), budget)
        return traced

    def _drive(self, span, gen, budget):
        try:
            while True:
                self._enter(span)
                before = budget.nodes
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._error(span, exc)
                    raise
                finally:
                    span.nodes += budget.nodes - before
                    self._leave(span)
                span.items += 1
                yield item
        finally:
            gen.close()
            self._finish(span)

    def write(self, path):
        """One JSON array per span, in the order of SPAN_FIELDS; times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.name, s.task, s.sample,
                    None if s.parent is None else s.parent.id,
                    round(s.start, 7), round(s.end, 7), round(s.busy, 7), round(s.self_time, 7),
                    s.nodes, s.items, s.error], separators=(",", ":")) + "\n")


# --- per-span measurements taken after the call returns ------------------------

def _after_make(span, ring):
    span.items = ring.order


def _after_units(span, units):
    span.items = len(units)


def _after_build(span, g):
    span.items = g.n
    span.info = {"edges": g.edge_count(),
                 "adj_bytes": sys.getsizeof(g.adj) + sum(sys.getsizeof(r) for r in g.adj)}


def _after_complex(span, c):
    span.items = len(c.facets)


def _after_wc(span, report):
    span.info = {"inconclusive": report.answer == "inconclusive"}


AFTER = {"rings.make": _after_make, "rings.units": _after_units,
         "graphs.build": _after_build, "complexes.complex": _after_complex,
         "indsets.wc": _after_wc}


# --- per-layer metrics ----------------------------------------------------------

def layer_metrics(spans, samples, check_ids):
    """Per-layer metrics per pass over the task list.

    Set-up spans count once; a task's spans count divided by `samples[task]`,
    the number of traced runs of that task.

    Returns {name: (value, unit)}.  A metric whose spans never fired has the
    value UNMEASURED, never 0.
    """
    groups = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)
    layers_fired = {name.split(".")[0] for name in groups}

    def per_pass(group, get):
        setup = sum(get(s) for s in group if s.sample is None)
        by_task = {}
        for s in group:
            if s.sample is not None:
                by_task[s.task] = by_task.get(s.task, 0) + get(s)
        return setup + sum(v / samples[task] for task, v in by_task.items())

    def total(name, get):
        group = groups.get(name)
        return per_pass(group, get) if group else UNMEASURED

    def self_s(name):
        return total(name, lambda s: s.self_time)

    def items(name):
        return total(name, lambda s: s.items)

    def nodes(name):
        return total(name, lambda s: s.nodes)

    def ratio(num, den, scale=1.0):
        if num == UNMEASURED or den == UNMEASURED or den == 0:
            return UNMEASURED
        return scale * num / den

    def indsets_count(pick):
        if "indsets" not in layers_fired:
            return UNMEASURED
        return per_pass([s for s in spans if s.name.startswith("indsets.")], pick)

    def summed(values):
        measured = [v for v in values if v != UNMEASURED]
        return sum(measured) if measured else UNMEASURED

    build = groups.get("graphs.build")
    edges = total("graphs.build", lambda s: s.info["edges"])
    search_s = summed([self_s("indsets.alpha"), self_s("indsets.wc"), self_s("indsets.enum")])
    search_nodes = summed([nodes("indsets.alpha"), nodes("indsets.wc"), nodes("indsets.enum")])
    m = {
        "rings.parse_s": (self_s("rings.parse"), "s"),
        "rings.make_s": (self_s("rings.make"), "s"),
        "rings.units_s": (self_s("rings.units"), "s"),
        "rings.radical_s": (self_s("rings.radical"), "s"),
        "rings.det_s": (self_s("rings.det"), "s"),
        "rings.order_sum": (items("rings.make"), "count"),
        "rings.unit_sum": (items("rings.units"), "count"),
        "graphs.build_s": (self_s("graphs.build"), "s"),
        "graphs.build_calls": (total("graphs.build", lambda s: 1), "count"),
        "graphs.vertices": (items("graphs.build"), "count"),
        "graphs.edges": (edges, "count"),
        "graphs.ns_per_edge": (ratio(self_s("graphs.build"), edges, 1e9), "ns/edge"),
        "graphs.adj_mb": (max(s.info["adj_bytes"] for s in build) / 2 ** 20 if build
                          else UNMEASURED, "MiB-computed"),
        "graphs.conj_s": (self_s("graphs.conj"), "s"),
        "indsets.alpha_s": (self_s("indsets.alpha"), "s"),
        "indsets.alpha_nodes": (nodes("indsets.alpha"), "count"),
        "indsets.wc_s": (self_s("indsets.wc"), "s"),
        "indsets.wc_nodes": (nodes("indsets.wc"), "count"),
        "indsets.enum_s": (self_s("indsets.enum"), "s"),
        "indsets.enum_nodes": (nodes("indsets.enum"), "count"),
        "indsets.sets_yielded": (items("indsets.enum"), "count"),
        "indsets.sets_per_node": (ratio(items("indsets.enum"), nodes("indsets.enum")),
                                  "sets/node"),
        "indsets.ns_per_node": (ratio(search_s, search_nodes, 1e9), "ns/node"),
        "indsets.greedy_s": (self_s("indsets.greedy"), "s"),
        "indsets.budget_trips": (indsets_count(
            lambda s: (s.error == "BudgetExceededError" and s.origin)
            or bool(s.info and s.info.get("inconclusive"))), "count"),
        "indsets.errors": (indsets_count(
            lambda s: s.error is not None and s.error != "BudgetExceededError" and s.origin),
            "count"),
        "complexes.complex_s": (self_s("complexes.complex"), "s"),
        "complexes.facets": (items("complexes.complex"), "count"),
        "complexes.skeleton_s": (self_s("complexes.skeleton"), "s"),
        "complexes.codim1_s": (self_s("complexes.codim1"), "s"),
        "complexes.shelling_s": (self_s("complexes.shelling"), "s"),
        "complexes.shelling_nodes": (nodes("complexes.shelling"), "count"),
        "complexes.export_s": (self_s("complexes.export"), "s"),
        "structure.classify_s": (self_s("structure.classify"), "s"),
        "constructions.dfamily_s": (self_s("constructions.dfamily"), "s"),
        "constructions.avoidance_s": (self_s("constructions.avoidance"), "s"),
        "constructions.row_mix_s": (self_s("constructions.row_mix"), "s"),
        "constructions.witness_s": (self_s("constructions.witness"), "s"),
    }
    for cid in check_ids:  # a check's whole time, its calls into other layers included
        m["verify.check_s." + cid] = (total("verify.check." + cid, lambda s: s.busy), "s")
    return m
