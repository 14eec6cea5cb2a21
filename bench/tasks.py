"""Task lists, answer oracles and answer checks of the ucayley benchmark.

A task is one ring (on `verify`, one run of the paper checks) together with
every question the workload asks of it.  Each task calls only the public
functions of the `ucayley` modules; its spec strings are fixed here, and the
benchmark seed only shuffles their order.

Oracles are independent of the search code: the closed forms below read
R/J(R) ~= prod_i M_{n_i}(F_{q_i}) from `semisimple_quotient` and |R| from
`spec_order`, the well-covered and Cohen-Macaulay verdicts come from the
classification theorems, and graphs and facet lists must match the sha256
digests recorded from the seed program in `golden.json`.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import ucayley as u
from ucayley.complexes import SHELLING_FOUND, SHELLING_UNKNOWN
from ucayley.rings import spec_order

NODE_BUDGET = 2_000_000
GOLDEN = Path(__file__).with_name("golden.json")

BUILD_RINGS = (
    "M(2,GF(3))", "M(2,GF(4))", "M(2,GF(5))", "M(3,GF(2))", "T(3,GF(3))",
    "M(2,Z(4))", "prod(Z(2),M(2,GF(3)))", "Z(4096)",
)

# `ucayley.verify.CATALOG` as the seed program defines it, fixed here so that
# a change to the program cannot change the benchmark's inputs.
CATALOG = (
    tuple("Z(%d)" % m for m in range(1, 17))
    + tuple("GF(%d)" % q for q in (2, 3, 4, 5, 7, 8, 9))
    + ("T(2,GF(2))", "T(3,GF(2))", "T(2,GF(3))", "M(2,GF(2))", "M(2,GF(3))",
       "prod(Z(2),Z(2))", "prod(Z(2),Z(2),Z(2))", "prod(Z(2),Z(3))",
       "prod(Z(3),Z(3))", "M(2,Z(4))")
)

SEARCH_RINGS = tuple(dict.fromkeys(CATALOG + (
    "prod(Z(2),M(2,GF(3)))", "prod(Z(3),M(2,GF(3)))", "M(3,GF(2))", "T(3,GF(3))",
    "Z(1000)", "Z(1024)", "Z(2048)",
)))

ENUMERATE_RINGS = (
    "M(2,GF(3))", "M(2,Z(4))", "prod(Z(2),Z(2),Z(2),Z(2))", "prod(Z(3),Z(3),Z(3))",
    "prod(GF(4),GF(4),GF(4))", "prod(Z(5),Z(5),Z(5))", "T(3,GF(3))", "Z(30)",
    "prod(Z(2),M(2,GF(2)))",
)

VERIFY_SCALE = "medium"
VERIFY_CHECKS = (
    "lem-ess-alpha", "prop-m2f-wellcovered", "thm-mnf-refute-3-2", "lem-dk-family",
    "lem-comrows-3-2", "prop-rj-z4", "prop-rj-z8", "prop-rj-z12", "prop-rj-t2f2",
    "lem-ab-avoidance", "prop-prod-refute", "conj-product-identity",
    "thm-classify-vs-enum", "thm-cayleycm-obstructions", "prop-prod-unit-count",
    "lem-dk-family-medium", "lem-ab-avoidance-medium",
)

WORKLOADS = ("build", "search", "enumerate", "verify")

# Random 0/1 test vectors per graph in the symmetry check (Freivalds over
# GF(2)); an asymmetric graph escapes one vector with probability <= 1/2.
SYMMETRY_TRIALS = 32


class WrongAnswer(Exception):
    """A definite answer disagrees with its oracle."""


# --- oracles ------------------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    order: int
    units: int  # |U(R)|
    radical: int  # |J(R)|
    alpha: int
    well_covered: bool
    cm: bool


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    return math.prod(q ** n - q ** i for i in range(n))


def closed_forms(spec):
    """(|R|, |J|, |U|, alpha) from R/J(R) ~= prod_i M_{n_i}(F_{q_i}).

    |J| = |R| / prod_i q_i^{n_i^2}, |U| = |J| prod_i |GL_{n_i}(F_{q_i})| and
    alpha = |R| / min_i q_i^{n_i} (alpha = |R| = 1 for the zero ring).
    """
    factors = u.semisimple_quotient(spec)
    order = spec_order(spec)
    radical = order // math.prod(q ** (n * n) for n, q in factors)
    units = radical * math.prod(gl_order(n, q) for n, q in factors)
    alpha = order // min((q ** n for n, q in factors), default=1)
    return order, radical, units, alpha


def make_oracle(text):
    spec = u.parse_spec(text)
    order, radical, units, alpha = closed_forms(spec)
    return Oracle(order, units, radical, alpha,
                  u.classify_well_covered(spec).answer, u.classify_cm(spec).answer)


def graph_digest(g):
    h = hashlib.sha256(g.n.to_bytes(4, "little"))
    width = (g.n + 7) // 8
    for row in g.adj:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


def facets_digest(c):
    return hashlib.sha256(repr(c.facets).encode()).hexdigest()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# --- tasks --------------------------------------------------------------------

@dataclass
class Task:
    workload: str
    text: str  # ring spec, or the run_checks call on `verify`
    oracle: Oracle | None = None
    graph_sha: str | None = None
    facets_sha: str | None = None


@dataclass
class Outcome:
    """Answers and failures of one task's questions."""
    answers: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    graph: object = None  # the task's graph, on `search` and `enumerate`
    report: dict | None = None  # the run_checks report, on `verify`

    def fail(self, question, error):
        self.answers.pop(question, None)
        self.errors[question] = error

    def ask(self, question, fn):
        """Record fn()'s answer, or the type of what it raised."""
        try:
            value = fn()
        except Exception as exc:  # a failed question never aborts the workload
            self.fail(question, type(exc).__name__)
            return None
        self.answers[question] = value
        return value


def plan(workload, seed):
    """The workload's task list with its oracle values, shuffled by seed."""
    if workload == "verify":
        tasks = [Task("verify", "run_checks(scale=%r, seed=%d)" % (VERIFY_SCALE, seed))]
    else:
        golden = load_golden()
        rings = {"build": BUILD_RINGS, "search": SEARCH_RINGS,
                 "enumerate": ENUMERATE_RINGS}[workload]
        tasks = [Task(workload, text, make_oracle(text), golden["graphs"][text],
                      golden["facets"].get(text)) for text in rings]
    random.Random(seed).shuffle(tasks)
    return tasks


def _budget():
    return u.Budget(max_nodes=NODE_BUDGET)


def _graph(text):
    return u.build_graph(u.make_ring(u.parse_spec(text)))


def _build(task, out, seed):
    def pipeline():
        ring = u.make_ring(u.parse_spec(task.text))
        units = ring.units()
        radical = u.jacobson_radical(ring)
        return ring, units, radical, u.build_graph(ring)
    out.ask("build", pipeline)


def _search(task, out, seed):
    g = _graph(task.text)
    out.graph = g
    out.ask("alpha", lambda: u.independence_number(g, _budget()))
    rep = out.ask("well_covered", lambda: u.is_well_covered(g, _budget()))
    if rep is not None and rep.answer == "inconclusive":
        out.fail("well_covered", "inconclusive")


def _enumerate(task, out, seed):
    g = _graph(task.text)
    out.graph = g
    c = out.ask("complex", lambda: u.independence_complex(g, _budget()))
    if c is not None and out.ask("pure", lambda: u.is_pure(c)):
        top = out.ask("skeleton", lambda: u.pure_skeleton(c, c.dim))
        if top is not None:
            out.ask("codim1", lambda: u.codim1_connected(top))
        res = out.ask("shelling", lambda: u.find_shelling(c, _budget()))
        if res is not None and res.status == SHELLING_UNKNOWN:
            out.fail("shelling", "inconclusive")
    out.ask("export", lambda: u.export_stanley_reisner(g))


def _verify(task, out, seed):
    out.report = u.run_checks(scale=VERIFY_SCALE, seed=seed)
    for check in out.report["checks"]:
        out.answers[check["id"]] = check["status"]


RUNNERS = {"build": _build, "search": _search, "enumerate": _enumerate, "verify": _verify}

# Questions that fail together when a task's shared step (its graph build, or
# the run_checks call) raises.
FIRST_QUESTIONS = {"build": ("build",), "search": ("alpha", "well_covered"),
                   "enumerate": ("complex", "export"), "verify": VERIFY_CHECKS}


def run_task(task, seed):
    out = Outcome()
    try:
        RUNNERS[task.workload](task, out, seed)
    except Exception as exc:  # the shared step failed: so did every question on it
        for question in FIRST_QUESTIONS[task.workload]:
            if question not in out.answers:
                out.fail(question, type(exc).__name__)
    return out


# --- answer checks ------------------------------------------------------------

def _need(cond, task, message):
    if not cond:
        raise WrongAnswer("%s %s: %s" % (task.workload, task.text, message))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _symmetric(adj, rng):
    """Freivalds over GF(2): A y == A^T y for random 0/1 vectors y."""
    n = len(adj)
    for _ in range(SYMMETRY_TRIALS):
        y = rng.getrandbits(n) if n else 0
        a_y = 0
        for v, row in enumerate(adj):
            a_y |= ((row & y).bit_count() & 1) << v
        at_y = 0
        for v in _bits(y):
            at_y ^= adj[v]
        if a_y != at_y:
            return False
    return True


def check_graph(task, g):
    o = task.oracle
    _need(g.n == o.order, task, "graph has %d vertices, |R| = %d" % (g.n, o.order))
    degree = o.units - (1 if o.order == 1 else 0)  # the zero ring's loop is dropped
    for v, row in enumerate(g.adj):
        _need(row.bit_count() == degree, task,
              "vertex %d has degree %d, |U| = %d" % (v, row.bit_count(), o.units))
        _need(not row >> v & 1, task, "loop at vertex %d" % v)
    _need(_symmetric(g.adj, random.Random(task.text)), task, "adjacency is not symmetric")
    _need(graph_digest(g) == task.graph_sha, task, "adjacency digest differs from the seed's")


def _check_build(task, out):
    if "build" not in out.answers:
        return
    ring, units, radical, g = out.answers["build"]
    o = task.oracle
    _need(ring.order == o.order, task, "|R| = %d, expected %d" % (ring.order, o.order))
    _need(len(units) == o.units, task, "|U| = %d, expected %d" % (len(units), o.units))
    _need(len(radical) == o.radical, task,
          "|J| = %d, expected %d" % (len(radical), o.radical))
    check_graph(task, g)


def _is_maximal_independent(g, vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    if any(g.adj[v] & mask for v in vertices):
        return False
    return all(mask >> v & 1 or g.adj[v] & mask for v in range(g.n))


def _check_search(task, out):
    o = task.oracle
    check_graph(task, out.graph)
    if "alpha" in out.answers:
        _need(out.answers["alpha"] == o.alpha, task,
              "alpha = %d, oracle %d" % (out.answers["alpha"], o.alpha))
    rep = out.answers.get("well_covered")
    if rep is None:
        return
    _need((rep.answer == "yes") == o.well_covered, task,
          "well-covered %s, theorem says %s" % (rep.answer, o.well_covered))
    _need(rep.alpha == o.alpha, task, "report alpha %d, oracle %d" % (rep.alpha, o.alpha))
    if rep.answer == "no":
        w = rep.witness_small
        _need(w is not None and _is_maximal_independent(out.graph, w), task,
              "'no' witness is not a maximal independent set")
        _need(len(w) < o.alpha, task, "'no' witness has size %d >= alpha" % len(w))


def _check_enumerate(task, out):
    o = task.oracle
    check_graph(task, out.graph)
    a = out.answers
    if "complex" in a:
        c = a["complex"]
        _need(facets_digest(c) == task.facets_sha, task, "facet list digest differs from the seed's")
    if "pure" in a:
        _need(a["pure"] == o.well_covered, task,
              "is_pure %s, well-covered by theorem %s" % (a["pure"], o.well_covered))
    if "skeleton" in a:
        _need(a["skeleton"].facets == c.facets, task,
              "top pure skeleton of a pure complex differs from it")
    if "codim1" in a and o.cm:
        _need(a["codim1"][0], task, "Cohen-Macaulay complex disconnected in codimension 1")
    if "shelling" in a and a["shelling"].status == SHELLING_FOUND:
        _need(o.cm, task, "shelling found, but the theorem says not Cohen-Macaulay")
    if "export" in a:
        lines = a["export"].count("\n")
        edges = o.order * (o.units - (1 if o.order == 1 else 0)) // 2
        _need(lines == 1 + edges, task,
              "edge ideal has %d generators, |E| = %d" % (lines - 1, edges))


def _check_verify(task, out):
    report = out.report
    if report is None:
        return
    _need(report["passed"] is True, task, "run_checks did not pass")
    status = {c["id"]: c["status"] for c in report["checks"]}
    missing = [i for i in VERIFY_CHECKS if i not in status]
    _need(not missing, task, "checks missing from the report: %s" % missing)
    bad = sorted(i for i, s in status.items() if s != "pass")
    _need(not bad, task, "checks not passed: %s" % bad)


CHECKERS = {"build": _check_build, "search": _check_search,
            "enumerate": _check_enumerate, "verify": _check_verify}


def check_task(task, out):
    """Raise WrongAnswer if any definite answer of the task is wrong."""
    if task.workload in ("search", "enumerate") and out.graph is None:
        return  # the graph build failed; its questions are already recorded as failed
    CHECKERS[task.workload](task, out)
