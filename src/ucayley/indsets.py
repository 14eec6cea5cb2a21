"""Independent-set machinery on unitary Cayley graphs.

Maximal independent sets are maximal cliques of the complement graph,
enumerated by Bron-Kerbosch with pivoting on an explicit stack (the only
search that builds complement rows); all orders are deterministic.
`enumerate_maximal_independent` searches the graph as given: it is the
exhaustive oracle.  The two search questions, `independence_number` and
`is_well_covered`, first apply exact reductions, and so does
`complexes.independence_complex` (the twin quotient, and vertex 0 with
translation):

- Twin quotient.  A graph may record that it is the blow-up of a graph h
  (`UGraph.twin_quotient`): vertex i of h becomes a class of w pairwise
  non-adjacent twins, with h's adjacency between classes.  A maximal
  independent set then holds all of a class or none of it, so the search
  runs on h, alpha and every maximal-set size scale by w, and a witness
  lifts to the union of its classes.  `build_graph` records this for
  Gamma(R) with J(R) != 0: the classes are the cosets of J(R) and h is
  Gamma(R/J), and `conjunction_product` for the product of two recorded
  blow-ups.  A graph that records no blow-up is searched as it is.
- Vertex 0.  In a vertex-transitive graph (`UGraph.transitive`: a graph
  that records its group, as every Gamma(R) does) an automorphism takes any
  maximal independent set to one through vertex 0.  So alpha is 1 + alpha
  of the non-neighbours of 0, and the well-covered search enumerates only
  the maximal sets through 0.  Each vertex lies in the same number c_k of
  maximal k-sets, so the graph has n c_k / k of them (double counting):
  the counts of a "yes" are those of the whole graph.  Both searches start
  through one helper, `_start`, which roots them at vertex 0 when the graph
  is transitive.  So does `independence_complex`, which then translates
  each set it finds by the recorded group to get every facet.
- Clique bound.  A vertex-transitive graph on n vertices with a clique K has
  alpha * |K| <= n (the clique-coclique bound, Godsil-Meagher 2015, Ch. 2).
  A greedy clique from vertex 0 gives the target n // |K|, and the alpha
  search stops once it has a set of that size; below it the search is
  unchanged.  For Gamma(M_n(F_q)) the clique has q^n vertices, so the
  target is alpha.  Used for alpha only.

alpha is then found by branch and bound under a greedy clique-cover bound
(Tomita-Seki's MCQ, bit-parallel as in San Segundo's BBMC).  Its incumbent
is `greedy_extend` of the root, which takes the lowest free vertex each
time.  On every catalog ring and M_n(F_q) tried it already meets the clique
bound, so the search ends at its first node, noting CLIQUE_BOUND when it
would otherwise have gone on; where it falls short (Gamma(Z(3) x Z(2)) in its
row-major order), the branch and bound runs from its floor.  A search notes
on its Budget which reductions it applied.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

TWIN_QUOTIENT = "twin-quotient"
VERTEX_ZERO = "vertex-0"
CLIQUE_BOUND = "clique-bound"


class BudgetExceededError(Exception):
    """Raised when an enumeration budget (nodes or wall clock) trips.

    An alpha search that trips sets `best` to the size of the largest
    independent set it had found, a lower bound on alpha.
    """

    best = None


class Budget:
    """Node-count / wall-clock budget shared by a search.

    It also carries the search's statistics: the nodes visited and the
    reductions applied, in the order first applied.
    """

    def __init__(self, max_nodes=None, max_seconds=None):
        # `not > 0` also refuses NaN, under which no limit would ever trip
        if max_nodes is not None and not max_nodes > 0:
            raise ValueError("max_nodes must be positive")
        if max_seconds is not None and not max_seconds > 0:
            raise ValueError("max_seconds must be positive")
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self.reductions = []
        self.t0 = time.monotonic()

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError("node budget %d exhausted" % self.max_nodes)
        if self.max_seconds is not None and self.nodes % 256 == 0:
            if time.monotonic() - self.t0 > self.max_seconds:
                raise BudgetExceededError("time budget %.3fs exhausted" % self.max_seconds)

    def note(self, reduction):
        if reduction not in self.reductions:
            self.reductions.append(reduction)

    def stats(self):
        return {"nodes": self.nodes, "reductions": list(self.reductions)}


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def enumerate_maximal_independent(g, budget=None):
    """Yield every maximal independent set of g exactly once, as sorted tuples.

    Pivot rule: the candidate (from P u X) with the most non-neighbors in P,
    ties broken by lowest index.  Each search node ticks the budget once;
    a frame on the stack holds P, X and the candidates still to branch on.
    """
    if budget is None:
        budget = Budget()
    yield from _maximal_sets(g.adj, [], (1 << g.n) - 1, budget)


def _maximal_sets(adj, root, P, budget):
    """Yield root plus each maximal independent set of the graph on P, as
    sorted tuples, where P holds the common non-neighbours of the independent
    set root: Bron-Kerbosch on P's complement rows, explicit stack, X = {}."""
    non = [P & ~row & ~(1 << v) for v, row in enumerate(adj)]
    chosen, base = list(root), len(root) - 1
    stack = []
    X = 0
    while True:
        budget.tick()
        if P == 0 and X == 0:
            yield tuple(sorted(chosen))
        else:
            pivot, best = -1, -1
            for u in _bits(P | X):
                c = (P & non[u]).bit_count()
                if c > best:
                    pivot, best = u, c
            stack.append([P, X, P & ~non[pivot]])
        while stack:
            frame = stack[-1]
            P, X, todo = frame
            if todo:
                break
            stack.pop()
        else:
            return
        b = todo & -todo
        v = b.bit_length() - 1
        frame[0], frame[1], frame[2] = P ^ b, X | b, todo ^ b
        del chosen[base + len(stack):]
        chosen.append(v)
        P, X = P & non[v], X & non[v]


def _reduce(g, budget):
    """(graph to search, its twin classes or None, class size w), from the
    blow-up g records, or g itself when it records none."""
    if g.twin_quotient is None:
        return g, None, 1
    budget.note(TWIN_QUOTIENT)
    h, classes = g.twin_quotient
    return h, classes, len(classes[0])


def _start(h, budget):
    """(root, P): where a search of h begins, from root [0] over the
    non-neighbours of 0 on a transitive h, else from the empty root over
    every vertex."""
    full = (1 << h.n) - 1
    if h.transitive and h.n:
        budget.note(VERTEX_ZERO)
        return [0], full & ~h.adj[0] & ~1
    return [], full


def _lift(s, classes):
    """A sorted vertex set of the quotient lifted to the union of its twin
    classes (unchanged when classes is None: no quotient was taken)."""
    if classes is None:
        return s
    return tuple(sorted(v for i in s for v in classes[i]))


def _cover(adj, P, floor):
    """A greedy clique cover of P: (vertices, class numbers), classes ascending.

    Class k is built bit-parallel: take the low vertex v of the candidates
    left, keep only v's neighbours.  A vertex in class k <= floor is left
    out, since no branch on it can beat the bound.
    """
    verts, nums = [], []
    k = 0
    while P:
        k += 1
        Q = P
        while Q:
            b = Q & -Q
            v = b.bit_length() - 1
            P ^= b
            Q &= adj[v]
            if k > floor:
                verts.append(v)
                nums.append(k)
    return verts, nums


def _greedy_clique(adj):
    """The size of a clique grown from vertex 0 by taking the lowest common
    neighbour of the vertices taken so far."""
    size, common = 1, adj[0]
    while common:
        size += 1
        common &= adj[(common & -common).bit_length() - 1]
    return size


def _max_extension(adj, size, P, budget, target, best):
    """size + the largest independent subset of P, where P holds the common
    non-neighbours of `size` chosen vertices; branch and bound on an explicit
    stack from the incumbent `best`, the size of an independent set.

    A node colors its candidates into cliques and branches on them in
    decreasing class number; it stops once size + class <= best, since each
    clique holds at most one vertex of an independent set.  The search ends
    once best reaches `target`, an upper bound on the answer; it notes
    CLIQUE_BOUND when that ended a search that would have gone on: an open
    frame can still beat best, or the cover of P above the floor best - size
    is non-empty.  A tripped budget carries the best size found, never below
    the incumbent.
    """
    stack = []  # frames [size, candidates left, vertices to branch on, their classes]
    try:
        while True:
            budget.tick()
            best = max(best, size)
            if best >= target:
                if (any(f[2] and f[0] + f[3][-1] > best for f in stack)
                        or P and _cover(adj, P, best - size)[0]):
                    budget.note(CLIQUE_BOUND)
                return best
            if P:
                stack.append([size, P, *_cover(adj, P, best - size)])
            while stack:
                frame = stack[-1]
                size, P, verts, nums = frame
                if verts and size + nums[-1] > best:
                    break
                stack.pop()
            else:
                return best
            v = verts.pop()
            nums.pop()
            frame[1] = P & ~(1 << v)
            size, P = size + 1, P & ~(adj[v] | 1 << v)
    except BudgetExceededError as exc:
        exc.best = best
        raise


def independence_number(g, budget=None):
    """alpha(g), on the twin quotient, from vertex 0 and up to the clique bound
    where they apply, from the incumbent `greedy_extend` gives."""
    if budget is None:
        budget = Budget()
    h, _, w = _reduce(g, budget)
    root, P = _start(h, budget)
    target = h.n // _greedy_clique(h.adj) if root else math.inf
    try:
        return w * _max_extension(h.adj, len(root), P, budget, target,
                                  len(greedy_extend(h, root)))
    except BudgetExceededError as exc:
        exc.best *= w
        raise


@dataclass
class WellCoveredReport:
    answer: str  # "yes" | "no" | "inconclusive"
    alpha: int  # a lower bound only when alpha_exact is false
    witness_small: tuple | None = None
    counts: dict = field(default_factory=dict)
    alpha_exact: bool = True

    # every maximal set was enumerated: true exactly for a "yes"
    @property
    def complete(self):
        return self.answer == "yes"

    def to_json(self):
        out = {
            "answer": self.answer,
            "alpha": self.alpha,
            "alpha_exact": self.alpha_exact,
            "complete": self.complete,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }
        if self.witness_small is not None:
            out["witness_small"] = list(self.witness_small)
        return out


def is_well_covered(g, budget=None):
    """Decide whether all maximal independent sets of g share one size.

    The maximal sets are enumerated on the twin quotient h that g records,
    or on h = g when it records none, and `counts` maps each size in g to
    its number of sets.  On a transitive h only the sets through vertex 0
    are enumerated: each vertex lies in the same number c_k of maximal
    k-sets, so h has h.n c_k / k of them.  `counts` is exact on a "yes"; on
    a "no" or "inconclusive" it holds the sets seen, each a lower bound.
    Full-enumeration verdict when the budget allows; a "no" is returned as
    soon as two maximal sets of different sizes are seen, with the smaller
    one as witness, and `independence_number` then searches alpha under the
    same budget.  If that trips, the "no" stands and alpha is the best size
    seen, with alpha_exact false.  A tripped budget without a witness is
    "inconclusive", with alpha a lower bound.
    """
    if budget is None:
        budget = Budget()
    h, classes, w = _reduce(g, budget)
    root, P = _start(h, budget)
    counts, first = {}, None
    try:
        for s in _maximal_sets(h.adj, root, P, budget):
            counts[w * len(s)] = counts.get(w * len(s), 0) + 1
            if first is None:
                first = s
            elif len(s) != len(first):
                small, large = sorted((first, s), key=len)
                try:
                    alpha, exact = independence_number(g, budget), True
                except BudgetExceededError as exc:
                    alpha, exact = max(w * len(large), exc.best), False
                return WellCoveredReport("no", alpha, witness_small=_lift(small, classes),
                                         counts=counts, alpha_exact=exact)
    except BudgetExceededError:
        return WellCoveredReport("inconclusive", max(counts, default=0), counts=counts,
                                 alpha_exact=False)
    if root:  # double counting: h.n c_k = k (the number of maximal k-sets)
        for size, c in counts.items():
            k = size // w
            if h.n * c % k:
                raise ValueError("a graph marked transitive is not vertex-transitive")
            counts[size] = h.n * c // k
    return WellCoveredReport("yes", max(counts), counts=counts)


def greedy_extend(g, seed):
    """Deterministically extend an independent seed to a maximal set.

    Bit-parallel: take the lowest vertex free of the set so far, then drop
    it and its neighbours, until none is free; so eligible vertices are
    added in increasing index order.
    """
    mask = 0
    for v in seed:
        if not 0 <= v < g.n:
            raise ValueError("seed vertex %d out of range" % v)
        mask |= 1 << v
    free = (1 << g.n) - 1 & ~mask
    for v in seed:
        if g.adj[v] & mask:
            raise ValueError("seed is not an independent set")
        free &= ~g.adj[v]
    while free:
        b = free & -free
        mask |= b
        free &= ~(g.adj[b.bit_length() - 1] | b)
    return tuple(_bits(mask))


def radical_saturate(ring, radical, elems):
    """A + J(R) = {a + j : a in A, j in J} as a sorted tuple of indices."""
    out = set()
    for a in elems:
        for j in radical:
            out.add(ring.add(a, j))
    return tuple(sorted(out))
