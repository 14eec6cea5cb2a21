"""Independence complexes and the combinatorial Cohen-Macaulay obstructions.

Covers purity, pure skeletons, connectivity in codimension 1 and a
backtracking shelling search.  ind(G) is a flag complex: its minimal
non-faces are the edges of G, so its Stanley-Reisner ideal is the edge
ideal that `graphs.export_stanley_reisner` prints.

A complex keeps each facet as a sorted vertex tuple and as a vertex bitmask,
and each vertex as the bitmask of the facets that hold it (its column).  Its
one canonicalising core takes the facet masks: it builds each facet tuple
once, orders the facets by size then lexicographically, fills the columns in
one pass, and checks the antichain property of each facet only against the
larger facets, the only ones that can hold it, so a pure complex costs no
check.  `Complex(n, facets)` checks the vertices it is given and hands their
masks to that core.  `dim` and purity are read from the first and last
facet.  The codimension-1 test and the shelling step are bit operations on
the columns, walking each facet's stored tuple, and the codimension-1
components are computed once per complex, for the shelling search too.

`independence_complex` enumerates the twin quotient the graph records, as
the searches in `indsets` do, and lifts each maximal set's mask to the OR of
its twin classes' masks.  On a quotient that records its group it enumerates
only the maximal sets through vertex 0 and translates them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

from .graphs import _selector, _translates
from .indsets import (Budget, BudgetExceededError, _maximal_sets, _reduce, _start,
                      enumerate_maximal_independent)

SHELLING_FOUND = "shelling"
SHELLING_NONE = "no shelling exists"
SHELLING_UNKNOWN = "none found within budget"


class Complex:
    """Simplicial complex on vertices 0..n-1, given by its facet list.

    Facets are stored canonically: sorted tuples, ordered by size then
    lexicographically.  `masks[i]` is the vertex bitmask of facets[i] and
    `cols[v]` the bitmask of the indices of the facets holding v.  The facet
    list must be an antichain of vertex sets: no facet repeats a vertex.
    """

    _codim1 = None  # codim1_connected's result: the facets never change once stored

    def __init__(self, n, facets):
        # checked in canonical order, so the bad facet named does not depend
        # on the order the facets are given in
        masks = []
        for f in sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f)):
            m = 0
            for v in f:
                if not 0 <= v < n:
                    raise ValueError("facet vertex %d out of range" % v)
                m |= 1 << v
            if m.bit_count() < len(f):
                raise ValueError("facet %r repeats a vertex" % (f,))
            masks.append(m)
        self._canonicalise(n, masks)

    @classmethod
    def _from_masks(cls, n, masks):
        """The complex whose facets are these distinct vertex masks, all below 2^n."""
        c = cls.__new__(cls)
        c._canonicalise(n, masks)
        return c

    def _canonicalise(self, n, masks):
        self.n = n
        # each facet tuple is built once, from a list, so at its exact size: a
        # tuple grown from an iterator is resized in place, and over repeated
        # calls that fragments the heap
        vertices = list(range(n))
        facets = [tuple(list(compress(vertices, _selector(m)))) for m in masks]
        mask_of = dict(zip(facets, masks))
        facets.sort()
        facets.sort(key=len)
        cols = [0] * n
        for i, f in enumerate(facets):
            b = 1 << i
            for v in f:
                cols[v] |= b
        # a facet's strict supersets are larger, and facets are ordered by
        # size: so each is checked only against the facets past its size
        # class, and a pure complex needs no check
        t = len(facets)
        larger = 0  # the end of the size class of facet i
        for i, f in enumerate(facets):
            if i == larger:  # the first facet of its size class
                while larger < t and len(facets[larger]) == len(f):
                    larger += 1
                if larger == t:
                    break
                above = (1 << t) - (1 << larger)
            over = above
            for v in f:
                over &= cols[v]
                if not over:
                    break
            if over:
                j = (over & -over).bit_length() - 1
                raise ValueError("facet list is not an antichain: %r, %r" % (f, facets[j]))
        self.facets = tuple(facets)
        self.masks = tuple(map(mask_of.__getitem__, facets))
        self.cols = tuple(cols)

    @property
    def dim(self):
        return len(self.facets[-1]) - 1 if self.facets else -2  # -2: the void complex

    def __eq__(self, other):
        return isinstance(other, Complex) and self.n == other.n and self.facets == other.facets

    def __repr__(self):
        return "Complex(n=%d, facets=%d, dim=%d)" % (self.n, len(self.facets), self.dim)


def independence_complex(g, budget=None):
    """ind(g): the complex whose facets are the maximal independent sets.

    They are enumerated on the twin quotient g records, if any, and each
    lifts to the union of its twin classes.  A quotient h that records a
    group is a Cayley graph, so every translation is an automorphism: if T is
    maximal and t in T, then T - t is maximal and holds 0.  So only the sets
    through vertex 0 are enumerated, and each one not already found as a
    translate is translated by every group element (`graphs._translates`),
    one budget tick per orbit.  A graph with no group is enumerated whole.
    """
    if budget is None:
        budget = Budget()
    h, classes, _ = _reduce(g, budget)
    if h.transitive:
        masks = _translated_facets(h, budget)
    else:
        masks = [sum(1 << v for v in s) for s in enumerate_maximal_independent(h, budget)]
    if classes is not None:  # a set lifts to the union of its classes
        lifts = [sum(1 << v for v in c) for c in classes]
        masks = [sum(compress(lifts, _selector(m))) for m in masks]
    return Complex._from_masks(g.n, masks)


def _translated_facets(h, budget):
    """Every maximal independent set of h, which records a group, as the set
    of their masks: the orbits of the sets through vertex 0 under
    translation.  A set through 0 lies in a translated orbit iff it is among
    the masks found."""
    masks = set()
    for s in _maximal_sets(h.adj, *_start(h, budget), budget):
        m = sum(1 << v for v in s)
        if m not in masks:
            budget.tick()
            masks.update(_translates(h.group, h.group, m))
    return masks


def is_pure(c):
    return not c.facets or len(c.facets[0]) == len(c.facets[-1])


def pure_skeleton(c, d):
    """The pure d-skeleton: facets are all d-dimensional faces of c."""
    if not -1 <= d <= c.dim:
        raise ValueError("skeleton dimension %d out of range for %r" % (d, c))
    if len(c.facets[0]) == d + 1 == len(c.facets[-1]):
        return c  # every facet is a d-face
    faces = set()
    for f in c.facets:
        faces.update(map(sum, combinations([1 << v for v in f], d + 1)))
    return Complex._from_masks(c.n, faces)


def codim1_connected(c):
    """Connectivity of the facet graph linking facets meeting in codimension 1.

    Returns (connected, components) where components partition the facet
    list (by facet index into c.facets).  Input must be pure.  Two facets of
    a pure complex meet in codimension 1 exactly when they share a ridge (a
    facet less one vertex), so facets are joined through a table of ridges,
    once per complex: the result is kept on it.
    """
    if not is_pure(c):
        raise ValueError("codimension-1 connectivity requires a pure complex")
    if c._codim1 is not None:
        return c._codim1
    t = len(c.facets)
    if t == 0:
        return True, []
    parent = list(range(t))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}  # ridge mask -> a facet holding it
    for i, (f, m) in enumerate(zip(c.facets, c.masks)):
        for v in f:
            j = first.setdefault(m ^ 1 << v, i)
            if j != i:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(t):
        comps.setdefault(find(i), []).append(i)
    components = sorted(comps.values())
    c._codim1 = len(components) == 1, components
    return c._codim1


def _attaches(verts, prior, cols):
    """Shelling step: <prior> n <facet> must be pure of dim |facet| - 2.

    verts is the facet's sorted vertex tuple, prior the index mask of the
    prior facets and cols the complex's columns.  Equivalently every prior
    facet misses some vertex v of the facet whose ridge, the facet less v,
    lies in a prior facet; so no prior facet may hold all such v.
    """
    tails = [prior]  # tails[k]: the prior facets holding the last k vertices
    for v in reversed(verts):
        tails.append(tails[-1] & cols[v])
    head = prior  # the prior facets holding the vertices before v
    holds = prior  # the prior facets holding every such v
    for k, v in enumerate(verts):
        if head & tails[len(verts) - 1 - k]:  # the facet less v lies in one
            holds &= cols[v]
        head &= cols[v]
    return not holds


def is_shelling_order(c, order):
    """Replay an order of facet indices and check the shelling condition."""
    if sorted(order) != list(range(len(c.facets))):
        return False
    prior = 0
    for i in order:
        if not _attaches(c.facets[i], prior, c.cols):
            return False
        prior |= 1 << i
    return True


@dataclass
class ShellingResult:
    status: str  # SHELLING_FOUND | SHELLING_NONE | SHELLING_UNKNOWN
    order: tuple | None = None
    detail: str = ""

    def to_json(self):
        out = {"status": self.status, "detail": self.detail}
        if self.order is not None:
            out["order"] = list(self.order)
        return out


def find_shelling(c, budget=None):
    """Search for a shelling order of a pure complex.

    Fast negative: a pure complex that is disconnected in codimension 1
    admits no shelling.  Otherwise backtracking over facet orders on an
    explicit stack (the shelling condition only depends on the *set* of
    prior facets, so dead prefixes are memoized by that set).  Each frame
    walks only the facets not yet placed, in increasing order, and stops at
    the first that attaches: one node (one budget tick, one placed facet)
    costs one `_attaches` call per candidate tried, each a few operations
    on t-bit masks for t facets, and never a step over a placed facet.
    """
    if not is_pure(c):
        raise ValueError("shellability is defined here for pure complexes only")
    if budget is None:
        budget = Budget()
    t = len(c.facets)
    if t <= 1:
        return ShellingResult(SHELLING_FOUND, tuple(range(t)), "at most one facet")
    if c.dim == 0:
        return ShellingResult(SHELLING_FOUND, tuple(range(t)),
                              "dimension 0: any order shells")
    connected, comps = codim1_connected(c)
    if not connected:
        return ShellingResult(SHELLING_NONE,
                              detail="disconnected in codimension 1 "
                                     "(%d components)" % len(comps))
    facets, cols = c.facets, c.cols
    everything = (1 << t) - 1
    dead = set()
    order, mask = [], 0  # mask: the index mask of the facets in the order
    frames = [0]  # one per prefix of the order: the next facet to try
    try:
        budget.tick()
        while frames:
            # the unplaced facets from the frame's next one on, least first
            free = everything & ~mask & -(1 << frames[-1])
            while free:
                i = (free & -free).bit_length() - 1
                if _attaches(facets[i], mask, cols):
                    break
                free &= free - 1
            else:  # every extension of this prefix fails
                dead.add(mask)
                frames.pop()
                if order:
                    mask ^= 1 << order.pop()
                continue
            frames[-1] = i + 1
            order.append(i)
            mask |= 1 << i
            budget.tick()
            if len(order) == t:
                break
            if mask in dead:
                mask ^= 1 << order.pop()
            else:
                frames.append(0)
    except BudgetExceededError:
        return ShellingResult(SHELLING_UNKNOWN, detail="budget exhausted")
    if len(order) < t:
        return ShellingResult(SHELLING_NONE, detail="backtracking exhausted all orders")
    order = tuple(order)
    if not is_shelling_order(c, order):  # a check, not an assert: it must survive -O
        raise AssertionError("the search returned an order that is not a shelling")
    return ShellingResult(SHELLING_FOUND, order)
