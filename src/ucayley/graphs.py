"""Unitary Cayley graphs, conjunction products, DOT/JSON export.

Adjacency is stored as one Python int bitset per vertex; the downstream
enumeration kernels live on word-parallel set intersections.
"""
from __future__ import annotations

from .rings import CapExceededError

DEFAULT_GRAPH_CAP = 2 ** 14


class UGraph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency.

    `labels` is None, a list of vertex labels, or a function from a vertex to
    its label, called only when a label is read.  `transitive` records that
    the graph is vertex-transitive, as every Cayley graph is; the searches in
    `indsets` use it, so it must never be set on a graph that is not.
    """

    def __init__(self, n, labels=None, transitive=False):
        self.n = n
        self.adj = [0] * n
        self.labels = labels
        self.transitive = transitive

    def label(self, v):
        """The label of v, or None for an unlabelled graph."""
        if self.labels is None:
            return None
        return self.labels(v) if callable(self.labels) else self.labels[v]

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("no loops in a simple graph")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def edges(self):
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                b = m & -m
                out.append((u, b.bit_length() - 1))
                m ^= b
        return out

    def edge_count(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __eq__(self, other):
        return isinstance(other, UGraph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))


def build_graph(ring, cap=DEFAULT_GRAPH_CAP):
    """The unitary Cayley graph of a ring: x ~ y iff x - y is a unit.

    Row x is the unit set translated by x.  For a ring with radices, x walks
    the indices in order and the row is carried along: going from x to x + 1
    adds the digit unit e_i of the last digit and of every digit the
    increment carries through.  Translating a bitmask by e_i (stride s,
    radix d) shifts the elements whose digit i is below d - 1 up by s and
    wraps the others down by s * (d - 1).  Table rings are built
    element-wise.  Either way the graph is a Cayley graph of (R, +), so it is
    marked vertex-transitive; labels are `ring.element_repr`, on demand.
    """
    if ring.order > cap:
        raise CapExceededError("|R| = %d exceeds the graph cap %d" % (ring.order, cap))
    g = UGraph(ring.order, labels=ring.element_repr, transitive=True)
    units = ring.units()
    if ring.radices is None:
        for x in range(ring.order):
            row = 0
            for u in units:
                y = ring.add(x, u)
                if y != x:  # zero ring: 0 is a unit but loops are dropped
                    row |= 1 << y
            g.adj[x] = row
        return g
    if units == [0]:  # the zero ring: its one vertex would only carry a loop
        return g
    everything = (1 << ring.order) - 1
    places = []  # least significant digit first
    for s, d in zip(reversed(ring.strides), reversed(ring.radices)):
        top = (((1 << s) - 1) << s * (d - 1)) * (everything // ((1 << s * d) - 1))
        places.append((s, s * (d - 1), top, everything ^ top, s * d))
    row = 0
    for u in units:
        row |= 1 << u
    for x in range(ring.order):
        g.adj[x] = row
        for s, back, top, rest, period in places:
            row = ((row & rest) << s) | ((row & top) >> back)
            if (x + 1) % period:
                break
    return g


def conjunction_product(g1, g2):
    """Pairs (v1, v2) adjacent iff both coordinates are adjacent.

    Vertex (v1, v2) gets index v1 * g2.n + v2 (row-major).  The product of
    two vertex-transitive graphs is vertex-transitive.
    """
    n1, n2 = g1.n, g2.n
    out = UGraph(n1 * n2, transitive=g1.transitive and g2.transitive)
    if g1.labels is not None and g2.labels is not None:
        out.labels = lambda v: "(%s|%s)" % (g1.label(v // n2), g2.label(v % n2))
    for v1 in range(n1):
        m1 = g1.adj[v1]
        for v2 in range(n2):
            row = 0
            block = g2.adj[v2]
            m = m1
            while m:
                b = m & -m
                row |= block << ((b.bit_length() - 1) * n2)
                m ^= b
            out.adj[v1 * n2 + v2] = row
    return out


def export_dot(g):
    """Deterministic DOT text: vertices in index order, edges low-high."""
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append('  %d [label="%s"];' % (v, g.label(v)))
        else:
            lines.append("  %d;" % v)
    for u, v in g.edges():
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(g):
    """JSON-ready dict {N, edges} with the sorted edge list."""
    return {"N": g.n, "edges": [list(e) for e in g.edges()]}
