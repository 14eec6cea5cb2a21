"""Unitary Cayley graphs, conjunction products, and every graph text format:
DOT, JSON and the edge ideal, whose edges `_edge_lines` writes for all three.

Gamma(R) is built as the blow-up of Gamma(R/J(R)) by the cosets of J(R), and
records that quotient for the searches in `indsets`.

Adjacency is stored as one Python int bitset per vertex; the downstream
enumeration kernels live on word-parallel set intersections.  The edge lists
and text formats read a row's neighbours through `_selector` and
`itertools.compress`, one C-level pass per row, not one bit at a time.
"""
from __future__ import annotations

import math
from itertools import compress

from .rings import CapExceededError, radical_quotient

DEFAULT_GRAPH_CAP = 2 ** 15

EXPORT_CAP = 4096  # vertices, for export_stanley_reisner

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _selector(mask):
    """Byte i is 1 if bit i of mask is set and 0 if not, for `compress`."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class UGraph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency.

    `labels` is None, a list of vertex labels, or a function from a vertex to
    its label, called only when a label is read.  Two facts may be recorded
    for the searches in `indsets`, which trust them, so each must hold when
    set.  `transitive` says the graph is vertex-transitive, as every Cayley
    graph is.  `twin_quotient` is None, for no blow-up known, or (h,
    classes): the graph is the blow-up of h that replaces vertex i by the
    pairwise non-adjacent vertices of classes[i], a sorted list, all classes
    of one size.  `build_graph` records both facts and `add_edge` clears
    both.  h is never the graph itself: a graph that refers to itself waits
    for the cyclic garbage collector.
    """

    def __init__(self, n, labels=None, transitive=False):
        self.n = n
        self.adj = [0] * n
        self.labels = labels
        self.transitive = transitive
        self.twin_quotient = None

    def label(self, v):
        """The label of v, or None for an unlabelled graph."""
        if self.labels is None:
            return None
        return self.labels(v) if callable(self.labels) else self.labels[v]

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("no loops in a simple graph")
        self.transitive, self.twin_quotient = False, None
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def edges(self):
        return [(u, v) for u in range(self.n)
                for v in compress(range(u + 1, self.n), _selector(self.adj[u] >> (u + 1)))]

    def edge_count(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __eq__(self, other):
        return isinstance(other, UGraph) and self.n == other.n and self.adj == other.adj


def build_graph(ring, cap=DEFAULT_GRAPH_CAP):
    """The unitary Cayley graph of a ring: x ~ y iff x - y is a unit.

    x - y is a unit of R iff it is one mod J = J(R), so Gamma(R) is the
    |J|-fold blow-up of Gamma(R/J): x ~ y iff their cosets of J are adjacent.
    When J = 0 the rows are the unit set's translates (`_translates`), and
    no blow-up is recorded.  Otherwise Gamma(R/J) is built the same way on
    the ring from `radical_quotient`, its unit row is lifted to R through the
    projection, and the lift's translates by the least elements of the
    cosets are the rows of R: one int per coset, shared by the coset's
    vertices.  The graph records (Gamma(R/J), the cosets) as its twin
    quotient, the cosets numbered as the projection numbers them.  The graph
    is a Cayley graph of (R, +), so it is marked vertex-transitive; labels
    are `ring.element_repr`, on demand.
    """
    if ring.order > cap:
        raise CapExceededError("|R| = %d exceeds the graph cap %d" % (ring.order, cap))
    g = UGraph(ring.order, labels=ring.element_repr, transitive=True)
    if ring.radical_steps == ring.radices:  # J = 0
        units = ring.units()
        if units != [0]:  # the zero ring: its one vertex would only carry a loop
            g.adj = _translates(ring.radices, ring.radices, sum(1 << u for u in units))
        return g
    quotient, project = radical_quotient(ring)
    h = build_graph(quotient, cap)
    unit_chars = bin(h.adj[0])[:1:-1].ljust(h.n, "0")  # char c is "1" iff c is a unit of R/J
    lifted = int("".join(map(unit_chars.__getitem__, reversed(project))), 2)
    rows = _translates(ring.radices, ring.radical_steps, lifted)
    g.adj = list(map(rows.__getitem__, project))
    classes = [[] for _ in rows]
    for x, c in enumerate(project):
        classes[c].append(x)
    g.twin_quotient = (h, classes)
    return g


def _translates(radices, limits, row):
    """The translates row + a of a bitmask over the additive group with these
    big-endian radices, for each a whose digit i is below limits[i] (a
    divisor of radix i), in increasing order of a.

    a walks those elements in order and the row is carried along: a digit
    below its limit less 1 steps up by e_i, and a digit at it goes back to 0,
    by (d - t + 1) e_i mod its radix d (t its limit), and carries into the
    next digit.  Translating a bitmask by c e_i (stride s) shifts the
    elements whose digit i is below d - c up by s * c and wraps the others
    down by s * (d - c).
    """
    everything = (1 << math.prod(radices)) - 1
    places = []  # (period, step, wrap) per digit with a limit above 1, least significant first
    s = count = 1
    for d, t in zip(reversed(radices), reversed(limits)):
        if t > 1:
            moves = []
            for c in dict.fromkeys((1, d - t + 1)):  # one move when t = d
                top = (((1 << s * c) - 1) << s * (d - c)) * (everything // ((1 << s * d) - 1))
                moves.append((s * c, s * (d - c), top, everything ^ top))
            count *= t
            places.append((count, moves[0], moves[-1]))
        s *= d
    rows = [row] * count
    for k in range(1, count):
        for period, step, wrap in places:
            if k % period:
                up, back, top, rest = step
                row = ((row & rest) << up) | ((row & top) >> back)
                break
            up, back, top, rest = wrap
            row = ((row & rest) << up) | ((row & top) >> back)
        rows[k] = row
    return rows


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
        # one copy of row v2 of g2 per neighbour w of v1, at bit w * n2: the
        # copies are n2 bits wide and n2 apart, so the product has no carries
        spread = sum(1 << w * n2 for w in compress(range(n1), _selector(g1.adj[v1])))
        for v2 in range(n2):
            out.adj[v1 * n2 + v2] = g2.adj[v2] * spread
    return out


def _edge_lines(g, prefix, names, sep="\n"):
    """One text block per vertex u with a neighbour above it: the items
    `prefix % u + names[v]` for each such neighbour v, in order, joined by sep."""
    for u in range(g.n):
        above = list(compress(names[u + 1:], _selector(g.adj[u] >> (u + 1))))
        if above:
            head = prefix % u
            yield head + (sep + head).join(above)


def export_dot(g):
    """Deterministic DOT text: vertices in index order, edges low-high."""
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append('  %d [label="%s"];' % (v, g.label(v)))
        else:
            lines.append("  %d;" % v)
    lines.extend(_edge_lines(g, "  %d -- ", ["%d;" % v for v in range(g.n)]))
    lines.append("}\n")
    return "\n".join(lines)


def graph_json(g):
    """The JSON text {"N": n, "edges": [[u, v], ...]}, edges low-high, as json.dumps writes it."""
    edges = ", ".join(_edge_lines(g, "[%d, ", ["%d]" % v for v in range(g.n)], ", "))
    return '{"N": %d, "edges": [%s]}' % (g.n, edges)


def export_stanley_reisner(g):
    """The edge ideal of g: one squarefree generator x_u*x_v per edge and line.

    ind(g) is a flag complex whose minimal non-faces are the edges of g, so
    this is also the Stanley-Reisner ideal of ind(g).  A header names the
    variable count; a header alone is the zero ideal.
    """
    if g.n > EXPORT_CAP:
        raise ValueError("graph on %d vertices exceeds the export cap %d" % (g.n, EXPORT_CAP))
    lines = ["# squarefree monomial ideal in %d variables x_0 .. x_%d" % (g.n, g.n - 1)]
    lines.extend(_edge_lines(g, "x_%d*", ["x_%d" % v for v in range(g.n)]))
    lines.append("")
    return "\n".join(lines)
