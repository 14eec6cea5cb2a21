import itertools
import math

import pytest
from hypothesis import strategies as st

from ucayley.complexes import (SHELLING_FOUND, SHELLING_NONE, SHELLING_UNKNOWN,
                               ShellingResult, is_pure)
from ucayley.constructions import reduced_diagonal
from ucayley.graphs import UGraph
from ucayley.indsets import Budget, BudgetExceededError, WellCoveredReport
from ucayley.rings import (GF, M, Prod, T, Z, GFRing, MatRing, ProdRing, SpecConstraintError,
                           TriRing, ZmRing, _EntryRing, spec_order, split_digits)


# the rings of the benchmark's `search` workload that verify.CATALOG lacks, and
# the rings of its `enumerate` workload
SEARCH_EXTRA = ["prod(Z(2),M(2,GF(3)))", "prod(Z(3),M(2,GF(3)))", "M(3,GF(2))", "T(3,GF(3))",
                "Z(1000)", "Z(1024)", "Z(2048)"]
ENUMERATE_RINGS = ["M(2,GF(3))", "M(2,Z(4))", "prod(Z(2),Z(2),Z(2),Z(2))", "prod(Z(3),Z(3),Z(3))",
                   "prod(GF(4),GF(4),GF(4))", "prod(Z(5),Z(5),Z(5))", "T(3,GF(3))", "Z(30)",
                   "prod(Z(2),M(2,GF(2)))"]


def brute_force_maximal_independent(g):
    """Oracle: maximal independent sets by scanning all vertex subsets."""
    assert g.n <= 20, "oracle is exponential"
    out = []
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if any(g.adj[v] & mask for v in verts):
            continue
        if any(not (mask >> v & 1) and not (g.adj[v] & mask) for v in range(g.n)):
            continue
        out.append(tuple(verts))
    return sorted(out)


def brute_force_alpha(g):
    return max(len(s) for s in brute_force_maximal_independent(g)) if g.n else 0


def _non(g):
    full = (1 << g.n) - 1
    return [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _twin_quotient(g):
    """(h, classes) when the twin classes of g all have one size w > 1, else None,
    found by hashing g's rows.

    classes[i] is the sorted vertex list of class i, ordered by least
    vertex; vertex i of h is class i.  h has no twins, since its twin
    classes would lift to twin classes of g, and records so.  It records no
    group: hashing finds the classes, not a group acting on their indices.
    """
    groups = {}
    for v, row in enumerate(g.adj):
        groups.setdefault(row, []).append(v)
    classes = list(groups.values())
    w = len(classes[0]) if classes else 0
    if w < 2 or any(len(c) != w for c in classes):
        return None
    index = {c[0]: i for i, c in enumerate(classes)}
    reps = sum(1 << c[0] for c in classes)
    h = UGraph(len(classes))
    for i, c in enumerate(classes):
        row = 0
        for v in _bits(g.adj[c[0]] & reps):
            row |= 1 << index[v]
        h.adj[i] = row
    return h, classes


def recursive_maximal_independent(g, budget=None):
    """Oracle: the recursive Bron-Kerbosch enumeration, pivoting as the package does."""
    budget = budget or Budget()
    non = _non(g)
    chosen = []

    def bk(P, X):
        budget.tick()
        if P == 0 and X == 0:
            yield tuple(sorted(chosen))
            return
        pivot, best = -1, -1
        for u in _bits(P | X):
            c = (P & non[u]).bit_count()
            if c > best:
                pivot, best = u, c
        for v in _bits(P & ~non[pivot]):
            chosen.append(v)
            yield from bk(P & non[v], X & non[v])
            chosen.pop()
            P &= ~(1 << v)
            X |= 1 << v

    if g.n:
        yield from bk((1 << g.n) - 1, 0)


def pbound_alpha(g, budget=None):
    """Oracle: alpha by recursive branch and bound under the |P| bound, on g as given."""
    budget = budget or Budget()
    non = _non(g)
    best = 0

    def expand(size, P):
        nonlocal best
        budget.tick()
        best = max(best, size)
        while P:
            if size + P.bit_count() <= best:
                return
            b = P & -P
            expand(size + 1, P & non[b.bit_length() - 1])
            P ^= b

    if g.n:
        expand(0, (1 << g.n) - 1)
    return best


def seed_is_well_covered(g, budget=None):
    """Oracle: the unreduced well-covered search on g as given.

    It enumerates with `recursive_maximal_independent` and stops at the
    first two maximal sets of different sizes, with the smaller as witness;
    alpha then comes from `pbound_alpha` under a fresh budget of the same limits.
    """
    budget = budget or Budget()
    counts = {}
    smallest = largest = None
    for s in recursive_maximal_independent(g, budget):
        counts[len(s)] = counts.get(len(s), 0) + 1
        if smallest is None or len(s) < len(smallest):
            smallest = s
        if largest is None or len(s) > len(largest):
            largest = s
        if len(smallest) < len(largest):
            alpha = pbound_alpha(g, Budget(budget.max_nodes, budget.max_seconds))
            return WellCoveredReport("no", alpha, witness_small=smallest, counts=counts)
    return WellCoveredReport("yes", max(counts, default=0), counts=counts)


def antichain_error(n, facets):
    """Oracle: the pairwise set check of a facet list, as `Complex()` states it.

    The error message `Complex()` raises for these facets, or None if they
    are a valid facet list.
    """
    canon = sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f))
    for f in canon:
        for v in f:
            if not 0 <= v < n:
                return "facet vertex %d out of range" % v
    for a, b in itertools.combinations(canon, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            return "facet list is not an antichain: %r, %r" % (a, b)
    return None


def set_codim1_components(facets):
    """Oracle: the codimension-1 components of a pure facet list, by pairwise
    set intersection and union-find, as sorted lists of facet indices."""
    t = len(facets)
    sets = [set(f) for f in facets]
    parent = list(range(t))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(t), 2):
        if len(sets[i] & sets[j]) == len(facets[0]) - 1:
            parent[find(i)] = find(j)
    comps = {}
    for i in range(t):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values())


def set_attaches(facet, prior_facets):
    """Oracle: the shelling step on vertex sets.  <prior> n <facet> must be
    pure of dim |facet| - 2: every intersection with a prior facet sits inside
    one of size |facet| - 1."""
    fs = set(facet)
    inters = {tuple(sorted(fs & set(p))) for p in prior_facets}
    want = len(facet) - 1
    bigs = [set(i) for i in inters if len(i) == want]
    return all(any(set(i) <= b for b in bigs) or len(i) == want for i in inters)


def recursive_find_shelling(c, budget=None):
    """Oracle: the recursive shelling search, one call per facet in the order."""
    assert is_pure(c)
    budget = budget or Budget()
    t = len(c.facets)
    if t <= 1:
        return ShellingResult(SHELLING_FOUND, tuple(range(t)), "at most one facet")
    if c.dim == 0:
        return ShellingResult(SHELLING_FOUND, tuple(range(t)),
                              "dimension 0: any order shells")
    comps = set_codim1_components(c.facets)
    if len(comps) > 1:
        return ShellingResult(SHELLING_NONE,
                              detail="disconnected in codimension 1 "
                                     "(%d components)" % len(comps))
    facets = c.facets
    dead = set()

    def extend(order, mask):
        budget.tick()
        if len(order) == t:
            return order
        if mask in dead:
            return None
        prior = [facets[j] for j in order]
        for i in range(t):
            if mask >> i & 1:
                continue
            if order and not set_attaches(facets[i], prior):
                continue
            hit = extend(order + [i], mask | (1 << i))
            if hit is not None:
                return hit
        dead.add(mask)
        return None

    try:
        hit = extend([], 0)
    except BudgetExceededError:
        return ShellingResult(SHELLING_UNKNOWN, detail="budget exhausted")
    if hit is None:
        return ShellingResult(SHELLING_NONE, detail="backtracking exhausted all orders")
    return ShellingResult(SHELLING_FOUND, tuple(hit))


def is_maximal_independent(g, verts):
    mask = sum(1 << v for v in verts)
    if any(g.adj[v] & mask for v in verts):
        return False
    return all(mask >> v & 1 or g.adj[v] & mask for v in range(g.n))


def scan_greedy_extend(g, seed):
    """Oracle: the seed extended to a maximal set by one scan over every
    vertex in increasing order, adding each vertex with no neighbour in the
    set so far."""
    mask = 0
    for v in seed:
        if not 0 <= v < g.n:
            raise ValueError("seed vertex %d out of range" % v)
        mask |= 1 << v
    for v in seed:
        if g.adj[v] & mask:
            raise ValueError("seed is not an independent set")
    for v in range(g.n):
        if mask >> v & 1:
            continue
        if not g.adj[v] & mask:
            mask |= 1 << v
    return tuple(_bits(mask))


def leibniz_det(rows, base):
    """Oracle determinant: signed sum over permutations."""
    n = len(rows)
    acc = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = base.one
        for i in range(n):
            term = base.mul(term, rows[i][perm[i]])
        acc = base.add(acc, base.neg(term) if inv % 2 else term)
    return acc


def bitwise_edges(g):
    """Oracle: the edges (u, v), u < v, in order, one bit of a row at a time."""
    out = []
    for u in range(g.n):
        m = g.adj[u] >> (u + 1) << (u + 1)
        while m:
            b = m & -m
            out.append((u, b.bit_length() - 1))
            m ^= b
    return out


def tuple_dot(g):
    """Oracle: DOT text formatted one edge tuple at a time."""
    lines = ["graph G {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append('  %d [label="%s"];' % (v, g.label(v)))
        else:
            lines.append("  %d;" % v)
    for u, v in bitwise_edges(g):
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def tuple_json(g):
    """Oracle: the JSON edge list built from edge tuples."""
    return {"N": g.n, "edges": [list(e) for e in bitwise_edges(g)]}


def tuple_edge_ideal(g):
    """Oracle: the edge ideal formatted one edge tuple at a time."""
    lines = ["# squarefree monomial ideal in %d variables x_0 .. x_%d" % (g.n, g.n - 1)]
    lines.extend("x_%d*x_%d" % e for e in bitwise_edges(g))
    return "\n".join(lines) + "\n"


def bitwise_conjunction_adj(g1, g2):
    """Oracle: the conjunction product's rows, one neighbour bit of g1 at a time."""
    n2 = g2.n
    adj = []
    for v1 in range(g1.n):
        for v2 in range(n2):
            row, m = 0, g1.adj[v1]
            while m:
                b = m & -m
                row |= g2.adj[v2] << ((b.bit_length() - 1) * n2)
                m ^= b
            adj.append(row)
    return adj


def elementwise_row(ring, units, x):
    """Oracle: the bitmask of {x + u : u in units} - {x}, through ring.add."""
    row = 0
    for u in units:
        y = ring.add(x, u)
        if y != x:  # the zero ring: 0 is a unit but loops are dropped
            row |= 1 << y
    return row


def difference_rows(ring):
    """Oracle: row x of Gamma(R) as the y != x with x - y a unit, by ring.sub."""
    return [sum(1 << y for y in range(ring.order)
                if y != x and ring.is_unit(ring.sub(x, y))) for x in range(ring.order)]


def elementwise_graph(ring):
    """Oracle: the unitary Cayley graph built element by element."""
    g = UGraph(ring.order, labels=[ring.element_repr(x) for x in range(ring.order)])
    units = ring.units()
    g.adj = [elementwise_row(ring, units, x) for x in range(ring.order)]
    return g


def digit_loop(ring, a, b, sign):
    """Oracle: a + b (sign 1) or a - b (sign -1), one digit at a time, by
    dividing both indices by every digit's stride."""
    ring.check_index(a)
    ring.check_index(b)
    out = 0
    for s, d in zip(ring.strides, ring.radices):
        out += (a // s + sign * (b // s)) % d * s
    return out


def entrywise_avoidance_partner(a_entries, n, field):
    """Oracle: A with its first nonzero entry's row i zeroed, less
    D_{k,i}(1,..,1), subtracted entry by entry."""
    hit = next(t for t, e in enumerate(a_entries) if e != 0)
    i, j = hit // n + 1, hit % n + 1
    k = (j - i) % n or n
    ones = (field.one,) * (n - 1)
    a_prime = tuple(0 if t // n == i - 1 else e for t, e in enumerate(a_entries))
    return tuple(map(field.sub, a_prime, reduced_diagonal(n, k, i, ones, field)))


def entrywise_row_mix(a_entries, d_entries, rows_from_d, n):
    """Oracle: the row-major entries taking the rows in rows_from_d (0-based)
    from D and the rest from A, entry by entry."""
    rows = set(rows_from_d)
    return tuple(d_entries[i * n + j] if i in rows else a_entries[i * n + j]
                 for i in range(n) for j in range(n))


def reduce_residue_fields(ring):
    """Oracle: the residue fields of a commutative ring as (field, reduce)
    pairs, one rule per ring class: `reduce` maps a list of R's indices to a
    new list of their images, and `field` is a prime p when R/m = Z_p and
    otherwise the GFRing R/m."""
    if isinstance(ring, ZmRing):
        return [(p, lambda xs, p=p: [x % p for x in xs]) for p in ring.spec.primes]
    if isinstance(ring, GFRing):
        return [(ring.p if ring.k == 1 else ring, list)]
    assert isinstance(ring, ProdRing)
    out = []
    for c, factor in enumerate(ring.factors):
        s, d = math.prod(f.order for f in ring.factors[c + 1:]), factor.order
        out += [(field, lambda xs, s=s, d=d, reduce=reduce: reduce([x // s % d for x in xs]))
                for field, reduce in reduce_residue_fields(factor)]
    return out


def reduce_row_map(base, n, reduce):
    """Oracle: each row of base^n as a row of F^n under base's map `reduce`
    onto F, entry by entry, or None when that map is the identity."""
    d = base.order
    image = reduce(list(range(d)))
    if image == list(range(d)):
        return None
    q = max(image) + 1  # reduce maps the base onto F
    out = []
    for r in range(d ** n):
        row = 0
        for x in split_digits(r, (d,) * n):
            row = row * q + image[x]
        out.append(row)
    return out


def projection_loop(ring):
    """Oracle: the projection onto R/J(R), one digit at a time."""
    projection = [0]
    for d, t in zip(ring.radices, ring.radical_steps):
        projection = [p * t + c % t for p in projection for c in range(d)]
    return projection


def structural_add(ring, a, b):
    """Oracle: a + b entry-, component- or coefficient-wise, down to Z(m)."""
    if isinstance(ring, ProdRing):
        comps = zip(ring.factors, ring.decode_entries(a), ring.decode_entries(b))
        return ring.encode_entries(tuple(structural_add(f, x, y) for f, x, y in comps))
    if isinstance(ring, (MatRing, TriRing)):
        entries = zip(ring.decode_entries(a), ring.decode_entries(b))
        return ring.encode_entries(tuple(structural_add(ring.base, x, y) for x, y in entries))
    if isinstance(ring, GFRing):  # index = sum(c_i * p**i); coefficients add mod p
        p = ring.p
        return sum((a // p ** i + b // p ** i) % p * p ** i for i in range(ring.k))
    assert isinstance(ring, ZmRing)
    return (a + b) % ring.m


def structural_neg(ring, a):
    """Oracle: -a entry-, component- or coefficient-wise, down to Z(m)."""
    if isinstance(ring, ProdRing):
        comps = zip(ring.factors, ring.decode_entries(a))
        return ring.encode_entries(tuple(structural_neg(f, x) for f, x in comps))
    if isinstance(ring, (MatRing, TriRing)):
        return ring.encode_entries(tuple(structural_neg(ring.base, x)
                                         for x in ring.decode_entries(a)))
    if isinstance(ring, GFRing):
        p = ring.p
        return sum(-(a // p ** i) % p * p ** i for i in range(ring.k))
    assert isinstance(ring, ZmRing)
    return -a % ring.m


def gf_mul(field, a, b):
    """Oracle: a * b in GF(p^k) on coefficient lists (index = sum(c_i * p**i)),
    by the schoolbook product and long division by the field's modulus."""
    p, k = field.p, field.k
    ca = [a // p ** i % p for i in range(k)]
    cb = [b // p ** i % p for i in range(k)]
    prod = [sum(ca[i] * cb[d - i] for i in range(k) if 0 <= d - i < k) % p
            for d in range(2 * k - 1)]
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        for j in range(k + 1):
            prod[d - k + j] = (prod[d - k + j] - c * field.modulus[j]) % p
    assert not any(prod[k:])
    return sum(c * p ** i for i, c in enumerate(prod[:k]))


def trial_factorize(m, limit=2 ** 20):
    """Oracle: the factorization by trial division with every d up to `limit`."""
    fs = {}
    d = 2
    while d * d <= m:
        if d > limit:
            name = str(m)
            if len(name) > 40:
                name = "a %d-digit number" % len(name)
            raise SpecConstraintError("cannot factor %s: it has no prime factor up to 2^20" % name)
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    return fs


def recursive_spec_order(spec):
    """Oracle: |R| by recursion on the spec."""
    if isinstance(spec, Z):
        return spec.m
    if isinstance(spec, GF):
        return spec.q
    if isinstance(spec, M):
        return recursive_spec_order(spec.base) ** (spec.n * spec.n)
    if isinstance(spec, T):
        return recursive_spec_order(spec.base) ** (spec.n * (spec.n + 1) // 2)
    out = 1
    for f in spec.factors:
        out *= recursive_spec_order(f)
    return out


def recursive_leaf_sum(spec, weight):
    """Oracle: the sum of weight(leaf) over the Z(m) and GF(q) leaves, each
    counted once per matrix entry and per factor, by recursion on the spec."""
    if isinstance(spec, (Z, GF)):
        return weight(spec)
    if isinstance(spec, M):
        return spec.n * spec.n * recursive_leaf_sum(spec.base, weight)
    if isinstance(spec, T):
        return spec.n * (spec.n + 1) // 2 * recursive_leaf_sum(spec.base, weight)
    return sum(recursive_leaf_sum(f, weight) for f in spec.factors)


class PositionDictTriRing(_EntryRing):
    """Oracle: T(n, F) as its own entry ring, with a position -> entry dict,
    a product summed over i <= k <= j and a - b a unit when each diagonal
    entry of a less b's is a unit of F."""

    def __init__(self, n, base):
        self.positions = [(i, j) for i in range(n) for j in range(i, n)]
        self.pos_index = {pos: t for t, pos in enumerate(self.positions)}
        above = (1,) * len(base.radices)
        super().__init__([base] * len(self.positions),
                         [t for i, j in self.positions
                          for t in (base.radical_steps if i == j else above)])
        self.base = base
        self.n = n
        self.spec = T(n, base.spec)
        self.one = self.encode_entries(tuple(base.one if i == j else 0 for i, j in self.positions))

    def mul(self, a, b):
        base = self.base
        ea, eb = self.decode_entries(a), self.decode_entries(b)
        out = []
        for i, j in self.positions:
            s = 0
            for k in range(i, j + 1):
                s = base.add(s, base.mul(ea[self.pos_index[(i, k)]], eb[self.pos_index[(k, j)]]))
            out.append(s)
        return self.encode_entries(tuple(out))

    def _adjacent(self, a, b):
        base, ea, eb = self.base, self.decode_entries(a), self.decode_entries(b)
        return all(base.is_unit(base.sub(ea[t], eb[t]))
                   for t in (self.pos_index[(i, i)] for i in range(self.n)))

    def element_repr(self, a):
        e = self.decode_entries(a)
        return ";".join(",".join(str(e[self.pos_index[(i, j)]]) if j >= i else "0"
                                 for j in range(self.n)) for i in range(self.n))


_PRIMES = (2, 3, 5, 7, 11, 13)
_FIELDS = st.one_of(st.builds(Z, st.sampled_from(_PRIMES)),
                    st.builds(GF, st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25, 27))))
_SCALARS = st.one_of(st.builds(Z, st.integers(1, 30)), _FIELDS)
_COMMUTATIVE = st.one_of(_SCALARS, st.lists(_SCALARS, min_size=1, max_size=3)
                         .map(lambda fs: Prod(tuple(fs))))
_SIMPLE = st.one_of(_COMMUTATIVE, st.builds(M, st.integers(1, 3), _COMMUTATIVE),
                    st.builds(T, st.integers(1, 3), _FIELDS))
# every ring class, nested, of order at most 300
RING_SPECS = st.one_of(_SIMPLE, st.lists(_SIMPLE, min_size=2, max_size=3)
                       .map(lambda fs: Prod(tuple(fs)))).filter(lambda s: spec_order(s) <= 300)


@pytest.fixture(scope="session")
def oracles():
    return {
        "maximal_independent": brute_force_maximal_independent,
        "alpha": brute_force_alpha,
        "det": leibniz_det,
    }
