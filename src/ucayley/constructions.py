"""Explicit matrix constructions used to refute well-coveredness.

Matrices are handled as row-major tuples of base-field element indices;
`MatRing.encode_entries` turns them into graph vertex indices when needed.
The shift/row parameters k and l are 1-based (with n standing in for 0
modulo n), matching the usual statement of the constructions; row subsets
in `row_mix` are 0-based like every other vertex/row index in this package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import DEFAULT_GRAPH_CAP, build_graph
from .indsets import greedy_extend
from .rings import MatRing
# det_entries is not called here; bench/spans.py times it in this namespace
from .rings import det_entries  # noqa: F401

MAX_FAMILY_SIZE = 2 ** 20


def reduced_diagonal(n, k, l, coeffs, field):
    """The matrix D_{k,l}(a_1,...,a_{n-1}) as a row-major entries tuple.

    Entry (i,j) (1-based) is a_{i-l mod n} when j - i = k modulo n and
    i != l, else zero; row l is always zero.
    """
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError("k and l must lie in 1..%d" % n)
    coeffs = tuple(coeffs)
    if len(coeffs) != n - 1:
        raise ValueError("expected %d coefficients, got %d" % (n - 1, len(coeffs)))
    for a in coeffs:
        field.check_index(a)
    entries = [0] * (n * n)
    for i in range(1, n + 1):
        if i == l:
            continue
        j = (i + k - 1) % n + 1
        sub = (i - l) % n  # in 1..n-1 since i != l
        entries[(i - 1) * n + (j - 1)] = coeffs[sub - 1]
    return tuple(entries)


def d_family(n, field):
    """The family {D_k(a_1,..,a_{n-1}) : 1 <= k <= n, a_i in F}, deduplicated.

    The zero matrix arises once; the family has n*(q**(n-1) - 1) + 1
    members and is an independent set of the unitary Cayley graph of
    M(n, F).
    """
    if n < 1:
        raise ValueError("n must be positive")
    # q^(n-1) >= 2^(n-1), so every n past the limit's bit length is over it
    q = field.order
    if n > MAX_FAMILY_SIZE.bit_length() or n * (q ** (n - 1) - 1) + 1 > MAX_FAMILY_SIZE:
        raise ValueError("the family for n=%d, q=%d has over %d members" % (n, q, MAX_FAMILY_SIZE))
    out = set()
    for k in range(1, n + 1):
        for coeffs in itertools.product(range(field.order), repeat=n - 1):
            out.add(reduced_diagonal(n, k, k, coeffs, field))
    return sorted(out)


def row_mix(a_entries, d_entries, rows_from_d, n):
    """Matrix taking the rows in rows_from_d (0-based) from D, the rest from A."""
    if len(a_entries) != n * n or len(d_entries) != n * n:
        raise ValueError("entry tuples must have length %d" % (n * n))
    for r in rows_from_d:
        if not 0 <= r < n:
            raise ValueError("row index %d out of range" % r)
    rows = set(rows_from_d)
    return tuple(d_entries[i * n + j] if i in rows else a_entries[i * n + j]
                 for i in range(n) for j in range(n))


def avoidance_partner(a_entries, n, field):
    """A non-unit B with A - B invertible, for any nonzero A in M(n, F), n > 1.

    Recipe: take the first nonzero entry a_{ij} in row-major order, zero
    out row i of A, and subtract D_{k,i}(1,..,1) with k = j - i mod n.
    Then B has a zero row (hence is singular) and det(A - B) = +/- a_{ij}.
    D's only nonzero entries are its n - 1 ones at (r, r + k mod n), r != i,
    so B is A with row i zeroed and one subtracted there, and every entry
    of A is checked once.
    """
    if n <= 1:
        raise ValueError("requires n > 1")
    if len(a_entries) != n * n:
        raise ValueError("entry tuple must have length %d" % (n * n))
    hit = next((t for t, e in enumerate(a_entries) if e != 0), None)
    if hit is None:
        raise ValueError("A must be nonzero")
    for e in a_entries:
        field.check_index(e)
    i, j = divmod(hit, n)  # 0-based; row i + 1 is D's zero row
    b = list(a_entries)
    b[i * n:i * n + n] = [0] * n
    for r in range(n):
        if r != i:
            pos = r * n + (r + j - i) % n
            b[pos] = field.sub(b[pos], field.one)
    return tuple(b)


@dataclass
class ProductWitness:
    """The short maximal independent set of a product ring R x M_n(F)."""
    base_max_set: tuple  # M, a maximal independent set of the Cayley graph of R
    witness: tuple  # N = (R x {0}) u (M x non-units), as product-ring indices
    competing: tuple  # M x M_n(F), also maximal, of size |M| * |M_n(F)|


def product_witness(r_ring, n, field, graph_cap=DEFAULT_GRAPH_CAP):
    """Build N = (R x {0}) u (M x X) in R x M_n(F), X the non-units.

    M is the greedy maximal independent set of the Cayley graph of R
    (lowest-index tie-break), so the witness is reproducible.
    """
    if n <= 1:
        raise ValueError("requires n > 1")
    mat = MatRing(n, field)
    g_r = build_graph(r_ring, cap=graph_cap)
    m_set = greedy_extend(g_r, ())
    nonunits = [x for x in range(mat.order) if not mat.is_unit(x)]
    witness = {r * mat.order for r in range(r_ring.order)}
    for m in m_set:
        for x in nonunits:
            witness.add(m * mat.order + x)
    competing = tuple(sorted(m * mat.order + x for m in m_set for x in range(mat.order)))
    return ProductWitness(m_set, tuple(sorted(witness)), competing)


def zero_pattern_positions(n):
    """The forced-zero entries (k, 2k mod n) of maximal sets containing the family.

    Returned 0-based, one position per 1-based k in 1..n (0 replaced by n).
    """
    out = []
    for k in range(1, n + 1):
        col = (2 * k) % n or n
        out.append((k - 1, col - 1))
    return out
