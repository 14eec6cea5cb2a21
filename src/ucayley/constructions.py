"""Explicit matrix constructions used to refute well-coveredness.

`reduced_diagonal` and `d_family` give matrices as row-major tuples of
base-field element indices.  `row_mix` and `avoidance_partner` work on the
matrix index itself, the `MatRing` one: big-endian radix q = |F| per entry,
entry (0,0) most significant, so row r is the radix-q^n digit of weight
q^(n(n-1-r)).
The shift/row parameters k and l are 1-based (with n standing in for 0
modulo n), matching the usual statement of the constructions; row subsets
in `row_mix` are 0-based like every other vertex/row index in this package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import DEFAULT_GRAPH_CAP, build_graph
from .indsets import greedy_extend
# det_entries is not called here; bench/spans.py times it in this namespace
from .rings import RingError, det_entries  # noqa: F401

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


def _row_radix(n, field, *matrices):
    """q^n, the radix of a matrix row, once each matrix index is checked to
    lie in 0..q^(n^2) - 1, with q = |F|."""
    row = field.order ** n
    size = row ** n
    for a in matrices:
        if not (isinstance(a, int) and 0 <= a < size):
            raise RingError("matrix index %r out of range for n=%d over %s" % (a, n, field))
    return row


def row_mix(a, d, rows_from_d, n, field):
    """The index of the matrix taking the rows in rows_from_d (0-based) from
    D, the rest from A, for matrix indices a and d.

    Row r is the radix-q^n digit of weight q^(n(n-1-r)), so each row taken
    from D adds (row_r(D) - row_r(A)) times that weight.  A row listed twice
    is replaced once.
    """
    row = _row_radix(n, field, a, d)
    for r in rows_from_d:
        if not 0 <= r < n:
            raise ValueError("row index %d out of range" % r)
        w = row ** (n - 1 - r)
        a += (d // w % row - a // w % row) * w
    return a


def avoidance_partner(a, n, field):
    """The index of a non-unit B with A - B invertible, for the index a of
    any nonzero A in M(n, F), n > 1.

    Recipe: take the first nonzero entry a_{ij} in row-major order, zero
    out row i of A, and subtract D_{k,i}(1,..,1) with k = j - i mod n.
    Then B has a zero row (hence is singular) and det(A - B) = +/- a_{ij}.
    D's only nonzero entries are its n - 1 ones at (r, r + k mod n), r != i,
    so B's index is a with row i's digit cleared and one subtracted at
    those n - 1 entries.  Entry (r, c) has stride q^(n^2 - 1 - rn - c).
    """
    if n <= 1:
        raise ValueError("requires n > 1")
    row = _row_radix(n, field, a)
    if a == 0:
        raise ValueError("A must be nonzero")
    q = field.order
    i, w = 0, row ** (n - 1)  # the first nonzero row is the first with a >= its weight
    while a < w:
        i, w = i + 1, w // row
    j, s = 0, w * row // q  # the stride of entry (i, 0)
    while a < s:
        j, s = j + 1, s // q
    b = a % w  # row i zeroed: rows above it are zero too
    one, sub = field.one, field.sub
    for r in range(n):
        if r != i:
            s = q ** ((n - 1 - r) * n + n - 1 - (r + j - i) % n)
            e = b // s % q
            b += (sub(e, one) - e) * s
    return b


@dataclass
class ProductWitness:
    """The short maximal independent set of a product ring R x M_n(F)."""
    base_max_set: tuple  # M, a maximal independent set of the Cayley graph of R
    witness: tuple  # N = (R x {0}) u (M x non-units), as product-ring indices
    competing: tuple  # M x M_n(F), also maximal, of size |M| * |M_n(F)|


def product_witness(r_ring, mat, graph_cap=DEFAULT_GRAPH_CAP):
    """Build N = (R x {0}) u (M x X) in R x M_n(F), X the non-units, for
    the rings R and `mat` = M_n(F).

    M is the greedy maximal independent set of the Cayley graph of R
    (lowest-index tie-break), so the witness is reproducible.
    """
    if mat.n <= 1:
        raise ValueError("requires n > 1")
    if r_ring.order == 1:  # 0 is a unit of the zero ring, so M x X is not independent
        raise ValueError("requires a nonzero ring R")
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
