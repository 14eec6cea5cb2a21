"""Exact finite-ring kernel: specs, construction, arithmetic, radicals, quotients.

Every ring hands out elements as integer indices 0..order-1, with index 0
the additive zero.  Every ring (Z(m), GF(q), the matrix rings M and T, which
differ only in their stored entries, and products) indexes an element by the
big-endian mixed-radix value of its digit vector, and one digit-wise loop
serves add and sub for them all: a ^ b when every radix is 1 or 2, and
otherwise one step per digit, read off both indices by its stride.  J(R) is
one subgroup per digit, so R/J(R) is again such a ring, and one digit-wise
reduction, `digit_map`, is every quotient map here.

Gamma(R) is the Cayley graph Cay(R, U(R)), so x is a unit exactly when x ~ 0,
and each ring class defines one arithmetic predicate, `_adjacent(a, b)`:
whether a - b is a unit, for checked indices.  `Ring` builds `adjacent`
(the edge test of Gamma(R), with no graph built), `is_unit(a)` (a ~ 0) and
`units()` on it.  A full M(n, A), n >= 2, reads its index as n rows in
radix |A|^n.  Its row codec turns a row into its n entries and back by one
lookup in a table of the |A|^n rows (at most 2^10 under make_ring's default
cap), built on first use.  Per residue field F_q of A it keeps one list of
tables, built by its first unit or edge test: the map of a row onto F^n,
F^n's difference table of q^(2n) <= |M_n(F_q)| entries (none in
characteristic 2, where x - y is x ^ y), and the row-reduction tables.  Its
`_adjacent` splits a and b into rows together, subtracts each row pair by
one lookup in the difference table and row-reduces the differences.  T(n, F)
tests its diagonal, and M(1, A) is A.

`Ring.independent(members)` asks whether no two members are adjacent, by
the pairwise loop over `_adjacent`.  A full M(n, A), n >= 2, keeps a second
loop for this call: it splits each member into rows and maps them onto each
residue field once, then reduces every pair from those rows by the same
tables, so m members cost m splits, not m(m - 1).  The pair test keeps its
own loop, since splitting first made unit scans, and so graph builds, slower.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

DEFAULT_RING_CAP = 2 ** 20

# trial division stops here: a cofactor past 2^40 with no factor below is refused
TRIAL_DIVISION_LIMIT = 2 ** 20

# factorize screens the odd trial divisors of an m >= 2^64 in runs of this
# many; 64 was fastest or within noise of it from 2^64 to 2^14281
SCREEN_RUN = 64

# within the default cap only Z(1) entries (radix 1) bring a ring near this many digits
MAX_RING_DIGITS = 4096

# largest ring on which the O(|R|^2) quasi-regularity scan is attempted
BRUTE_FORCE_RADICAL_CAP = 4096


class RingError(Exception):
    """Base class for ring construction and arithmetic errors."""


class SpecSyntaxError(RingError):
    def __init__(self, message, pos):
        super().__init__("syntax error at position %d: %s" % (pos, message))
        self.pos = pos


class SpecConstraintError(RingError):
    pass


class CapExceededError(RingError):
    pass


# ---------------------------------------------------------------------------
# small number-theory helpers

def factorize(m):
    """Prime factorization of m >= 1 as a dict prime -> exponent, by trial
    division up to 2^20.  From 2^64 on, the odd d come in runs of SCREEN_RUN,
    and one gcd with a run's product skips a run that holds no factor of m;
    a smaller m is divided by each d."""
    fs = {}
    screen = m >= 2 ** 64
    screened = 3  # the odd d below `screened` are screened
    d = 2
    while d * d <= m:
        if d > TRIAL_DIVISION_LIMIT:
            name = str(m)
            if len(name) > 40:
                name = "a %d-digit number" % len(name)
            raise SpecConstraintError("cannot factor %s: it has no prime factor up to 2^20" % name)
        if screen and d >= screened:  # a run stops at 2^20 + 1, where m is refused
            screened = min(d + 2 * SCREEN_RUN, TRIAL_DIVISION_LIMIT + 1)
            if math.gcd(m, math.prod(range(d, screened, 2))) == 1:
                d = screened
                continue
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    return fs


# ---------------------------------------------------------------------------
# ring specs
#   Each constructor checks its own arguments when it is made, so a spec object
#   is valid by construction, whether the parser or Python code made it.  A leaf
#   keeps its factorization: GF(q) the p and k its check found, and Z(m) its
#   primes, factored on first use, since Z(m) needs none to be valid and one too
#   large to factor must still reach make_ring's cap check.

# deeper specs are refused, so the recursive spec functions stay far from Python's limit
MAX_SPEC_DEPTH = 64


class _SpecText:
    """A spec's str() and repr() are its text, as parse_spec reads it.  Its
    depth is 1 for Z and GF, and one more than its deepest part's for M, T and
    prod; a spec that would be deeper than MAX_SPEC_DEPTH is refused."""

    depth = 1

    def __str__(self):
        return _spec_text(self)

    __repr__ = __str__

    def _nest(self, *parts):
        depth = 1 + max(part.depth for part in parts)
        if depth > MAX_SPEC_DEPTH:
            raise SpecConstraintError("specs nest at most %d deep" % MAX_SPEC_DEPTH)
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True, repr=False)
class Z(_SpecText):
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise SpecConstraintError("Z(m) requires m >= 1, got %d" % self.m)

    @cached_property
    def primes(self):
        """The prime factorization of m, as a dict prime -> exponent."""
        return factorize(self.m)


@dataclass(frozen=True, repr=False)
class GF(_SpecText):
    q: int
    p: int = field(init=False, compare=False)  # q = p^k
    k: int = field(init=False, compare=False)

    def __post_init__(self):
        fs = factorize(self.q)  # {} for q < 2
        if len(fs) != 1:
            raise SpecConstraintError("GF(q) requires a prime power, %d is not one" % self.q)
        (p, k), = fs.items()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True, repr=False)
class M(_SpecText):
    n: int
    base: object

    def __post_init__(self):
        if self.n < 1:
            raise SpecConstraintError("M(n,...) requires n >= 1")
        if not is_commutative_spec(self.base):
            raise SpecConstraintError("M requires a commutative base, got %s" % self.base)
        self._nest(self.base)


@dataclass(frozen=True, repr=False)
class T(_SpecText):
    n: int
    base: object

    def __post_init__(self):
        if self.n < 1:
            raise SpecConstraintError("T(n,...) requires n >= 1")
        base = self.base
        if not (isinstance(base, GF) or isinstance(base, Z) and base.primes == {base.m: 1}):
            raise SpecConstraintError("T requires a field base (GF(q) or Z(p), p prime), got %s" % self.base)
        self._nest(base)


@dataclass(frozen=True, repr=False)
class Prod(_SpecText):
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise SpecConstraintError("prod() requires at least one factor")
        for f in self.factors:
            if not isinstance(f, SPECS):
                raise SpecConstraintError("not a ring spec: %r" % (f,))
        self._nest(*self.factors)


SPECS = (Z, GF, M, T, Prod)


def is_commutative_spec(spec):
    if isinstance(spec, (Z, GF)):
        return True
    if isinstance(spec, Prod):
        return all(is_commutative_spec(f) for f in spec.factors)
    return False


def _spec_text(spec):
    """The text of a spec, as parse_spec reads it."""
    if isinstance(spec, Z):
        return "Z(%d)" % spec.m
    if isinstance(spec, GF):
        return "GF(%d)" % spec.q
    if isinstance(spec, Prod):
        return "prod(%s)" % ",".join(map(_spec_text, spec.factors))
    return "%s(%d,%s)" % (type(spec).__name__, spec.n, _spec_text(spec.base))


def _leaves(spec):
    """The spec's Z(m) and GF(q) leaves as (leaf, copies) pairs, copies being how
    often the leaf occurs in R: once per matrix entry and per factor, at any depth."""
    stack = [(spec, 1)]
    while stack:
        node, copies = stack.pop()
        if isinstance(node, (Z, GF)):
            yield node, copies
        elif isinstance(node, M):
            stack.append((node.base, copies * node.n * node.n))
        elif isinstance(node, T):
            stack.append((node.base, copies * (node.n * (node.n + 1) // 2)))
        else:
            stack.extend((f, copies) for f in node.factors)


def spec_order(spec):
    """Cardinality of the ring described by spec, without building it."""
    return math.prod((leaf.m if isinstance(leaf, Z) else leaf.q) ** copies
                     for leaf, copies in _leaves(spec))


def _order_log2_64ths(spec):
    """A lower bound on 64 log2 |R|, with no power of |R| taken: the sum over
    the spec's Z(m) and GF(q) leaves of their multiplicity times
    floor(64 log2 m).

    It falls short by less than 1 per leaf occurrence, so by under 1/64 of
    64 log2 |R| (each occurrence adds log2 m >= 1 bit), and not at all when
    |R| is a power of 2.
    """
    return sum(copies * ((spec_order(leaf) ** 64).bit_length() - 1)
               for leaf, copies in _leaves(spec))


# ---------------------------------------------------------------------------
# spec parser
#   spec := Z(m) | GF(q) | M(n,spec) | T(n,spec) | prod(spec{,spec})

# int() reads at most this many digits
MAX_SPEC_DIGITS = 4300

# name -> (spec class, argument kinds): a number, a spec, or one or more specs
_CONSTRUCTORS = {
    "Z": (Z, ("num",)),
    "GF": (GF, ("num",)),
    "M": (M, ("num", "spec")),
    "T": (T, ("num", "spec")),
    "prod": (Prod, ("specs",)),
}

_TOKEN = re.compile(r"(?P<name>[A-Za-z]+)|(?P<num>[0-9]+)|(?P<punct>[(),])|(?P<other>\S)")


def parse_spec(text):
    """Parse a ring-spec string to its AST; each spec checks itself as it closes."""
    toks = []  # (kind, value, position); the kind of "(", ")" or "," is the character
    for tok in _TOKEN.finditer(text):
        kind, value, pos = tok.lastgroup, tok.group(), tok.start()
        if kind == "other":
            raise SpecSyntaxError("unexpected character %r" % value, pos)
        if kind == "num" and len(value) > MAX_SPEC_DIGITS:
            raise SpecSyntaxError("a number has at most %d digits" % MAX_SPEC_DIGITS, pos)
        toks.append((value if kind == "punct" else kind,
                     int(value) if kind == "num" else value, pos))
    toks.append(("end", None, len(text)))
    i = 0

    def expect(kind):
        nonlocal i
        tok = toks[i]
        if tok[0] != kind:
            raise SpecSyntaxError("expected %s, got %r" % (kind, tok[1]), tok[2])
        i += 1
        return tok[1]

    def spec(depth):
        nonlocal i
        kind, value, pos = toks[i]
        if kind != "name":
            raise SpecSyntaxError("expected a constructor name, got %r" % (value,), pos)
        if value not in _CONSTRUCTORS:
            raise SpecSyntaxError("unknown constructor %r" % value, pos)
        if depth > MAX_SPEC_DEPTH:
            raise SpecSyntaxError("specs nest at most %d deep" % MAX_SPEC_DEPTH, pos)
        cls, kinds = _CONSTRUCTORS[value]
        i += 1
        expect("(")
        args = []
        for arg in kinds:
            if args:
                expect(",")
            args.append(expect("num") if arg == "num" else spec(depth + 1))
        if kinds[-1] == "specs":  # prod: one or more factors
            while toks[i][0] == ",":
                i += 1
                args.append(spec(depth + 1))
            args = [tuple(args)]
        expect(")")
        return cls(*args)

    out = spec(1)
    if toks[i][0] != "end":
        raise SpecSyntaxError("trailing input %r" % (toks[i][1],), toks[i][2])
    return out


# ---------------------------------------------------------------------------
# rings

def split_digits(a, radices):
    """The big-endian mixed-radix digits of a: the last radix is least significant."""
    digits = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        a, digits[i] = divmod(a, radices[i])
    return tuple(digits)


def join_digits(digits, radices):
    """Inverse of split_digits; raises RingError on a digit out of range or
    on a number of digits other than the number of radices."""
    if len(digits) != len(radices):
        raise RingError("%d digits for %d radices" % (len(digits), len(radices)))
    out = 0
    for x, d in zip(digits, radices):
        if not (isinstance(x, int) and 0 <= x < d):
            raise RingError("digit %r out of range for radix %d" % (x, d))
        out = out * d + x
    return out


def digit_map(radices, moduli):
    """The quotient map reducing digit i mod moduli[i], a divisor of radices[i],
    as a list: entry x is the index of x's reduced digits in the radices
    `moduli`, so digits of modulus 1 drop out."""
    out = [0]
    for d, t in zip(radices, moduli):
        out = [x * t + c % t for x in out for c in range(d)]
    return out


class Ring:
    """A finite ring with indexed elements.  Index 0 is the additive zero.

    The additive group is Z_{d_0} x ... x Z_{d_{L-1}} for the big-endian
    `radices` (d_0, .., d_{L-1}): an element index is the mixed-radix number
    of its digit vector, digit i has index weight `strides[i]`, and addition
    is digit-wise.  `add` and `sub` share one kernel: one digit is added mod
    its radix; on more, when every radix is 1 or 2, the index is a bit vector
    and both are a ^ b; otherwise each digit is read off both indices by its
    stride and added mod its radix.  `radical_steps[i]` divides d_i, and J(R)
    is the set of elements whose digit i is a multiple of it, for every i.
    """

    def __init__(self, radices, radical_steps):
        self.radices = tuple(radices)
        self.radical_steps = tuple(radical_steps)
        self.strides = tuple(accumulate(self.radices[:0:-1], operator.mul, initial=1))[::-1]
        self.order = self.strides[0] * self.radices[0]

    def check_index(self, a):
        if not (isinstance(a, int) and 0 <= a < self.order):
            raise RingError("element index %r out of range for %s" % (a, self))

    def add(self, a, b):
        # One inline check of both indices, and the one-digit case first: with
        # sub, this is the hot path of matrix arithmetic over Z(p) and GF(p).
        order = self.order
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < order and 0 <= b < order):
            self.check_index(a)
            self.check_index(b)
        if len(self.radices) == 1:
            return (a + b) % order
        return self._digitwise(a, b, 1)

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        order = self.order
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < order and 0 <= b < order):
            self.check_index(a)
            self.check_index(b)
        if len(self.radices) == 1:
            return (a - b) % order
        return self._digitwise(a, b, -1)

    @cached_property
    def _digits(self):
        """`_digitwise`'s (radix, stride) pairs of radix > 1, or () if every radix is 1 or 2."""
        pairs = tuple((d, s) for d, s in zip(self.radices, self.strides) if d > 1)
        return () if all(d == 2 for d, _ in pairs) else pairs

    def _digitwise(self, a, b, sign):
        """a + b (sign 1) or a - b (sign -1) for checked indices of two or more digits."""
        digits = self._digits
        if not digits:  # every radix is 1 or 2
            return a ^ b
        out = 0
        for d, s in digits:
            out += (a // s + sign * (b // s)) % d * s
        return out

    def _adjacent(self, a, b):
        """Whether a - b is a unit, for checked indices a and b."""
        raise NotImplementedError

    def adjacent(self, a, b):
        """Whether a - b is a unit: the edge test of the unitary Cayley graph
        of R, with no graph built."""
        order = self.order
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < order and 0 <= b < order):
            self.check_index(a)
            self.check_index(b)
        return self._adjacent(a, b)

    def independent(self, members):
        """Whether no two of the members are adjacent in Gamma(R), that is,
        whether no pairwise difference is a unit; each member is checked as
        `adjacent` checks it."""
        members = list(members)
        for a in members:
            self.check_index(a)
        adjacent = self._adjacent
        return not any(itertools.starmap(adjacent, itertools.combinations(members, 2)))

    def is_unit(self, a):
        self.check_index(a)
        return self._adjacent(a, 0)

    def units(self):
        adjacent = self._adjacent
        return [a for a in range(self.order) if adjacent(a, 0)]

    def element_repr(self, a):
        return str(a)

    def __str__(self):
        return str(self.spec)


class ZmRing(Ring):
    def __init__(self, m):
        self.spec = Z(m)
        super().__init__((m,), (math.prod(self.spec.primes),))
        self.m = m
        self.one = 1 % m

    def mul(self, a, b):
        self.check_index(a)
        self.check_index(b)
        return (a * b) % self.m

    def _adjacent(self, a, b):
        return math.gcd(a - b, self.m) == 1


def _poly_rem(num, den, p):
    """Remainder of num / den over Z_p; polys are coefficient lists, c0 first."""
    num = [c % p for c in num]
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree 1..deg/2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for v in range(p ** d):
            den = list(split_digits(v, (p,) * d)[::-1]) + [1]
            if not any(_poly_rem(poly, den, p)):
                return False
    return True


def smallest_irreducible(p, k):
    """The lexicographically smallest monic irreducible of degree k over Z_p.

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are ordered by the integer
    sum(c_i * p**i); the first irreducible one is returned (c0-first list).
    """
    for v in range(p ** k):
        coeffs = list(split_digits(v, (p,) * k)[::-1]) + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RingError("no irreducible polynomial found (impossible)")


class GFRing(Ring):
    """GF(p^k) as Z_p[x] modulo a fixed irreducible polynomial.

    Element index = sum(c_i * p**i) over the coefficient vector (c_0, ..,
    c_{k-1}), so the big-endian digits are c_{k-1}, .., c_0 with radix p;
    for k = 1 this is plain Z_p.
    """

    def __init__(self, q):
        self.spec = GF(q)
        self.p, self.k = self.spec.p, self.spec.k
        super().__init__((self.p,) * self.k, (self.p,) * self.k)
        self.q = q
        self.one = 1
        self.modulus = smallest_irreducible(self.p, self.k) if self.k > 1 else None

    def mul(self, a, b):
        q, p, k = self.q, self.p, self.k
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < q and 0 <= b < q):
            self.check_index(a)
            self.check_index(b)
        if k == 1:
            return a * b % p
        cb = []  # coefficient j of b, c_0 first: the index's base-p digits
        for _ in range(k):
            b, y = divmod(b, p)
            cb.append(y)
        prod = [0] * (2 * k - 1)  # exact sums, reduced mod p once below
        i = 0
        while a:
            a, x = divmod(a, p)
            if x:
                for j, y in enumerate(cb, i):
                    prod[j] += x * y
            i += 1
        for i in range(2 * k - 2, k - 1, -1):  # less c x^(i-k) modulus(x): clears x^i
            c = prod[i] % p
            if c:
                for j, m in zip(range(i - k, i), self.modulus):
                    prod[j] -= c * m
        out = 0
        for c in reversed(prod[:k]):
            out = out * p + c % p
        return out

    def _adjacent(self, a, b):
        return a != b


def det_entries(rows, base):
    """Determinant of a square matrix of base-ring element indices.

    Cofactor expansion along the first row; needs no division, hence valid
    over any commutative base.  Units are found by row reduction, through
    `MatRing`'s row tables; this is the oracle they are tested against.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = 0  # index of zero
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = tuple(tuple(r[c] for c in range(n) if c != j) for r in rows[1:])
        term = base.mul(a, det_entries(minor, base))
        if j % 2:
            term = base.neg(term)
        acc = base.add(acc, term)
    return acc


def residue_fields(ring):
    """The residue fields R/m of a commutative ring R, one per maximal ideal m,
    as (field, moduli) pairs: `field` is the GFRing R/m, and R maps onto it
    by `digit_map(ring.radices, moduli)`.  Z(m) maps onto GF(p) by x mod p,
    GF(q) is its own residue field, and a product maps onto each factor's
    fields through that factor's digits, with modulus 1 on all the others."""
    if isinstance(ring, ZmRing):
        return [(GFRing(p), (p,)) for p in ring.spec.primes]
    if isinstance(ring, GFRing):
        return [(ring, ring.radices)]
    if isinstance(ring, ProdRing):
        out, before = [], 0
        for factor in ring.factors:
            after = len(ring.radices) - before - len(factor.radices)
            out += [(field, (1,) * before + moduli + (1,) * after)
                    for field, moduli in residue_fields(factor)]
            before += len(factor.radices)
        return out
    raise RingError("%s is not commutative" % ring)


def _difference_table(field, n):
    """The sub table of F^n, F a residue field of `residue_fields`, on rows
    numbered as in `_rank_tables`: entry x * |F|^n + y is x - y, q^(2n)
    entries for |F| = q.  None in characteristic 2, where x - y is x ^ y.

    F^n is additively Z_p^(n k) on a row's base-p digits, and the table is
    built a digit at a time from the least significant: rows[x][y] is x - y
    on the digits so far, of radix product `width`, and a digit above them
    makes x = x_d * width + x_low, and y likewise.  Each entry is read from
    one list of the row values, so the entries share its int objects."""
    p = field.p
    if p == 2:
        return None
    rows, width, values = [[0]], 1, list(range(field.order ** n))
    for _ in range(n * field.k):
        rows = [[values[(x - y) % p * width + v] for y in range(p) for v in low]
                for x in range(p) for low in rows]
        width *= p
    return [v for row in rows for v in row]


def _rank_tables(field, n, diff):
    """Row-reduction tables for F^n, F a residue field of `residue_fields`
    and `diff` F^n's `_difference_table`.

    A row is the big-endian radix-|F| number of its entries, 0 the zero row.
    A pivot is a row whose first nonzero entry, in its lead column, is 1, and
    its elimination table maps every row r to r less r's lead-column entry
    times the pivot, read from `diff`.  Returns the list `reducer`:
    reducer[r] is the elimination table of the pivot that the nonzero row r
    is a multiple of.
    """
    q = field.order
    size, entry_radices = q ** n, (q,) * n
    reducer = [None] * size
    for r in range(1, size):
        entries = split_digits(r, entry_radices)
        lead = next(j for j, x in enumerate(entries) if x)
        if entries[lead] != 1:
            continue
        column = q ** (n - 1 - lead)
        multiples = [join_digits([field.mul(c, x) for x in entries], entry_radices) for c in range(q)]
        less = [multiples[s // column % q] for s in range(size)]
        elim = ([s ^ m for s, m in enumerate(less)] if diff is None  # characteristic 2
                else [diff[s * size + m] for s, m in enumerate(less)])
        for m in multiples[1:]:
            reducer[m] = elim
    return reducer


class _EntryRing(Ring):
    """A ring whose elements are tuples of entries, entry t in `entry_rings[t]`.

    The index is the big-endian mixed-radix value of the entry tuple (entry 0
    most significant), so the radices are the entry rings', in entry order.
    """

    def __init__(self, entry_rings, radical_steps):
        super().__init__([d for r in entry_rings for d in r.radices], radical_steps)
        self._entry_radices = tuple(r.order for r in entry_rings)

    def decode_entries(self, a):
        self.check_index(a)
        return split_digits(a, self._entry_radices)

    def encode_entries(self, entries):
        return join_digits(entries, self._entry_radices)


class MatRing(_EntryRing):
    """M(n, base) for a commutative base ring.

    The entries are stored at `positions`, the row-major (i, j) that
    `stored_positions(n)` picks: all n^2 here, i <= j in TriRing, and every
    other entry is 0.  So one constructor, product, identity, radical steps
    and labels serve M_n(A) and its upper triangular subring T_n(F).

    A full M_n(A), n >= 2, also reads its index a row at a time: the index is
    n rows in radix |A|^n, most significant first, and a row is its n entries
    in radix |A|.  Its row codec turns a row into its entries and back by one
    lookup; under make_ring's cap, |A|^(n^2) <= 2^20, so for n >= 2 a row
    has at most 2^10 values."""

    spec_class = M

    @staticmethod
    def stored_positions(n):
        return [(i, j) for i in range(n) for j in range(n)]

    def __init__(self, n, base):
        self.spec = self.spec_class(n, base.spec)
        self.positions = self.stored_positions(n)
        # J(M_n(A)) = M_n(J(A)), and J(T_n(F)) is the strictly upper part: an
        # entry whose mirror (j, i) is never stored has step 1, any other A's steps
        stored = set(self.positions)
        above = (1,) * len(base.radices)
        super().__init__([base] * len(self.positions),
                         [t for i, j in self.positions
                          for t in (base.radical_steps if (j, i) in stored else above)])
        self.base = base
        self.n = n
        self._row_radix = base.order ** n  # an M(n, A) index is n rows in this radix
        ident = tuple(base.one if i == j else 0 for i, j in self.positions)
        self.one = self.encode_entries(ident)

    @cached_property
    def _row_codec(self):
        """The row codec of an n >= 2 matrix ring: the list of each row's
        entries, by row value, and the dict from entries back to row value."""
        entries = list(itertools.product(range(self.base.order), repeat=self.n))
        return entries, {row: r for r, row in enumerate(entries)}

    def rows(self, a):
        """The n rows of a, each the tuple of its n entries."""
        self.check_index(a)
        n = self.n
        if n == 1:  # no codec: its table would have |A| rows
            return ((a,),)
        entries, radix, out = self._row_codec[0], self._row_radix, []
        for _ in range(n):
            a, r = divmod(a, radix)
            out.append(entries[r])
        return tuple(out[::-1])

    def decode_entries(self, a):
        return sum(self.rows(a), ())

    def encode_entries(self, entries):
        n = self.n
        if n > 1 and len(entries) == n * n:
            index, radix, out = self._row_codec[1], self._row_radix, 0
            entries = tuple(entries)
            try:
                for i in range(0, n * n, n):
                    out = out * radix + index[entries[i:i + n]]
                return out
            except (KeyError, TypeError):  # an entry that is no element of A
                pass
        return super().encode_entries(entries)  # raises RingError on a bad entry

    def mul(self, a, b):
        n, base = self.n, self.base
        ra, rb = self.rows(a), self.rows(b)
        out = []
        for i, j in self.positions:
            s = 0
            for k in range(n):
                s = base.add(s, base.mul(ra[i][k], rb[k][j]))
            out.append(s)
        return self.encode_entries(tuple(out))

    @cached_property
    def _row_tables(self):
        """Per residue field F of A, the tables that `_adjacent` reads: (row
        map, |F|^n, difference table, reducer).  The row map takes
        a row of A^n onto F^n and is None when A is F; the difference table
        and reducer are F^n's `_difference_table` and `_rank_tables`."""
        n, radices, out = self.n, self.base.radices, []
        for field, moduli in residue_fields(self.base):
            diff = _difference_table(field, n)
            out.append((None if moduli == radices else digit_map(radices * n, moduli * n),
                        field.order ** n, diff, _rank_tables(field, n, diff)))
        return out

    def _adjacent(self, a, b):
        """Row reduction of a - b over each residue field F of A, by table
        lookups: the rows of a and b are split together, a row pair maps to
        F^n and is subtracted by one lookup in F's difference table (x ^ y in
        characteristic 2), the difference is reduced by the pivots of the rows
        before it, and a - b is singular when it reduces to zero.  Under
        make_ring's default cap, |A|^(n^2) <= 2^20, so for n >= 2 a row has at
        most 2^10 values and F's reduction tables hold at most 33,792 entries
        (F_32^2), its difference table at most |M_n(F)|."""
        n = self.n
        if n == 1:  # M_1(A) is A
            return self.base._adjacent(a, b)
        radix = self._row_radix
        for row_map, width, diff, reducer in self._row_tables:
            x, y, basis = a, b, []
            for _ in range(n):  # last row first: the rank does not depend on the order
                x, rx = divmod(x, radix)
                y, ry = divmod(y, radix)
                if row_map is not None:
                    rx, ry = row_map[rx], row_map[ry]
                r = rx ^ ry if diff is None else diff[rx * width + ry]
                for elim in basis:
                    r = elim[r]
                if not r:
                    return False
                basis.append(reducer[r])
        return True

    def independent(self, members):
        """`Ring.independent` from rows split once per member, not once per
        pair: each member's rows are mapped onto each residue field F once,
        and pre-scaled by |F|^n for use as the left operand, and then every
        pair is reduced over each field by the tables `_adjacent` reads.  A
        pair is adjacent only when it is nonsingular over every field.
        `_adjacent` keeps its own loop, which splits one pair as it reduces:
        a split-then-reduce `_adjacent` made unit scans, and so the graph
        builds, 1.7-2.7x slower, while a set of m members pays m splits here
        for its m(m - 1)/2 pairs."""
        n = self.n
        if n == 1:  # M_1(A) is A
            return super().independent(members)
        radix, split = self._row_radix, []
        for a in members:
            self.check_index(a)
            rows = []
            for _ in range(n):  # last row first, as in `_adjacent`
                a, r = divmod(a, radix)
                rows.append(r)
            split.append(rows)
        fields = []
        for row_map, width, diff, reducer in self._row_tables:
            right = split if row_map is None else [[row_map[r] for r in rows] for rows in split]
            left = right if diff is None else [[r * width for r in rows] for rows in right]
            fields.append((left, right, diff, reducer))
        count = len(split)
        for i in range(count):
            for j in range(i + 1, count):
                for left, right, diff, reducer in fields:
                    basis = []
                    for x, y in zip(left[i], right[j]):
                        r = x ^ y if diff is None else diff[x + y]
                        for elim in basis:
                            r = elim[r]
                        if not r:
                            break
                        basis.append(reducer[r])
                    else:  # nonsingular over this field
                        continue
                    break  # singular over this field: i and j are not adjacent
                else:
                    return False
        return True

    def element_repr(self, a):
        return ";".join(",".join(str(x) for x in row) for row in self.rows(a))


class TriRing(MatRing):
    """T(n, F): the upper triangular n x n matrices over a field, stored at
    i <= j.  A unit is a matrix whose diagonal entries are units of F, so
    a - b is a unit when F's edge test joins each diagonal entry pair.  Its
    index holds the stored entries only, so it has no rows to read at once:
    it keeps the stored-position codec and builds no row tables."""

    spec_class = T
    decode_entries = _EntryRing.decode_entries
    encode_entries = _EntryRing.encode_entries
    independent = Ring.independent

    @staticmethod
    def stored_positions(n):
        return [(i, j) for i in range(n) for j in range(i, n)]

    def rows(self, a):
        cells = dict(zip(self.positions, self.decode_entries(a)))
        n = self.n
        return tuple(tuple(cells.get((i, j), 0) for j in range(n)) for i in range(n))

    def _adjacent(self, a, b):
        radices, base = self._entry_radices, self.base
        return all(base._adjacent(x, y) for (i, j), x, y in
                   zip(self.positions, split_digits(a, radices), split_digits(b, radices)) if i == j)


class ProdRing(_EntryRing):
    """Direct product of rings: entry t lies in factor t."""

    def __init__(self, factors):
        self.factors = list(factors)
        self.spec = Prod(tuple(f.spec for f in self.factors))
        super().__init__(self.factors, [t for f in self.factors for t in f.radical_steps])
        self.one = self.encode_entries(tuple(f.one for f in self.factors))

    def mul(self, a, b):
        ca, cb = self.decode_entries(a), self.decode_entries(b)
        return self.encode_entries(tuple(f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)))

    def _adjacent(self, a, b):
        radices = self._entry_radices
        return all(f._adjacent(x, y) for f, x, y in
                   zip(self.factors, split_digits(a, radices), split_digits(b, radices)))

    def element_repr(self, a):
        comps = self.decode_entries(a)
        return "(" + "|".join(f.element_repr(x) for f, x in zip(self.factors, comps)) + ")"


def make_ring(spec, cap=DEFAULT_RING_CAP):
    """Build a ring handle from a spec (string or AST).  The spec checked itself
    when it was made, so this checks the caps once and builds the ring once."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    elif not isinstance(spec, SPECS):
        raise SpecConstraintError("not a ring spec: %r" % (spec,))
    # int-to-str refuses more than 4300 digits, so a huge order is given as a power of 2
    low = _order_log2_64ths(spec) // 64
    if low >= max(64, cap.bit_length()):  # |R| >= 2^low > cap: no power is taken
        raise CapExceededError("|R| >= 2^%d exceeds the cardinality cap %d" % (low, cap))
    order = spec_order(spec)  # below 4^(low + 1) here, so cheap
    if order > cap:
        size = "= %d" % order if order < 2 ** 64 else ">= 2^%d" % (order.bit_length() - 1)
        raise CapExceededError("|R| %s exceeds the cardinality cap %d" % (size, cap))
    # len(radices): a digit per Z(m) entry and k per GF(p^k) entry; a Z(1) entry adds no order
    digits = sum(copies * (1 if isinstance(leaf, Z) else leaf.k) for leaf, copies in _leaves(spec))
    if digits > cap:
        raise CapExceededError("R has more digits than the cardinality cap %d" % cap)
    if digits > MAX_RING_DIGITS:
        raise CapExceededError("R has %d digits, over the limit %d" % (digits, MAX_RING_DIGITS))
    return _build(spec)


def _build(spec):
    """The ring of a spec, with no cap: each caller has bounded it."""
    if isinstance(spec, Z):
        return ZmRing(spec.m)
    if isinstance(spec, GF):
        return GFRing(spec.q)
    if isinstance(spec, M):
        return MatRing(spec.n, _build(spec.base))
    if isinstance(spec, T):
        return TriRing(spec.n, _build(spec.base))
    return ProdRing([_build(f) for f in spec.factors])


# ---------------------------------------------------------------------------
# Jacobson radicals and quotients

def jacobson_radical_bruteforce(ring):
    """J(R) by quasi-regularity: x is in J iff 1 - r*x is a unit, that is
    1 ~ r*x, for all r."""
    if ring.order > BRUTE_FORCE_RADICAL_CAP:
        raise CapExceededError("ring of order %d too large for the O(|R|^2) radical scan" % ring.order)
    out = []
    for x in range(ring.order):
        if all(ring.adjacent(ring.one, ring.mul(r, x)) for r in range(ring.order)):
            out.append(x)
    return tuple(out)


def jacobson_radical(ring):
    """The sorted element indices of J(R): digit i runs over the multiples of
    radical_steps[i], most significant digit first, so the sums stay sorted."""
    out = [0]
    for s, d, t in zip(ring.strides, ring.radices, ring.radical_steps):
        out = [a + c for a in out for c in range(0, d * s, t * s)]
    return tuple(out)


def radical_spec(spec):
    """The spec of R/J(R): J(Z_m) = rad(m) Z_m, J(M_n(A)) = M_n(J(A)), and
    J(T_n(F)) is the strictly upper part, leaving the diagonal F^n."""
    if isinstance(spec, Z):
        return Z(math.prod(spec.primes))
    if isinstance(spec, GF):
        return spec
    if isinstance(spec, M):
        return M(spec.n, radical_spec(spec.base))
    if isinstance(spec, T):
        return spec if spec.n == 1 else Prod((spec.base,) * spec.n)
    return Prod(tuple(radical_spec(f) for f in spec.factors))


def radical_quotient(ring):
    """(R/J(R), projection): R/J's digit vector is R's reduced mod the radical
    steps, less the digits of step 1, so the projection is their `digit_map`.
    It numbers the cosets of J by their least elements in increasing order,
    and `graphs.build_graph` records them in that order as the twin classes
    of R's unitary Cayley graph.  R/J has no more elements or digits than R,
    so it is built with no cap check.
    """
    return _build(radical_spec(ring.spec)), digit_map(ring.radices, ring.radical_steps)
