"""Exact finite-ring kernel: specs, construction, arithmetic, radicals, quotients.

Every ring hands out elements as integer indices 0..order-1, with index 0
the additive zero.  Every ring (Z(m), GF(q), the matrix rings M and T, which
differ only in their stored entries, and products) indexes an element by the
big-endian mixed-radix value of its digit vector, and one digit-wise add/sub
serves them all.  J(R) is one subgroup per digit, so R/J(R) is again such a ring.
"""
from __future__ import annotations

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

@dataclass(frozen=True)
class Z:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise SpecConstraintError("Z(m) requires m >= 1, got %d" % self.m)

    @cached_property
    def primes(self):
        """The prime factorization of m, as a dict prime -> exponent."""
        return factorize(self.m)

    def __str__(self):
        return "Z(%d)" % self.m


@dataclass(frozen=True)
class GF:
    q: int
    p: int = field(init=False, compare=False, repr=False)  # q = p^k
    k: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        fs = factorize(self.q)  # {} for q < 2
        if len(fs) != 1:
            raise SpecConstraintError("GF(q) requires a prime power, %d is not one" % self.q)
        (p, k), = fs.items()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)

    def __str__(self):
        return "GF(%d)" % self.q


@dataclass(frozen=True)
class M:
    n: int
    base: object

    def __post_init__(self):
        if self.n < 1:
            raise SpecConstraintError("M(n,...) requires n >= 1")
        if not is_commutative_spec(self.base):
            raise SpecConstraintError("M requires a commutative base, got %s" % self.base)

    def __str__(self):
        return "M(%d,%s)" % (self.n, self.base)


@dataclass(frozen=True)
class T:
    n: int
    base: object

    def __post_init__(self):
        if self.n < 1:
            raise SpecConstraintError("T(n,...) requires n >= 1")
        base = self.base
        if not (isinstance(base, GF) or isinstance(base, Z) and base.primes == {base.m: 1}):
            raise SpecConstraintError("T requires a field base (GF(q) or Z(p), p prime), got %s" % self.base)

    def __str__(self):
        return "T(%d,%s)" % (self.n, self.base)


@dataclass(frozen=True)
class Prod:
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise SpecConstraintError("prod() requires at least one factor")
        for f in self.factors:
            if not isinstance(f, SPECS):
                raise SpecConstraintError("not a ring spec: %r" % (f,))

    def __str__(self):
        return "prod(%s)" % ",".join(str(f) for f in self.factors)


SPECS = (Z, GF, M, T, Prod)


def is_commutative_spec(spec):
    if isinstance(spec, (Z, GF)):
        return True
    if isinstance(spec, Prod):
        return all(is_commutative_spec(f) for f in spec.factors)
    return False


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

# deeper specs are refused, so the recursive spec functions stay far from Python's limit
MAX_SPEC_DEPTH = 64

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
    """Inverse of split_digits; raises RingError on a digit out of range."""
    out = 0
    for x, d in zip(digits, radices):
        if not (isinstance(x, int) and 0 <= x < d):
            raise RingError("digit %r out of range for radix %d" % (x, d))
        out = out * d + x
    return out


class Ring:
    """A finite ring with indexed elements.  Index 0 is the additive zero.

    The additive group is Z_{d_0} x ... x Z_{d_{L-1}} for the big-endian
    `radices` (d_0, .., d_{L-1}): an element index is the mixed-radix number
    of its digit vector, digit i has index weight `strides[i]`, and addition
    is digit-wise.  `radical_steps[i]` divides d_i, and J(R) is the set of
    elements whose digit i is a multiple of it, for every i.
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
        out = 0  # a loop, not a generator: a closure over a and b slows the path above
        for s, d in zip(self.strides, self.radices):
            out += (a // s + b // s) % d * s
        return out

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
        out = 0
        for s, d in zip(self.strides, self.radices):
            out += (a // s - b // s) % d * s
        return out

    def _unit(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        self.check_index(a)
        return self._unit(a)

    def units(self):
        return [a for a in range(self.order) if self.is_unit(a)]

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

    def _unit(self, a):
        return math.gcd(a, self.m) == 1


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

    def _unit(self, a):
        return a != 0


def det_entries(rows, base):
    """Determinant of a square matrix of base-ring element indices.

    Cofactor expansion along the first row; needs no division, hence valid
    over any commutative base.  Units are found by `is_invertible`; this is
    the oracle that the row reduction is tested against.
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
    as (field, reduce) pairs: `reduce` maps a list of element indices of R to
    a new list of their images in R/m.  `field` is a prime p when R/m = Z_p,
    whose elements are then plain ints mod p, and otherwise the GFRing R/m.
    """
    if isinstance(ring, ZmRing):
        return [(p, lambda xs, p=p: [x % p for x in xs]) for p in ring.spec.primes]
    if isinstance(ring, GFRing):
        return [(ring.p if ring.k == 1 else ring, list)]
    if isinstance(ring, ProdRing):
        out = []
        for c, factor in enumerate(ring.factors):
            s, d = math.prod(f.order for f in ring.factors[c + 1:]), factor.order
            out += [(field, lambda xs, s=s, d=d, reduce=reduce: reduce([x // s % d for x in xs]))
                    for field, reduce in residue_fields(factor)]
        return out
    raise RingError("%s is not commutative" % ring)


def _full_rank(m, n, field):
    """Whether the n x n row-major list m over a residue field has rank n.

    Inverse-free elimination, in place: with pivot a != 0 in column c, each
    lower row r becomes a*row_r - f*row_c, where f is its entry in column c.
    That keeps the rank and never divides.  Over a prime field the entries
    are ints mod p; over GF(p^k), k > 1, the field's mul and sub combine them.
    """
    prime = isinstance(field, int)
    for c in range(n):
        top, width = c * n + c, n - c
        pivot = next((r for r in range(top, n * n, n) if m[r]), None)
        if pivot is None:
            return False
        if pivot != top:  # columns left of c are dead in both rows
            m[top:top + width], m[pivot:pivot + width] = m[pivot:pivot + width], m[top:top + width]
        a, row_c = m[top], m[top + 1:top + width]
        for r in range(top + n, n * n, n):
            f = m[r]
            if f:
                rest = m[r + 1:r + width]
                m[r + 1:r + width] = (
                    [(a * x - f * y) % field for x, y in zip(rest, row_c)] if prime else
                    [field.sub(field.mul(a, x), field.mul(f, y)) for x, y in zip(rest, row_c)])
    return True


def is_invertible(entries, n, residues):
    """Whether the n x n row-major matrix `entries` over a commutative base is
    invertible, given `residue_fields(base)`: its determinant is a unit
    exactly when it lies in no maximal ideal, so when the matrix has full rank
    over every residue field."""
    return all(_full_rank(reduce(entries), n, field) for field, reduce in residues)


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
    and labels serve M_n(A) and its upper triangular subring T_n(F)."""

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
        self._residues = residue_fields(base)
        ident = tuple(base.one if i == j else 0 for i, j in self.positions)
        self.one = self.encode_entries(ident)

    def rows(self, a):
        cells = dict(zip(self.positions, self.decode_entries(a)))
        n = self.n
        return tuple(tuple(cells.get((i, j), 0) for j in range(n)) for i in range(n))

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

    def _unit(self, a):
        return is_invertible(self.decode_entries(a), self.n, self._residues)

    def element_repr(self, a):
        return ";".join(",".join(str(x) for x in row) for row in self.rows(a))


class TriRing(MatRing):
    """T(n, F): the upper triangular n x n matrices over a field, stored at
    i <= j.  A unit is a matrix whose diagonal entries are units of F."""

    spec_class = T

    @staticmethod
    def stored_positions(n):
        return [(i, j) for i in range(n) for j in range(i, n)]

    def _unit(self, a):
        return all(self.base.is_unit(x)
                   for (i, j), x in zip(self.positions, self.decode_entries(a)) if i == j)


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

    def _unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, self.decode_entries(a)))

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
    if sum(copies * (1 if isinstance(leaf, Z) else leaf.k)
           for leaf, copies in _leaves(spec)) > cap:
        raise CapExceededError("R has more digits than the cardinality cap %d" % cap)
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
    """J(R) by quasi-regularity: x is in J iff 1 - r*x is a unit for all r."""
    if ring.order > BRUTE_FORCE_RADICAL_CAP:
        raise CapExceededError("ring of order %d too large for the O(|R|^2) radical scan" % ring.order)
    out = []
    for x in range(ring.order):
        if all(ring.is_unit(ring.sub(ring.one, ring.mul(r, x))) for r in range(ring.order)):
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
    """(R/J(R), projection): projection[x] is x's digits reduced mod the
    radical steps and joined with the steps as radices.

    R/J's digit vector is R's reduced mod the steps, less the digits of step
    1, so the projection is the quotient map.  It numbers the cosets of J by
    their least elements in increasing order, as `indsets._twin_quotient`
    numbers the twin classes of R's unitary Cayley graph.  R/J has no more
    elements or digits than R, so it is built with no cap check.
    """
    quotient = _build(radical_spec(ring.spec))
    projection = [0]
    for d, t in zip(ring.radices, ring.radical_steps):
        projection = [p * t + c % t for p in projection for c in range(d)]
    return quotient, projection
