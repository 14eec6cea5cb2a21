"""Exact finite-ring kernel: specs, construction, arithmetic, radicals, quotients.

Every ring hands out elements as integer indices 0..order-1, with index 0
the additive zero.  Structured rings (Z(m), GF(q), square/triangular matrix
rings, products) index an element by the big-endian mixed-radix value of its
digit vector, and one digit-wise add/neg serves them all; quotient rings are
table-backed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

DEFAULT_RING_CAP = 2 ** 20

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
    """Prime factorization of m >= 1 as a dict prime -> exponent."""
    fs = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    return fs


def is_prime(p):
    return p >= 2 and factorize(p) == {p: 1}


def prime_power(q):
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    fs = factorize(q)
    if len(fs) == 1:
        return next(iter(fs.items()))
    return None


def squarefree_part(m):
    """Product of the distinct primes dividing m (1 for m = 1)."""
    out = 1
    for p in factorize(m):
        out *= p
    return out


# ---------------------------------------------------------------------------
# ring specs

@dataclass(frozen=True)
class Z:
    m: int

    def __str__(self):
        return "Z(%d)" % self.m


@dataclass(frozen=True)
class GF:
    q: int

    def __str__(self):
        return "GF(%d)" % self.q


@dataclass(frozen=True)
class M:
    n: int
    base: object

    def __str__(self):
        return "M(%d,%s)" % (self.n, self.base)


@dataclass(frozen=True)
class T:
    n: int
    base: object

    def __str__(self):
        return "T(%d,%s)" % (self.n, self.base)


@dataclass(frozen=True)
class Prod:
    factors: tuple

    def __str__(self):
        return "prod(%s)" % ",".join(str(f) for f in self.factors)


def is_commutative_spec(spec):
    if isinstance(spec, (Z, GF)):
        return True
    if isinstance(spec, Prod):
        return all(is_commutative_spec(f) for f in spec.factors)
    return False


def is_field_spec(spec):
    if isinstance(spec, GF):
        return True
    return isinstance(spec, Z) and is_prime(spec.m)


def validate_spec(spec):
    """Check the structural constraints of a spec; raise SpecConstraintError."""
    if isinstance(spec, Z):
        if spec.m < 1:
            raise SpecConstraintError("Z(m) requires m >= 1, got %d" % spec.m)
    elif isinstance(spec, GF):
        if prime_power(spec.q) is None:
            raise SpecConstraintError("GF(q) requires a prime power, %d is not one" % spec.q)
    elif isinstance(spec, M):
        if spec.n < 1:
            raise SpecConstraintError("M(n,...) requires n >= 1")
        if not is_commutative_spec(spec.base):
            raise SpecConstraintError("M requires a commutative base, got %s" % spec.base)
        validate_spec(spec.base)
    elif isinstance(spec, T):
        if spec.n < 1:
            raise SpecConstraintError("T(n,...) requires n >= 1")
        if not is_field_spec(spec.base):
            raise SpecConstraintError("T requires a field base (GF(q) or Z(p), p prime), got %s" % spec.base)
        validate_spec(spec.base)
    elif isinstance(spec, Prod):
        if not spec.factors:
            raise SpecConstraintError("prod() requires at least one factor")
        for f in spec.factors:
            validate_spec(f)
    else:
        raise SpecConstraintError("not a ring spec: %r" % (spec,))
    return spec


def spec_order(spec):
    """Cardinality of the ring described by spec, without building it."""
    if isinstance(spec, Z):
        return spec.m
    if isinstance(spec, GF):
        return spec.q
    if isinstance(spec, M):
        return spec_order(spec.base) ** (spec.n * spec.n)
    if isinstance(spec, T):
        return spec_order(spec.base) ** (spec.n * (spec.n + 1) // 2)
    if isinstance(spec, Prod):
        out = 1
        for f in spec.factors:
            out *= spec_order(f)
        return out
    raise SpecConstraintError("not a ring spec: %r" % (spec,))


def _order_log2_64ths(spec):
    """A lower bound on 64 log2 |R|, with no power of |R| taken: the sum over
    the spec's Z(m) and GF(q) leaves of their multiplicity times
    floor(64 log2 m).

    It falls short by less than 1 per leaf occurrence, so by under 1/64 of
    64 log2 |R| (each occurrence adds log2 m >= 1 bit), and not at all when
    |R| is a power of 2.
    """
    if isinstance(spec, (Z, GF)):
        return ((spec.m if isinstance(spec, Z) else spec.q) ** 64).bit_length() - 1
    if isinstance(spec, M):
        return spec.n * spec.n * _order_log2_64ths(spec.base)
    if isinstance(spec, T):
        return spec.n * (spec.n + 1) // 2 * _order_log2_64ths(spec.base)
    if isinstance(spec, Prod):
        return sum(_order_log2_64ths(f) for f in spec.factors)
    raise SpecConstraintError("not a ring spec: %r" % (spec,))


# ---------------------------------------------------------------------------
# spec parser
#   spec := Z(m) | GF(q) | M(n,spec) | T(n,spec) | prod(spec{,spec})

def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
        elif c in "(),":
            toks.append((c, c, i))
            i += 1
        else:
            raise SpecSyntaxError("unexpected character %r" % c, i)
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def expect(self, kind):
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise SpecSyntaxError("expected %s, got %r" % (kind, tok[1]), tok[2])
        self.i += 1
        return tok

    def parse_spec(self):
        kind, value, pos = self.peek()
        if kind != "name":
            raise SpecSyntaxError("expected a constructor name, got %r" % (value,), pos)
        self.i += 1
        if value == "Z":
            self.expect("(")
            m = self.expect("num")[1]
            self.expect(")")
            return Z(m)
        if value == "GF":
            self.expect("(")
            q = self.expect("num")[1]
            self.expect(")")
            return GF(q)
        if value in ("M", "T"):
            self.expect("(")
            n = self.expect("num")[1]
            self.expect(",")
            base = self.parse_spec()
            self.expect(")")
            return (M if value == "M" else T)(n, base)
        if value == "prod":
            self.expect("(")
            factors = [self.parse_spec()]
            while self.peek()[0] == ",":
                self.i += 1
                factors.append(self.parse_spec())
            self.expect(")")
            return Prod(tuple(factors))
        raise SpecSyntaxError("unknown constructor %r" % value, pos)


def parse_spec(text):
    """Parse a ring-spec string to its AST, validating all constraints."""
    parser = _Parser(_tokenize(text))
    spec = parser.parse_spec()
    tok = parser.peek()
    if tok[0] != "end":
        raise SpecSyntaxError("trailing input %r" % (tok[1],), tok[2])
    return validate_spec(spec)


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

    A structured ring's additive group is Z_{d_0} x ... x Z_{d_{L-1}} for its
    big-endian `radices` (d_0, .., d_{L-1}): an element index is the
    mixed-radix number of its digit vector, digit i has index weight
    `strides[i]`, and addition is digit-wise.  Table rings have radices None.
    """

    spec = None
    order = 0
    one = 0
    radices = strides = None

    def __init__(self, radices=None):
        self._unit_cache = {}
        if radices is not None:
            self.radices = tuple(radices)
            self.order = math.prod(self.radices)
            self.strides = tuple(math.prod(self.radices[i + 1:])
                                 for i in range(len(self.radices)))

    def check_index(self, a):
        if not (isinstance(a, int) and 0 <= a < self.order):
            raise RingError("element index %r out of range for %s" % (a, self))

    def add(self, a, b):
        # One inline check of both indices, and the one-digit case first: this
        # is the determinant's hot path over Z(p) and GF(p).
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
        self.check_index(a)
        if len(self.radices) == 1:
            return -a % self.order
        out = 0
        for s, d in zip(self.strides, self.radices):
            out += -(a // s) % d * s
        return out

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _unit(self, a):
        raise NotImplementedError

    def is_unit(self, a):
        self.check_index(a)
        hit = self._unit_cache.get(a)
        if hit is None:
            hit = self._unit_cache[a] = self._unit(a)
        return hit

    def units(self):
        return [a for a in range(self.order) if self.is_unit(a)]

    def unit_count(self):
        return sum(1 for a in range(self.order) if self.is_unit(a))

    def element_repr(self, a):
        return str(a)

    def __str__(self):
        return str(self.spec) if self.spec is not None else self.__class__.__name__


class ZmRing(Ring):
    def __init__(self, m):
        super().__init__((m,))
        self.spec = Z(m)
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
        pk = prime_power(q)
        if pk is None:
            raise SpecConstraintError("GF(q) requires a prime power, %d is not one" % q)
        self.p, self.k = pk
        super().__init__((self.p,) * self.k)
        self.spec = GF(q)
        self.q = q
        self.one = 1
        self.modulus = smallest_irreducible(self.p, self.k) if self.k > 1 else None

    def mul(self, a, b):
        self.check_index(a)
        self.check_index(b)
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        ca, cb = split_digits(a, self.radices)[::-1], split_digits(b, self.radices)[::-1]
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        return join_digits(prod[k - 1::-1], self.radices)

    def _unit(self, a):
        return a != 0


def det_entries(rows, base):
    """Determinant of a square matrix of base-ring element indices.

    Cofactor expansion along the first row; needs no division, hence valid
    over any commutative base.
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


class _EntryRing(Ring):
    """A ring whose elements are tuples of `size` base-ring entries.

    The index is the big-endian mixed-radix value of the entry tuple (entry 0
    most significant), so the radices are the base's, once per entry.
    """

    def __init__(self, base, size):
        super().__init__(base.radices * size)
        self.base = base
        self._entry_radices = (base.order,) * size

    def decode_entries(self, a):
        self.check_index(a)
        return split_digits(a, self._entry_radices)

    def encode_entries(self, entries):
        return join_digits(entries, self._entry_radices)


class MatRing(_EntryRing):
    """M(n, base) for a commutative base ring; entries are row-major."""

    def __init__(self, n, base):
        super().__init__(base, n * n)
        self.n = n
        self.spec = M(n, base.spec)
        ident = [0] * (n * n)
        for i in range(n):
            ident[i * n + i] = base.one
        self.one = self.encode_entries(tuple(ident))

    def rows(self, a):
        e = self.decode_entries(a)
        n = self.n
        return tuple(e[i * n:(i + 1) * n] for i in range(n))

    def mul(self, a, b):
        n, base = self.n, self.base
        ra, rb = self.rows(a), self.rows(b)
        out = []
        for i in range(n):
            for j in range(n):
                s = 0
                for k in range(n):
                    s = base.add(s, base.mul(ra[i][k], rb[k][j]))
                out.append(s)
        return self.encode_entries(tuple(out))

    def det(self, a):
        return det_entries(self.rows(a), self.base)

    def _unit(self, a):
        return self.base.is_unit(self.det(a))

    def element_repr(self, a):
        return ";".join(",".join(str(x) for x in row) for row in self.rows(a))


class TriRing(_EntryRing):
    """T(n, F): upper triangular n x n matrices over a field."""

    def __init__(self, n, base):
        self.positions = [(i, j) for i in range(n) for j in range(i, n)]
        self.pos_index = {pos: t for t, pos in enumerate(self.positions)}
        super().__init__(base, len(self.positions))
        self.n = n
        self.spec = T(n, base.spec)
        ident = tuple(base.one if i == j else 0 for i, j in self.positions)
        self.one = self.encode_entries(ident)

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

    def _unit(self, a):
        e = self.decode_entries(a)
        return all(self.base.is_unit(e[self.pos_index[(i, i)]]) for i in range(self.n))

    def element_repr(self, a):
        e = self.decode_entries(a)
        rows = []
        for i in range(self.n):
            rows.append(",".join(str(e[self.pos_index[(i, j)]]) if j >= i else "0"
                                 for j in range(self.n)))
        return ";".join(rows)


class ProdRing(Ring):
    """Direct product of rings; big-endian mixed-radix element encoding."""

    def __init__(self, factors):
        self.factors = list(factors)
        super().__init__(tuple(d for f in self.factors for d in f.radices))
        self.spec = Prod(tuple(f.spec for f in self.factors))
        self._factor_orders = tuple(f.order for f in self.factors)
        self.one = self.encode_components(tuple(f.one for f in self.factors))

    def decode_components(self, a):
        self.check_index(a)
        return split_digits(a, self._factor_orders)

    def encode_components(self, comps):
        return join_digits(comps, self._factor_orders)

    def mul(self, a, b):
        ca, cb = self.decode_components(a), self.decode_components(b)
        return self.encode_components(tuple(f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)))

    def _unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, self.decode_components(a)))

    def element_repr(self, a):
        comps = self.decode_components(a)
        return "(" + "|".join(f.element_repr(x) for f, x in zip(self.factors, comps)) + ")"


def make_ring(spec, cap=DEFAULT_RING_CAP):
    """Build a ring handle from a spec (string or AST)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    validate_spec(spec)
    # int-to-str refuses more than 4300 digits, so a huge order is given as a power of 2
    low = _order_log2_64ths(spec) // 64
    if low >= max(64, cap.bit_length()):  # |R| >= 2^low > cap: no power is taken
        raise CapExceededError("|R| >= 2^%d exceeds the cardinality cap %d" % (low, cap))
    order = spec_order(spec)  # below 4^(low + 1) here, so cheap
    if order > cap:
        size = "= %d" % order if order < 2 ** 64 else ">= 2^%d" % (order.bit_length() - 1)
        raise CapExceededError("|R| %s exceeds the cardinality cap %d" % (size, cap))
    if isinstance(spec, Z):
        return ZmRing(spec.m)
    if isinstance(spec, GF):
        return GFRing(spec.q)
    if isinstance(spec, M):
        return MatRing(spec.n, make_ring(spec.base, cap))
    if isinstance(spec, T):
        return TriRing(spec.n, make_ring(spec.base, cap))
    if isinstance(spec, Prod):
        return ProdRing([make_ring(f, cap) for f in spec.factors])
    raise SpecConstraintError("not a ring spec: %r" % (spec,))


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
    """The set of element indices of J(R); structured rule where available."""
    if isinstance(ring, ZmRing):
        step = squarefree_part(ring.m)
        return tuple(range(0, ring.m, step))
    if isinstance(ring, GFRing):
        return (0,)
    if isinstance(ring, MatRing):
        rad = jacobson_radical(ring.base)
        out = [ring.encode_entries(e) for e in itertools.product(rad, repeat=ring.n * ring.n)]
        return tuple(sorted(out))
    if isinstance(ring, TriRing):
        choices = [(0,) if i == j else range(ring.base.order) for i, j in ring.positions]
        out = [ring.encode_entries(e) for e in itertools.product(*choices)]
        return tuple(sorted(out))
    if isinstance(ring, ProdRing):
        rads = [jacobson_radical(f) for f in ring.factors]
        out = [ring.encode_components(c) for c in itertools.product(*rads)]
        return tuple(sorted(out))
    return jacobson_radical_bruteforce(ring)


def is_two_sided_ideal(ring, elems):
    """Check closure of elems under +, -, and two-sided multiplication by R."""
    iset = set(elems)
    if 0 not in iset:
        return False
    for x in iset:
        if ring.neg(x) not in iset:
            return False
        for y in iset:
            if ring.add(x, y) not in iset:
                return False
    for r in range(ring.order):
        for x in iset:
            if ring.mul(r, x) not in iset or ring.mul(x, r) not in iset:
                return False
    return True


class QuotientRing(Ring):
    """R/I on minimal coset representatives, with the projection map exposed.

    The quotient has no digit structure: its arithmetic is table lookup.
    """

    def __init__(self, ring, ideal):
        super().__init__()
        ideal = tuple(sorted(set(ideal)))
        if not is_two_sided_ideal(ring, ideal):
            raise RingError("the given set is not a two-sided ideal of %s" % ring)
        rep_of = {}
        reps = []
        for x in range(ring.order):
            if x in rep_of:
                continue
            coset = sorted(ring.add(x, j) for j in ideal)
            for y in coset:
                rep_of[y] = x
            reps.append(x)
        index_of = {r: i for i, r in enumerate(reps)}
        proj = [index_of[rep_of[x]] for x in range(ring.order)]
        t = len(reps)
        self.order = t
        self._add = [[proj[ring.add(reps[i], reps[j])] for j in range(t)] for i in range(t)]
        self._mul = [[proj[ring.mul(reps[i], reps[j])] for j in range(t)] for i in range(t)]
        self.one = proj[ring.one]
        self.labels = [ring.element_repr(r) + "+J" for r in reps]
        self.source = ring
        self.reps = reps
        self.projection = proj

    def add(self, a, b):
        self.check_index(a)
        self.check_index(b)
        return self._add[a][b]

    def neg(self, a):
        self.check_index(a)
        return self._add[a].index(0)

    def mul(self, a, b):
        self.check_index(a)
        self.check_index(b)
        return self._mul[a][b]

    def _unit(self, a):
        return any(self._mul[a][b] == self.one and self._mul[b][a] == self.one
                   for b in range(self.order))

    def element_repr(self, a):
        return self.labels[a]

    def __str__(self):
        return "table ring of order %d" % self.order

    def project(self, a):
        self.source.check_index(a)
        return self.projection[a]

    def preimage(self, coset_index):
        self.check_index(coset_index)
        return tuple(sorted(x for x in range(self.source.order)
                            if self.projection[x] == coset_index))


def quotient_ring(ring, ideal):
    return QuotientRing(ring, ideal)


def ring_metadata(ring):
    """JSON-ready summary {spec, order, unit_count, radical_size}."""
    return {
        "spec": str(ring),
        "order": ring.order,
        "unit_count": ring.unit_count(),
        "radical_size": len(jacobson_radical(ring)),
    }
