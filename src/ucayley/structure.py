"""Theorem-level classification of structured rings.

Works purely on ring specs: factor the semisimple quotient R/J(R) into
matrix rings over finite fields, then read off the well-covered /
Cohen-Macaulay / Gorenstein verdicts for the unitary Cayley graph, and
the sizes of U(R) and J(R).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, repeat

from .rings import GF, M, SPECS, T, Z, SpecConstraintError, parse_spec, radical_spec

MAX_SIMPLE_FACTORS = 2 ** 20

CLAUSE_FIELD = "R/J(R) is a field F"
CLAUSE_FXF = "R/J(R) is F x F for a finite field F"
CLAUSE_M2F = "R/J(R) is M_2(F) for a finite field F"
CLAUSE_Z2K = "R is (or reduces to) Z_2^k"
CLAUSE_R_FIELD = "R is a field"
CLAUSE_J_NONZERO = "J(R) is nonzero"


@dataclass(frozen=True)
class Verdict:
    answer: bool
    clause: str
    factors: tuple
    witness_hint: str = ""

    def to_json(self):
        out = {
            "answer": "yes" if self.answer else "no",
            "clause": self.clause,
            "factors": [list(f) for f in self.factors],
        }
        if self.witness_hint:
            out["witness_hint"] = self.witness_hint
        return out


def semisimple_quotient(spec):
    """R/J(R) as a sorted multiset of (n_i, q_i) with R/J ~= prod M_{n_i}(F_{q_i})."""
    if not isinstance(spec, SPECS):
        raise SpecConstraintError("not a ring spec: %r" % (spec,))
    factors = list(islice(_factors(spec), MAX_SIMPLE_FACTORS + 1))
    if len(factors) > MAX_SIMPLE_FACTORS:
        raise SpecConstraintError("R/J(R) has more than %d simple factors" % MAX_SIMPLE_FACTORS)
    return tuple(sorted(factors))


def _factors(spec):
    if isinstance(spec, Z):
        yield from ((1, p) for p in sorted(spec.primes))
    elif isinstance(spec, GF):
        yield 1, spec.q
    elif isinstance(spec, T):
        yield from repeat((1, spec.base.q if isinstance(spec.base, GF) else spec.base.m), spec.n)
    elif isinstance(spec, M):
        yield from ((spec.n * a, q) for a, q in _factors(spec.base))
    else:
        for f in spec.factors:
            yield from _factors(f)


def gl_order(n, q):
    """|GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1))."""
    return math.prod(q ** n - q ** i for i in range(n))


def ring_metadata(ring):
    """JSON-ready summary {spec, order, unit_count, radical_size}, in closed
    form from R/J(R) = prod M_{n_i}(F_{q_i}): |J| = |R| / prod q_i^(n_i^2),
    and x is a unit of R exactly when x + J is a unit of R/J, so
    |U(R)| = |J| prod |GL_{n_i}(F_{q_i})|.  The scan is `len(ring.units())`."""
    factors = semisimple_quotient(ring.spec)
    radical_size = ring.order // math.prod(q ** (n * n) for n, q in factors)
    return {
        "spec": str(ring),
        "order": ring.order,
        "unit_count": radical_size * math.prod(gl_order(n, q) for n, q in factors),
        "radical_size": radical_size,
    }


def radical_is_zero(spec):
    """Whether J(R) = 0, that is, whether R is its own semisimple quotient."""
    return radical_spec(spec) == spec


def _spec_and_factors(spec):
    """The spec (parsed if given as a string) and its R/J(R) factor multiset."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return spec, semisimple_quotient(spec)


def classify_well_covered(spec):
    """Is the unitary Cayley graph of R well-covered?  Decided by theorem."""
    spec, fl = _spec_and_factors(spec)
    if len(fl) == 1 and fl[0][0] == 1:
        return Verdict(True, CLAUSE_FIELD, fl)
    if len(fl) == 2 and fl[0][0] == fl[1][0] == 1 and fl[0][1] == fl[1][1]:
        return Verdict(True, CLAUSE_FXF, fl)
    if len(fl) == 1 and fl[0][0] == 2:
        return Verdict(True, CLAUSE_M2F, fl)
    if all(f == (1, 2) for f in fl):
        return Verdict(True, CLAUSE_Z2K, fl)
    return Verdict(False, "none of the classifying clauses applies", fl,
                   witness_hint=_refutation_hint(fl))


def _refutation_hint(fl):
    big = [f for f in fl if f[0] >= 3]
    if big:
        return ("contains a factor M_%d(F_%d); extend the reduced-diagonal family "
                "to a short maximal independent set" % big[0])
    if len(fl) >= 2 and any(f[0] >= 2 for f in fl):
        return ("decomposable with a matrix factor; the witness set "
                "(R x {0}) u (M x non-units) is maximal of non-maximum size")
    return ("two simple factors of different orders; a product of maximal sets "
            "of different relative sizes refutes purity")


def classify_cm(spec):
    """Is the unitary Cayley graph of R Cohen-Macaulay?  Decided by theorem."""
    spec, fl = _spec_and_factors(spec)
    if not radical_is_zero(spec):
        return Verdict(False, CLAUSE_J_NONZERO, fl,
                       witness_hint="top pure skeleton disconnected in codimension 1")
    if len(fl) == 1 and fl[0][0] == 1:
        return Verdict(True, CLAUSE_R_FIELD, fl)
    if all(f == (1, 2) for f in fl):
        return Verdict(True, CLAUSE_Z2K, fl)
    return Verdict(False, "semisimple but neither a field nor Z_2^k", fl)


def classify_gorenstein(spec):
    """Is the unitary Cayley graph of R Gorenstein?  Yes exactly for Z_2^k."""
    spec, fl = _spec_and_factors(spec)
    if not radical_is_zero(spec):
        return Verdict(False, CLAUSE_J_NONZERO, fl)
    if all(f == (1, 2) for f in fl):
        return Verdict(True, CLAUSE_Z2K, fl)
    return Verdict(False, "R is not isomorphic to Z_2^k", fl)
