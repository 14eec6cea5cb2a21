"""Theorem-level classification of structured rings.

Works purely on ring specs: factor the semisimple quotient R/J(R) into
matrix rings over finite fields, then read off the well-covered /
Cohen-Macaulay / Gorenstein verdicts for the unitary Cayley graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .rings import (GF, M, Prod, T, Z, factorize, parse_spec, squarefree_part,
                    validate_spec)

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
    validate_spec(spec)
    return tuple(sorted(_factors(spec)))


def _factors(spec):
    if isinstance(spec, Z):
        return [(1, p) for p in sorted(factorize(spec.m))]
    if isinstance(spec, GF):
        return [(1, spec.q)]
    if isinstance(spec, T):
        q = spec.base.q if isinstance(spec.base, GF) else spec.base.m
        return [(1, q)] * spec.n
    if isinstance(spec, M):
        return [(spec.n * a, q) for a, q in _factors(spec.base)]
    if isinstance(spec, Prod):
        out = []
        for f in spec.factors:
            out.extend(_factors(f))
        return out
    raise AssertionError("unreachable")


def radical_is_zero(spec):
    """Whether J(R) = 0, from the structured radical rules."""
    if isinstance(spec, Z):
        return spec.m == squarefree_part(spec.m)
    if isinstance(spec, GF):
        return True
    if isinstance(spec, M):
        return radical_is_zero(spec.base)
    if isinstance(spec, T):
        return spec.n == 1
    if isinstance(spec, Prod):
        return all(radical_is_zero(f) for f in spec.factors)
    raise AssertionError("unreachable")


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
    if radical_is_zero(spec) and all(f == (1, 2) for f in fl):
        return Verdict(True, CLAUSE_Z2K, fl)
    if not radical_is_zero(spec):
        return Verdict(False, CLAUSE_J_NONZERO, fl)
    return Verdict(False, "R is not isomorphic to Z_2^k", fl)
