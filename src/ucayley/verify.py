"""Verification harness: re-derives the classification results at desk scale.

Each check pairs an exhaustive / constructive computation with the verdict
the classification module predicts, and fails loudly on any mismatch.
"""
from __future__ import annotations

import itertools
import random
import time

from . import constructions as cons
from .complexes import (SHELLING_FOUND, codim1_connected, find_shelling,
                        independence_complex, pure_skeleton)
from .graphs import build_graph, conjunction_product
from .indsets import (enumerate_maximal_independent, greedy_extend,
                      independence_number, is_well_covered, radical_saturate)
# det_entries is not called here; bench/spans.py times it in this namespace
from .rings import (DEFAULT_RING_CAP, GFRing, MatRing, det_entries,  # noqa: F401
                    jacobson_radical, jacobson_radical_bruteforce, make_ring,
                    radical_quotient)
from .structure import classify_gorenstein, classify_well_covered, gl_order

CATALOG = (
    ["Z(%d)" % m for m in range(1, 17)]
    + ["GF(%d)" % q for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["T(2,GF(2))", "T(3,GF(2))", "T(2,GF(3))",
       "M(2,GF(2))", "M(2,GF(3))",
       "prod(Z(2),Z(2))", "prod(Z(2),Z(2),Z(2))",
       "prod(Z(2),Z(3))", "prod(Z(3),Z(3))", "M(2,Z(4))"]
)

GORENSTEIN_MEMBERS = {"Z(1)", "Z(2)", "GF(2)", "prod(Z(2),Z(2))", "prod(Z(2),Z(2),Z(2))"}


class CheckFailure(AssertionError):
    pass


class _Ctx:
    """Memoizes rings and graphs shared between checks."""

    def __init__(self, seed=0):
        self.rings = {}
        self.graphs = {}
        self.seed = seed
        self._greedy_mnf = {}

    def ring(self, text):
        if text not in self.rings:
            self.rings[text] = make_ring(text)
        return self.rings[text]

    def matrices(self, n, q):
        """M_n(F_q), one ring per (n, q) per run, shared with `ring`: made by
        make_ring within its cap, and built directly past it."""
        text = "M(%d,GF(%d))" % (n, q)
        if text not in self.rings:
            self.rings[text] = (make_ring(text) if q ** (n * n) <= DEFAULT_RING_CAP
                                else MatRing(n, GFRing(q)))
        return self.rings[text]

    def graph(self, text):
        if text not in self.graphs:
            self.graphs[text] = build_graph(self.ring(text))
        return self.graphs[text]

    def greedy_over_family(self, n, q):
        """Greedy maximal independent set of Gamma(M_n(F_q)) containing the
        reduced-diagonal family, as (ring, family indices, vertex tuple)."""
        key = (n, q)
        if key not in self._greedy_mnf:
            spec = "M(%d,GF(%d))" % (n, q)
            ring = self.ring(spec)
            fam = tuple(ring.encode_entries(e) for e in cons.d_family(n, ring.base))
            m = greedy_extend(self.graph(spec), fam)
            self._greedy_mnf[key] = (ring, fam, m)
        return self._greedy_mnf[key]


def _need(cond, msg, *args):
    """Raise CheckFailure(msg % args, or msg with no args) unless cond: the
    checks' inner loops pass args, so no message is formatted on a pass."""
    if not cond:
        raise CheckFailure(msg % args if args else msg)


# --- checks ----------------------------------------------------------------

def check_alpha_formula(ctx):
    got = {}
    for n, q in ((2, 2), (2, 3)):
        a = independence_number(ctx.graph("M(%d,GF(%d))" % (n, q)))
        want = q ** (n * n - n)
        _need(a == want, "alpha(M_%d(F_%d)) = %d, expected %d" % (n, q, a, want))
        got[(n, q)] = a
    return "alpha(M_2(F_2))=%d, alpha(M_2(F_3))=%d" % (got[(2, 2)], got[(2, 3)])


def check_well_covered_small_n(ctx):
    details = []
    cases = [(1, q) for q in (2, 3, 4, 5)] + [(2, 2), (2, 3)]
    for n, q in cases:
        rep = is_well_covered(ctx.graph("M(%d,GF(%d))" % (n, q)))
        want = q ** (n * n - n)
        _need(rep.answer == "yes",
              "M_%d(F_%d) should enumerate as well-covered" % (n, q))
        _need(set(rep.counts) == {want},
              "M_%d(F_%d): sizes %s, expected only %d" % (n, q, sorted(rep.counts), want))
        details.append("M_%d(F_%d): %d sets of size %d" % (n, q, rep.counts[want], want))
    return "; ".join(details)


def check_not_well_covered_n3(ctx):
    ring, fam, m = ctx.greedy_over_family(3, 2)
    _need(len(m) < 64, "maximal set over the family has size %d, expected < 64" % len(m))
    _need(set(fam) <= set(m), "greedy extension lost part of the seed family")
    positions = cons.zero_pattern_positions(3)
    for v in m:
        e = ring.decode_entries(v)
        for i, j in positions:
            if e[i * 3 + j]:
                raise CheckFailure("element %s violates the forced-zero pattern at (%d,%d)"
                                   % (ring.element_repr(v), i, j))
    return "greedy maximal set has size %d < 64; zero pattern holds at %s" % (
        len(m), positions)


def check_family_independent(ctx, pairs=((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))):
    details = []
    for n, q in pairs:
        ring = ctx.matrices(n, q)
        fam = cons.d_family(n, ring.base)
        want = n * (q ** (n - 1) - 1) + 1
        _need(len(fam) == want,
              "family size for (n=%d,q=%d) is %d, expected %d" % (n, q, len(fam), want))
        members = [ring.encode_entries(e) for e in fam]
        _need(ring.independent(members), "family not independent for (n=%d,q=%d)", n, q)
        details.append("(%d,%d): %d matrices" % (n, q, want))
    return "pairwise-singular differences; sizes " + ", ".join(details)


def check_row_mixing(ctx):
    ring, fam, m = ctx.greedy_over_family(3, 2)
    subsets = [s for r in range(1, 4) for s in itertools.combinations(range(3), r)]
    mixes = 0
    for a in m:
        for d in fam:
            for rows in subsets:
                if ring.is_unit(cons.row_mix(a, d, rows, 3, ring.base)):
                    raise CheckFailure("row mix of %s with %s over rows %s is invertible"
                                       % (ring.element_repr(a), ring.element_repr(d), rows))
                mixes += 1
    return "%d row mixes, all singular" % mixes


def check_radical_correspondence(ctx, text):
    ring = ctx.ring(text)
    rad = jacobson_radical(ring)
    _need(rad == jacobson_radical_bruteforce(ring),
          "%s: structured and brute-force radicals disagree" % text)
    quot, proj = radical_quotient(ring)
    _need(tuple(x for x, c in enumerate(proj) if c == 0) == rad,
          "%s: the projection's kernel is not J(R)" % text)
    g_r = ctx.graph(text)
    g_q = build_graph(quot)
    max_r = set(enumerate_maximal_independent(g_r))
    max_q = set(enumerate_maximal_independent(g_q))
    # a set of R/J lifts to every x whose coset lies in it
    lifted = {tuple(x for x, c in enumerate(proj) if c in s) for s in max_q}
    _need(max_r == lifted,
          "%s: maximal sets are not the saturated lifts from R/J" % text)
    for s in max_r:
        _need(radical_saturate(ring, rad, s) == s,
              "%s: a maximal set is not J-saturated" % text)
    rep_r = is_well_covered(g_r)
    rep_q = is_well_covered(g_q)
    _need(rep_r.answer == rep_q.answer,
          "%s: well-covered verdicts differ between R and R/J" % text)
    return "%s: %d sets <-> %d sets, verdict %s" % (
        text, len(max_r), len(max_q), rep_r.answer)


def check_avoidance_partner(ctx, random_count=500):
    rng = random.Random(ctx.seed)
    cases = [(q, 2, None, "%d matrices" % (q ** 4 - 1)) for q in (2, 3)]
    cases.append((3, 3, random_count, "%d random matrices" % random_count))
    details = []
    for q, n, count, counted in cases:
        ring = ctx.matrices(n, q)
        # every nonzero A in index order, or `count` drawn uniformly from them
        matrices = (range(1, ring.order) if count is None else
                    (rng.randrange(1, ring.order) for _ in range(count)))
        for a in matrices:
            b = cons.avoidance_partner(a, n, ring.base)
            if ring.is_unit(b) or not ring.adjacent(a, b):
                raise CheckFailure("%s for A=%s, B=%s in M_%d(F_%d)" % (
                    "B is a unit" if ring.is_unit(b) else "A - B is singular",
                    ring.element_repr(a), ring.element_repr(b), n, q))
        details.append("M_%d(F_%d): %s" % (n, q, counted))
    return "; ".join(details)


def _is_maximal_independent(g, vertices):
    """Whether `vertices` is a maximal independent set of g: greedy_extend
    returns exactly such a set unchanged and refuses a dependent one."""
    try:
        return greedy_extend(g, vertices) == tuple(sorted(set(vertices)))
    except ValueError:
        return False


def check_product_refutation(ctx):
    wit = cons.product_witness(*ctx.ring("prod(Z(2),M(2,GF(2)))").factors)
    _need(len(wit.witness) == 11, "witness size %d, expected 11" % len(wit.witness))
    _need(len(wit.competing) == 16, "competing set size %d, expected 16" % len(wit.competing))
    g = ctx.graph("prod(Z(2),M(2,GF(2)))")
    _need(_is_maximal_independent(g, wit.witness), "witness N is not maximal independent")
    _need(_is_maximal_independent(g, wit.competing), "M x M_2(F_2) is not maximal independent")
    rep = is_well_covered(g)
    _need(rep.answer == "no", "product graph should not be well-covered")
    return "maximal sets of sizes 11 and 16 coexist; verdict no (alpha=%d)" % rep.alpha


def check_conjunction_identity(ctx):
    for a, b in (("Z(2)", "Z(3)"), ("Z(2)", "M(2,GF(2))")):
        g_prod = build_graph(ctx.ring("prod(%s,%s)" % (a, b)))
        g_conj = conjunction_product(ctx.graph(a), ctx.graph(b))
        _need(g_prod.adj == g_conj.adj,
              "conjunction product mismatch for %s x %s" % (a, b))
    return "product graphs equal their conjunction products (2 cases)"


def check_classification_vs_enumeration(ctx):
    agree = 0
    for text in CATALOG:
        verdict = classify_well_covered(text)
        rep = is_well_covered(ctx.graph(text))
        _need(rep.answer in ("yes", "no"), "%s: enumeration inconclusive" % text)
        _need(verdict.answer == (rep.answer == "yes"),
              "%s: theorem says %s, enumeration says %s"
              % (text, verdict.answer, rep.answer))
        agree += 1
    return "theorem and exhaustion agree on all %d catalog rings" % agree


def check_cm_obstructions(ctx):
    details = []
    for text in ("M(2,GF(2))", "Z(4)"):
        c = independence_complex(ctx.graph(text))
        top = pure_skeleton(c, c.dim)
        connected, comps = codim1_connected(top)
        _need(not connected, "%s: top pure skeleton should be disconnected" % text)
        details.append("%s: %d components" % (text, len(comps)))
    shellable = ["Z(2)", "prod(Z(2),Z(2))", "prod(Z(2),Z(2),Z(2))",
                 "GF(2)", "GF(3)", "GF(4)", "GF(5)"]
    for text in shellable:
        res = find_shelling(independence_complex(ctx.graph(text)))
        _need(res.status == SHELLING_FOUND, "%s: no shelling found (%s)" % (text, res.status))
    details.append("shellings found for %d rings" % len(shellable))
    wrong = [text for text in CATALOG
             if classify_gorenstein(text).answer != (text in GORENSTEIN_MEMBERS)]
    _need(not wrong, "Gorenstein verdict wrong on %s" % wrong)
    details.append("Gorenstein exactly on the Z_2^k catalog members")
    return "; ".join(details)


def check_unit_count_formula(ctx):
    details = []
    for n, q in ((2, 2), (2, 3), (3, 2)):
        ring = ctx.ring("M(%d,GF(%d))" % (n, q))
        want = gl_order(n, q)
        got = len(ring.units())
        _need(got == want, "|U(M_%d(F_%d))| = %d, expected %d" % (n, q, got, want))
        details.append("(%d,%d): %d" % (n, q, want))
    return "unit counts " + ", ".join(details)


SMALL_CHECKS = [
    ("lem-ess-alpha", "independence number formula for M_2(F_2), M_2(F_3)",
     check_alpha_formula),
    ("prop-m2f-wellcovered", "full enumeration: M_n(F_q) well-covered for n <= 2",
     check_well_covered_small_n),
    ("thm-mnf-refute-3-2", "greedy maximal set over the diagonal family in M_3(F_2) "
     "is short and zero-patterned", check_not_well_covered_n3),
    ("lem-dk-family", "reduced-diagonal family is independent with the stated size",
     check_family_independent),
    ("lem-comrows-3-2", "row mixes with family members stay singular",
     check_row_mixing),
    ("prop-rj-z4", "maximal sets of Gamma(Z_4) are the J-saturated lifts from Z_4/J",
     lambda ctx: check_radical_correspondence(ctx, "Z(4)")),
    ("prop-rj-z8", "maximal sets of Gamma(Z_8) are the J-saturated lifts from Z_8/J",
     lambda ctx: check_radical_correspondence(ctx, "Z(8)")),
    ("prop-rj-z12", "maximal sets of Gamma(Z_12) are the J-saturated lifts from Z_12/J",
     lambda ctx: check_radical_correspondence(ctx, "Z(12)")),
    ("prop-rj-t2f2", "maximal sets of Gamma(T_2(F_2)) are the J-saturated lifts "
     "from its semisimple quotient",
     lambda ctx: check_radical_correspondence(ctx, "T(2,GF(2))")),
    ("lem-ab-avoidance", "avoidance partner: B singular, A - B invertible",
     check_avoidance_partner),
    ("prop-prod-refute", "product witness refutes well-coveredness of Z_2 x M_2(F_2)",
     check_product_refutation),
    ("conj-product-identity", "Cayley graph of a product is the conjunction product",
     check_conjunction_identity),
    ("thm-classify-vs-enum", "theorem classification agrees with exhaustive "
     "enumeration on the catalog", check_classification_vs_enumeration),
    ("thm-cayleycm-obstructions", "codimension-1 obstructions, shellings, and "
     "Gorenstein membership", check_cm_obstructions),
    ("prop-prod-unit-count", "unit count formula for M_n(F_q)",
     check_unit_count_formula),
]

MEDIUM_CHECKS = [
    ("lem-dk-family-medium", "reduced-diagonal family independence at (4,3) and (5,2)",
     lambda ctx: check_family_independent(ctx, pairs=((4, 3), (5, 2)))),
    ("lem-ab-avoidance-medium", "avoidance partner on every nonzero M_2(F_2) and "
     "M_2(F_3) matrix and 2000 random M_3(F_3) matrices",
     lambda ctx: check_avoidance_partner(ctx, random_count=2000)),
]


def run_checks(scale="small", seed=0):
    """Run the verification suite; returns a JSON-ready report."""
    if scale not in ("small", "medium"):
        raise ValueError("scale must be 'small' or 'medium'")
    checks = list(SMALL_CHECKS)
    if scale == "medium":
        checks += MEDIUM_CHECKS
    ctx = _Ctx(seed=seed)
    results = []
    for check_id, description, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = True, fn(ctx)
        except CheckFailure as exc:
            ok, detail = False, str(exc)
        results.append({
            "id": check_id, "description": description,
            "status": "pass" if ok else "fail", "detail": detail,
            "elapsed_s": round(time.perf_counter() - start, 6),
        })
    return {
        "scale": scale,
        "seed": seed,
        "passed": all(r["status"] == "pass" for r in results),
        "checks": results,
    }
