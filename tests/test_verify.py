"""The checks of `verify` report a failure when a function under them
answers wrongly: each is run as `run_checks` runs it, with the matrix checks'
`MatRing` edge test, which answers both its unit and adjacency tests,
answering one fixed value, or with one other function patched to drop or flip
part of its answer."""

import collections
import dataclasses

from ucayley import verify
from ucayley.rings import MatRing, Ring


def _report(monkeypatch, check_id, ctx, unit=None):
    """run_checks' result for the one small check `check_id`, run on ctx, with
    `MatRing._adjacent` (whether a - b is a unit, so a ~ 0 is the unit test)
    answering `unit` unless it is None."""
    (description, fn), = [(d, f) for cid, d, f in verify.SMALL_CHECKS if cid == check_id]
    monkeypatch.setattr(verify, "SMALL_CHECKS", [(check_id, description, lambda _: fn(ctx))])
    if unit is not None:
        monkeypatch.setattr(MatRing, "_adjacent", lambda self, a, b: unit)
    report = verify.run_checks()
    assert not report["passed"]
    (result,) = report["checks"]
    assert result["status"] == "fail"
    return result["detail"]


def test_family_check_fails_when_every_difference_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-dk-family", verify._Ctx(), True)
    assert detail == "family not independent for (n=2,q=2)"


def test_row_mixing_fails_when_every_mix_is_a_unit(monkeypatch):
    ctx = verify._Ctx()
    ctx.greedy_over_family(3, 2)  # the graph and its maximal set, with the true units
    detail = _report(monkeypatch, "lem-comrows-3-2", ctx, True)
    # A and D named as matrices: the zero matrix is first in both
    assert detail == ("row mix of 0,0,0;0,0,0;0,0,0 with 0,0,0;0,0,0;0,0,0 "
                      "over rows (0,) is invertible")


def test_avoidance_fails_when_no_matrix_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-ab-avoidance", verify._Ctx(), False)
    assert detail == "A - B is singular for A=0,0;0,1, B=1,0;0,0 in M_2(F_2)"


def test_avoidance_fails_when_every_matrix_is_a_unit(monkeypatch):
    detail = _report(monkeypatch, "lem-ab-avoidance", verify._Ctx(), True)
    assert detail == "B is a unit for A=0,0;0,1, B=1,0;0,0 in M_2(F_2)"


def test_matrix_lemmas_pass_indices_not_entries(monkeypatch):
    # the avoidance and row-mix checks hand matrix indices to the constructions:
    # no matrix is decoded, and only the family is encoded, once per member
    ctx = verify._Ctx()
    for n, q in ((2, 2), (2, 3), (3, 3)):
        ctx.matrices(n, q)
    ring = ctx.ring("M(3,GF(2))")
    calls = collections.Counter()
    for name in ("decode_entries", "encode_entries"):
        def counted(self, x, name=name, method=getattr(MatRing, name)):
            calls[name] += 1
            return method(self, x)
        monkeypatch.setattr(MatRing, name, counted)
    verify.check_avoidance_partner(ctx, random_count=2000)
    assert calls == {}
    verify.check_row_mixing(ctx)
    assert calls == {"encode_entries": len(verify.cons.d_family(3, ring.base))}


def test_radical_check_fails_when_the_radical_drops_an_element(monkeypatch):
    radical = verify.jacobson_radical
    monkeypatch.setattr(verify, "jacobson_radical", lambda ring: radical(ring)[:-1])
    detail = _report(monkeypatch, "prop-rj-z4", verify._Ctx())
    assert detail == "Z(4): structured and brute-force radicals disagree"


def test_unit_count_fails_when_a_unit_is_missed(monkeypatch):
    units = Ring.units
    monkeypatch.setattr(Ring, "units", lambda self: units(self)[1:])
    detail = _report(monkeypatch, "prop-prod-unit-count", verify._Ctx())
    assert detail == "|U(M_2(F_2))| = 5, expected 6"


def test_conjunction_check_fails_when_an_edge_is_dropped(monkeypatch):
    product = verify.conjunction_product

    def without_an_edge(g1, g2):
        g = product(g1, g2)
        v = g.adj[0].bit_length() - 1  # the last neighbour of vertex 0
        g.adj[0] ^= 1 << v
        g.adj[v] ^= 1
        return g
    monkeypatch.setattr(verify, "conjunction_product", without_an_edge)
    detail = _report(monkeypatch, "conj-product-identity", verify._Ctx())
    assert detail == "conjunction product mismatch for Z(2) x Z(3)"


def test_classification_check_fails_when_an_answer_is_flipped(monkeypatch):
    classify = verify.classify_well_covered
    monkeypatch.setattr(verify, "classify_well_covered", lambda text: dataclasses.replace(
        classify(text), answer=not classify(text).answer))
    detail = _report(monkeypatch, "thm-classify-vs-enum", verify._Ctx())
    assert detail == "Z(1): theorem says False, enumeration says yes"


def test_medium_run_builds_each_matrix_ring_once(monkeypatch):
    # one M_n(F_q) per (n, q) per run: by make_ring within its cap, and
    # directly past it, for M_4(F_3) and M_5(F_2)
    built = collections.Counter()
    init = MatRing.__init__

    def counted(self, n, base):
        init(self, n, base)
        built[str(self.spec)] += 1
    monkeypatch.setattr(MatRing, "__init__", counted)
    assert verify.run_checks("medium")["passed"]
    for text in ("M(2,GF(3))", "M(3,GF(3))", "M(3,GF(2))", "M(4,GF(2))", "M(4,GF(3))",
                 "M(5,GF(2))"):
        assert built[text] == 1, text
    # M(2,GF(2)) alone and as a factor of prod(Z(2),M(2,GF(2))), which the
    # product witness reuses
    assert built["M(2,GF(2))"] <= 2
