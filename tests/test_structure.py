import time

import pytest
from hypothesis import given, settings

from conftest import RING_SPECS
from ucayley.rings import jacobson_radical, make_ring, parse_spec
from ucayley.structure import (classify_cm, classify_gorenstein,
                               classify_well_covered, radical_is_zero,
                               ring_metadata, semisimple_quotient)
from ucayley.verify import CATALOG


class TestSemisimpleQuotient:
    @pytest.mark.parametrize("text,factors", [
        ("Z(12)", ((1, 2), (1, 3))),
        ("T(3,GF(2))", ((1, 2), (1, 2), (1, 2))),
        ("M(2,Z(4))", ((2, 2),)),
        ("GF(9)", ((1, 9),)),
        ("Z(1)", ()),
        ("prod(Z(6),M(2,GF(3)))", ((1, 2), (1, 3), (2, 3))),
    ])
    def test_factors(self, text, factors):
        assert semisimple_quotient(parse_spec(text)) == factors

    def test_product_is_multiset_union(self):
        parts = ["Z(12)", "M(2,GF(2))", "T(2,GF(3))"]
        combined = semisimple_quotient(parse_spec("prod(%s)" % ",".join(parts)))
        union = []
        for p in parts:
            union.extend(semisimple_quotient(parse_spec(p)))
        assert combined == tuple(sorted(union))


@pytest.mark.parametrize("text", CATALOG + ["T(1,GF(4))", "M(2,Z(6))",
                                              "prod(Z(9),M(2,GF(2)))"])
def test_radical_is_zero_matches_the_radical(text):
    # J = 0 iff |R| = |R/J|; the radical itself is computed from the ring
    assert radical_is_zero(parse_spec(text)) == (len(jacobson_radical(make_ring(text))) == 1)


def test_classification_does_not_compute_the_ring_order():
    # |M_3000(F_3)| = 3^9000000: the verdicts are read off the spec at once,
    # while computing |R| to compare it with |R/J| takes seconds
    start = time.monotonic()
    for fn in (classify_well_covered, classify_cm, classify_gorenstein):
        assert fn("M(3000,GF(3))").answer is False
    assert time.monotonic() - start < 1.0


class TestWellCovered:
    @pytest.mark.parametrize("text,answer", [
        ("M(2,GF(5))", True),
        ("M(3,GF(2))", False),
        ("prod(Z(2),Z(3))", False),
        ("prod(Z(3),Z(3))", True),
        ("T(3,GF(2))", True),
        ("T(3,GF(3))", False),
        ("M(2,Z(4))", True),
        ("M(2,Z(6))", False),
        ("Z(16)", True),
        ("Z(12)", False),
    ])
    def test_verdicts(self, text, answer):
        assert classify_well_covered(text).answer is answer

    def test_clause_m2f(self):
        v = classify_well_covered("M(2,GF(5))")
        assert "M_2" in v.clause

    def test_refutation_hint_present(self):
        v = classify_well_covered("M(3,GF(2))")
        assert not v.answer and v.witness_hint

    def test_fxf_requires_equal_orders(self):
        assert classify_well_covered("prod(GF(4),GF(4))").answer
        assert not classify_well_covered("prod(GF(4),GF(2))").answer


class TestCmAndGorenstein:
    @pytest.mark.parametrize("text,answer", [
        ("GF(7)", True),
        ("prod(Z(2),Z(2))", True),
        ("Z(4)", False),
        ("M(2,GF(2))", False),
        ("T(3,GF(2))", False),  # J nonzero even though well-covered
    ])
    def test_cm(self, text, answer):
        assert classify_cm(text).answer is answer

    @pytest.mark.parametrize("text,answer", [
        ("prod(Z(2),Z(2),Z(2))", True),
        ("GF(3)", False),
        ("Z(2)", True),
        ("GF(4)", False),  # order 4 but not Z_2 x Z_2
        ("Z(4)", False),
    ])
    def test_gorenstein(self, text, answer):
        assert classify_gorenstein(text).answer is answer

    def test_implication_chain(self):
        catalog = ["Z(%d)" % m for m in range(1, 17)] + [
            "GF(4)", "GF(9)", "M(2,GF(2))", "M(3,GF(2))", "T(2,GF(2))",
            "T(3,GF(2))", "prod(Z(2),Z(2))", "prod(Z(2),Z(3))", "M(2,Z(4))"]
        for text in catalog:
            wc = classify_well_covered(text).answer
            cm = classify_cm(text).answer
            go = classify_gorenstein(text).answer
            assert not cm or wc, text
            assert not go or cm, text


def _assert_metadata_matches_scan(ring):
    meta = ring_metadata(ring)
    assert meta["unit_count"] == len(ring.units())
    assert meta["radical_size"] == len(jacobson_radical(ring))


class TestRingMetadata:
    @pytest.mark.parametrize("text", CATALOG)
    def test_closed_form_matches_scan_on_catalog(self, text):
        _assert_metadata_matches_scan(make_ring(text))

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_closed_form_matches_scan_on_random_specs(self, spec):
        _assert_metadata_matches_scan(make_ring(spec))
