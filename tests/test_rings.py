import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucayley import rings
from ucayley.graphs import build_graph
from ucayley.indsets import independence_number, is_well_covered
from ucayley.rings import (GF, M, GFRing, MatRing, Prod, ProdRing, SpecConstraintError,
                           SpecSyntaxError, T, TriRing, Z, ZmRing, det_entries, factorize,
                           digit_map, is_commutative_spec, jacobson_radical,
                           jacobson_radical_bruteforce, join_digits, make_ring,
                           parse_spec, radical_quotient, residue_fields,
                           RingError, CapExceededError, DEFAULT_RING_CAP,
                           SCREEN_RUN, _build, _leaves, _order_log2_64ths,
                           smallest_irreducible, spec_order, split_digits)
from ucayley.structure import (classify_cm, classify_gorenstein, classify_well_covered,
                               ring_metadata, semisimple_quotient)
from conftest import (RING_SPECS, PositionDictTriRing, _twin_quotient, digit_loop, gf_mul,
                      leibniz_det, projection_loop, recursive_leaf_sum, recursive_spec_order,
                      reduce_residue_fields, reduce_row_map, structural_add,
                      structural_neg, trial_factorize)


def _prime_from(x):
    """The least prime >= x >= 2."""
    while trial_factorize(x) != {x: 1}:
        x += 1
    return x


def _deep_and_flat(inner, depth):
    """`inner` inside prod(..., Z(1)) layers, `depth` deep in all, and the flat
    prod of inner and as many Z(1)s: Z(1) adds a digit of radix 1, so both
    specs give one ring with the same indices."""
    deep = inner
    while deep.depth < depth:
        deep = Prod((deep, Z(1)))
    return deep, Prod((inner,) + (Z(1),) * (depth - inner.depth))


def _factors_or_error(factor, m):
    try:
        return list(factor(m).items())
    except SpecConstraintError as exc:
        return str(exc)


# a factor just past 2^20, where trial division stops
_PAST_LIMIT = _prime_from(2 ** 20 + 1)


class TestFactorize:
    def test_smooth_numbers(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(2 ** 100) == {2: 100}

    def test_prime_below_2_40(self):
        assert factorize(1099511627689) == {1099511627689: 1}

    @pytest.mark.parametrize("m,left", [(2 ** 61 - 1, 2 ** 61 - 1), (6 * (2 ** 61 - 1), 2 ** 61 - 1),
                                        (10 ** 18 + 3, 10 ** 18 + 3),
                                        (8 * (2 ** 127 - 1), 2 ** 127 - 1)])
    def test_large_cofactor_is_refused(self, m, left):
        # the cofactor left after the small primes is named, not guessed prime
        start = time.monotonic()
        with pytest.raises(SpecConstraintError, match="cannot factor %d:" % left):
            factorize(m)
        assert time.monotonic() - start < 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(56, 400),
           st.lists(st.tuples(st.integers(3, 40_000), st.integers(-4, 4), st.integers(1, 2)),
                    max_size=3),
           st.one_of(st.just(1), st.integers(2 ** 20 - 300, 2 ** 20 + 300)))
    def test_screened_runs_match_trial_division(self, bits, picks, top):
        # from 2^64 on, runs of SCREEN_RUN odd candidates start at 3 + 2 * SCREEN_RUN * k:
        # each small factor is a prime near the start of the run below x, and
        # the largest is 1 or a prime near 2^20
        m = _prime_from(top) if top > 1 else 1
        for x, offset, e in picks:
            start = 3 + (x - 3) // (2 * SCREEN_RUN) * 2 * SCREEN_RUN
            m *= _prime_from(max(3, start + offset)) ** e
        m <<= max(0, bits - m.bit_length())  # factors of 2 bring m to `bits` bits
        assert _factors_or_error(factorize, m) == _factors_or_error(trial_factorize, m)

    @pytest.mark.parametrize("m", [
        2 ** 200 * 1048571 * 1048573,  # the two largest primes below 2^20
        2 ** 130 * 1048573 ** 2,
        3 ** 100 * _PAST_LIMIT,  # a prime cofactor below (2^20 + 1)^2
        7 ** 60 * _PAST_LIMIT ** 2,  # refused
        2 ** 150 * (2 ** 61 - 1),  # refused
        2 ** 130 * 1099513724941,  # the least prime past (2^20 + 1)^2: refused, not called prime
    ], ids=lambda m: "%d-bits" % m.bit_length())
    def test_screened_edge_cases_match_trial_division(self, m):
        assert _factors_or_error(factorize, m) == _factors_or_error(trial_factorize, m)


class TestParser:
    def test_matrix_spec(self):
        assert parse_spec("M(2,GF(2))") == M(2, GF(2))

    def test_product_spec(self):
        assert parse_spec("prod(Z(2),Z(3))") == Prod((Z(2), Z(3)))

    def test_whitespace_insensitive(self):
        assert parse_spec(" T( 2 , GF(4) ) ") == T(2, GF(4))

    def test_nested(self):
        assert parse_spec("M(2,prod(Z(2),GF(9)))") == M(2, Prod((Z(2), GF(9))))

    def test_gf_not_prime_power(self):
        with pytest.raises(SpecConstraintError, match="prime power"):
            parse_spec("GF(6)")

    def test_t_needs_field_base(self):
        with pytest.raises(SpecConstraintError, match="field base"):
            parse_spec("T(2,Z(6))")

    def test_m_needs_commutative_base(self):
        with pytest.raises(SpecConstraintError, match="commutative"):
            parse_spec("M(2,M(2,GF(2)))")

    def test_syntax_error_has_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("Z(2")
        assert "position" in str(exc.value)

    def test_trailing_input(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("Z(2))")

    def test_non_decimal_digit(self):
        # '²' is a digit to str.isdigit but not a decimal int() can read; '٣' is a
        # decimal int() reads as 3, but spec numbers are ASCII
        for text in ("Z(²)", "Z(٣)"):
            with pytest.raises(SpecSyntaxError, match="unexpected character"):
                parse_spec(text)

    def test_unknown_constructor(self):
        with pytest.raises(SpecSyntaxError, match="unknown"):
            parse_spec("Q(5)")

    @given(RING_SPECS)
    def test_str_round_trip(self, spec):
        assert parse_spec(str(spec)) == spec


def _refusal(make):
    with pytest.raises(SpecConstraintError) as exc:
        make()
    return str(exc.value)


class TestSpecsCheckThemselves:
    """A spec object, or a ring, made from Python is refused by the rule the
    parser reports for the same text."""

    @pytest.mark.parametrize("make,text", [
        (lambda: Z(0), "Z(0)"),
        (lambda: GF(6), "GF(6)"),
        (lambda: M(0, GF(2)), "M(0,GF(2))"),
        (lambda: M(2, M(2, GF(2))), "M(2,M(2,GF(2)))"),
        (lambda: T(0, GF(2)), "T(0,GF(2))"),
        (lambda: T(2, Z(6)), "T(2,Z(6))"),
        (lambda: GFRing(6), "GF(6)"),
        (lambda: TriRing(2, make_ring("Z(6)")), "T(2,Z(6))"),
        (lambda: MatRing(2, make_ring("M(2,GF(2))")), "M(2,M(2,GF(2)))"),
    ], ids=["Z", "GF", "M-size", "M-base", "T-size", "T-base", "GFRing", "TriRing", "MatRing"])
    def test_same_message_as_the_parser(self, make, text):
        assert _refusal(make) == _refusal(lambda: parse_spec(text))

    @pytest.mark.parametrize("make,message", [
        (lambda: M(2, "x"), "M requires a commutative base, got x"),
        (lambda: T(2, "x"), "T requires a field base (GF(q) or Z(p), p prime), got x"),
        (lambda: Prod(()), "prod() requires at least one factor"),
        (lambda: Prod((3,)), "not a ring spec: 3"),
        (lambda: Prod((Z(2), "Z(3)")), "not a ring spec: 'Z(3)'"),
        (lambda: make_ring(3), "not a ring spec: 3"),
        (lambda: semisimple_quotient("Z(4)"), "not a ring spec: 'Z(4)'"),
    ], ids=["M-base", "T-base", "prod-empty", "prod-int", "prod-str", "make_ring",
            "semisimple_quotient"])
    def test_non_specs_are_refused(self, make, message):
        assert _refusal(make) == message

    @pytest.mark.parametrize("call,most", [
        (lambda: make_ring("M(2,GF(9))"), 2),
        (lambda: make_ring("prod(Z(2),M(2,GF(3)))"), 3),
        (lambda: make_ring("T(3,GF(3))"), 2),
        (lambda: make_ring("M(2,Z(12))"), 1),
        (lambda: classify_cm("GF(549755813881)"), 1),
        (lambda: classify_cm("Z(12)"), 1),
    ], ids=["M(2,GF(9))", "prod(Z(2),M(2,GF(3)))", "T(3,GF(3))", "M(2,Z(12))",
            "classify_cm", "classify_cm-Z(12)"])
    def test_rules_are_checked_once(self, monkeypatch, call, most):
        # each rule is checked when its spec is made, and each spec keeps the
        # factorization it found: a GF(q) is factored by the parser and once
        # more by its GFRing, a Z(m) on the first use of its primes
        calls = []

        def counted(m):
            calls.append(m)
            return factorize(m)
        monkeypatch.setattr(rings, "factorize", counted)
        call()
        assert len(calls) <= most


class TestMakeRing:
    @pytest.mark.parametrize("text,order,units", [
        ("Z(6)", 6, 2),
        ("M(2,GF(2))", 16, 6),
        ("GF(4)", 4, 3),
        ("T(2,GF(2))", 8, 2),
        ("prod(Z(2),Z(3))", 6, 2),
        ("Z(1)", 1, 1),
    ])
    def test_order_and_unit_count(self, text, order, units):
        r = make_ring(text)
        assert r.order == order
        assert len(r.units()) == units

    def test_cardinality_cap(self):
        with pytest.raises(CapExceededError):
            make_ring("M(3,GF(3))", cap=2 ** 10)

    def test_cap_error_on_an_order_too_long_to_print(self):
        # 2^14400 has 4335 digits, past the int-to-str limit of 4300
        with pytest.raises(CapExceededError, match=r"\|R\| >= 2\^14400 exceeds"):
            make_ring("M(120,GF(2))")

    @pytest.mark.parametrize("n,bits", [(3000, 14_203_125), (10000, 157_812_500)])
    def test_cap_error_takes_no_big_power(self, n, bits):
        # |R| = 3^(n^2) >= 2^(n^2 floor(64 log2 3) / 64), with floor(64 log2 3) = 101:
        # the check compares these bounds instead of computing |R|
        start = time.monotonic()
        with pytest.raises(CapExceededError, match=r"\|R\| >= 2\^%d exceeds" % bits):
            make_ring("M(%d,GF(3))" % n)
        assert time.monotonic() - start < 0.5

    def test_cap_check_near_the_cap(self):
        # 2^81 is over a cap one below it and within a cap equal to it
        with pytest.raises(CapExceededError, match=r"\|R\| >= 2\^81 exceeds"):
            make_ring("M(9,GF(2))", cap=2 ** 81 - 1)
        assert make_ring("M(9,GF(2))", cap=2 ** 81).order == 2 ** 81
        with pytest.raises(CapExceededError, match=r"\|R\| = 81 exceeds"):
            make_ring("prod(Z(3),M(2,Z(1)),T(2,GF(3)))", cap=80)
        # the zero ring M(3,Z(1)) has one element and 9 digits
        with pytest.raises(CapExceededError, match="more digits than the cardinality cap 8"):
            make_ring("M(3,Z(1))", cap=8)
        assert make_ring("M(3,Z(1))", cap=9).radices == (1,) * 9

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS, st.integers(1, 400))
    def test_cap_check_matches_the_order(self, spec, cap):
        order = spec_order(spec)
        low = _order_log2_64ths(spec)  # short by under 1 per leaf, and a leaf adds >= 64
        assert 2 ** low <= order ** 64 < 2 ** (low + low // 64 + 1)
        digits = len(make_ring(spec).radices)  # more than log2 |R| only with Z(1) entries
        if order > cap:
            with pytest.raises(CapExceededError, match=r"\|R\| = %d exceeds" % order):
                make_ring(spec, cap=cap)
        elif digits > cap:
            with pytest.raises(CapExceededError, match="more digits than the cardinality cap"):
                make_ring(spec, cap=cap)
        else:
            assert make_ring(spec, cap=cap).order == order

    @settings(max_examples=200, deadline=None)
    @given(RING_SPECS)
    def test_leaf_walk_matches_recursion(self, spec):
        assert spec_order(spec) == recursive_spec_order(spec)
        assert _order_log2_64ths(spec) == recursive_leaf_sum(
            spec, lambda leaf: (recursive_spec_order(leaf) ** 64).bit_length() - 1)
        digits = recursive_leaf_sum(spec, lambda leaf: 1 if isinstance(leaf, Z)
                                    else sum(trial_factorize(leaf.q).values()))
        assert digits == len(make_ring(spec).radices)

    def test_leaf_walk_on_nested_specs(self):
        spec = parse_spec("prod(Z(2),T(3,GF(4)),M(2,prod(Z(4),GF(9))),prod(T(2,Z(5)),M(3,Z(1))))")
        assert sorted(map(str, _leaves(spec))) == sorted(map(str, [
            (Z(2), 1), (GF(4), 6), (Z(4), 4), (GF(9), 4), (Z(5), 3), (Z(1), 9)]))
        assert spec_order(spec) == recursive_spec_order(spec)
        deep = Prod((T(2, GF(3)), M(2, Z(6))))
        for _ in range(61):  # to the 64 levels a spec may nest
            deep = Prod((deep, Z(2)))
        assert deep.depth == 64
        assert spec_order(deep) == recursive_spec_order(deep) == 27 * 6 ** 4 * 2 ** 61
        assert str(deep) == repr(deep) == "prod(" * 62 + "T(2,GF(3)),M(2,Z(6)))" + ",Z(2))" * 61

    def test_specs_nest_at_most_64_deep(self):
        # the parser's limit holds for specs made in Python too: the constructor
        # that would reach 65 levels refuses the spec
        specs = (Z(2), GF(4), T(2, GF(4)), M(2, Prod((Z(2), Z(3)))))
        assert [spec.depth for spec in specs] == [1, 1, 2, 3]
        nest = Z(2)
        for _ in range(62):
            nest = Prod((nest,))
        assert nest.depth == 63 and M(2, nest).depth == 64
        deep = Prod((Z(3), nest))
        assert deep.depth == 64 and parse_spec(str(deep)) == deep
        for make in (lambda: Prod((deep,)), lambda: Prod((Z(2), deep, GF(2))),
                     lambda: M(2, deep), lambda: Prod((M(2, nest),))):
            with pytest.raises(SpecConstraintError, match=r"^specs nest at most 64 deep$"):
                make()

    @pytest.mark.parametrize("deep,flat", [_deep_and_flat(Prod((GF(4), Z(12))), 64),
                                           _deep_and_flat(Prod((GF(3), Z(6))), 64),
                                           tuple(M(2, s) for s in _deep_and_flat(Z(4), 63))],
                             ids=["prod-J-nonzero", "prod-J-zero", "M-over-prod"])
    def test_every_question_answers_at_64_levels(self, deep, flat):
        # the 64-deep spec against the flat one with the same digits, so the same
        # ring indices, graph and answers
        text = str(deep)
        assert deep.depth == 64 and repr(deep) == text
        assert parse_spec(text) == deep != flat and hash(parse_spec(text)) == hash(deep)
        assert spec_order(deep) == recursive_spec_order(deep) == spec_order(flat)
        ring, flat_ring = make_ring(deep), make_ring(flat)
        assert str(ring) == text and ring.radices == flat_ring.radices
        units = ring.units()
        assert units == flat_ring.units()
        x = units[-1]
        assert ring.mul(x, x) == flat_ring.mul(x, x)
        # a product's elements print as nested tuples, in the flat one's order
        assert (ring.element_repr(x).replace("(", "").replace(")", "")
                == flat_ring.element_repr(x).replace("(", "").replace(")", ""))
        g, flat_g = build_graph(ring), build_graph(flat_ring)
        assert g.adj == flat_g.adj
        assert independence_number(g) == independence_number(flat_g)
        assert is_well_covered(g).to_json() == is_well_covered(flat_g).to_json()
        (quot, proj), (flat_quot, flat_proj) = radical_quotient(ring), radical_quotient(flat_ring)
        assert proj == flat_proj and quot.radices == flat_quot.radices
        base, flat_base = (ring.base, flat_ring.base) if isinstance(deep, M) else (ring, flat_ring)
        assert ([(f.order, moduli) for f, moduli in residue_fields(base)]
                == [(f.order, moduli) for f, moduli in residue_fields(flat_base)])
        assert semisimple_quotient(deep) == semisimple_quotient(flat)
        meta = ring_metadata(ring)
        assert meta == dict(ring_metadata(flat_ring), spec=text)
        assert meta["unit_count"] == len(units)
        for classify in (classify_well_covered, classify_cm, classify_gorenstein):
            assert classify(deep) == classify(flat)

    def test_zero_and_one(self):
        for text in ("Z(6)", "GF(9)", "M(2,GF(2))", "T(2,GF(3))", "prod(Z(4),GF(2))"):
            r = make_ring(text)
            assert r.add(0, 5 % r.order) == 5 % r.order
            x = r.order - 1
            assert r.mul(r.one, x) == x
            assert r.mul(x, r.one) == x

    def test_gf_modulus_is_deterministic(self):
        # smallest monic irreducible: x^2+x+1, x^3+x+1, x^2+1
        assert smallest_irreducible(2, 2) == [1, 1, 1]
        assert smallest_irreducible(2, 3) == [1, 1, 0, 1]
        assert smallest_irreducible(3, 2) == [1, 0, 1]


class TestArith:
    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_gf_mul_matches_coefficient_lists(self, q):
        f = make_ring("GF(%d)" % q)
        for a in range(q):
            for b in range(q):
                assert f.mul(a, b) == gf_mul(f, a, b)
        for bad in (q, -1, 1.0, None):
            with pytest.raises(RingError):
                f.mul(bad, 1)
            with pytest.raises(RingError):
                f.mul(1, bad)

    def test_z6_sub(self):
        r = make_ring("Z(6)")
        assert r.sub(1, 5) == 2

    def test_gf2_char2(self):
        r = make_ring("GF(2)")
        assert r.add(1, 1) == 0

    def test_matrix_identity_law(self):
        r = make_ring("M(2,GF(2))")
        for x in range(r.order):
            assert r.mul(r.one, x) == x

    def test_index_out_of_range(self):
        r = make_ring("Z(6)")
        with pytest.raises(RingError):
            r.add(0, 6)

    @pytest.mark.parametrize("text", ["Z(6)", "M(2,GF(3))", "M(2,GF(4))"])
    @pytest.mark.parametrize("a,b", [(0, "order"), (-1, 0), (1.0, 0), ("1", 0), (0, None)])
    def test_sub_index_checked(self, text, a, b):
        # add and sub, before and after their first call builds the layout
        # (on M(2,GF(4)), whose every radix is 2, a ^ b)
        r = make_ring(text)
        b = r.order if b == "order" else b
        for _ in range(2):
            with pytest.raises(RingError):
                r.sub(a, b)
            with pytest.raises(RingError):
                r.add(a, b)
            with pytest.raises(RingError):
                r.adjacent(a, b)
            r.add(1, 1)
            r.adjacent(1, 0)

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS, st.randoms(use_true_random=False))
    def test_sub_is_add_neg(self, spec, rng):
        r = make_ring(spec)
        for _ in range(10):
            a, b = rng.randrange(r.order), rng.randrange(r.order)
            assert r.sub(a, b) == r.add(a, r.neg(b))

    @pytest.mark.parametrize("text", ["Z(12)", "GF(8)", "T(2,GF(3))",
                                      "M(2,Z(4))", "prod(Z(2),GF(4))"])
    def test_ring_axioms_sampled(self, text):
        r = make_ring(text)
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (rng.randrange(r.order) for _ in range(3))
            assert r.add(a, b) == r.add(b, a)
            assert r.add(r.add(a, b), c) == r.add(a, r.add(b, c))
            assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
            assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
            assert r.mul(r.add(b, c), a) == r.add(r.mul(b, a), r.mul(c, a))
            assert r.add(a, r.neg(a)) == 0


class TestDigits:
    @pytest.mark.parametrize("text,radices", [
        ("Z(1)", (1,)),
        ("Z(12)", (12,)),
        ("GF(8)", (2, 2, 2)),
        ("M(2,Z(4))", (4,) * 4),
        ("T(3,GF(2))", (2,) * 6),
        ("prod(Z(2),M(2,GF(2)))", (2,) * 5),
        ("M(2,prod(Z(2),GF(4)))", (2, 2, 2) * 4),
    ])
    def test_radices(self, text, radices):
        r = make_ring(text)
        assert r.radices == radices
        assert r.strides[-1] == 1 and r.strides[0] * radices[0] == r.order

    def test_split_join_round_trip(self):
        radices = (3, 1, 4, 2)
        for a in range(24):
            assert join_digits(split_digits(a, radices), radices) == a
        assert split_digits(23, radices) == (2, 0, 3, 1)

    @pytest.mark.parametrize("digits", [(0, 3), (-1, 0), (0, 1.0)])
    def test_join_rejects_bad_digits(self, digits):
        with pytest.raises(RingError):
            join_digits(digits, (2, 3))

    @pytest.mark.parametrize("text,entries", [
        ("prod(Z(2),Z(3))", (1,)),
        ("prod(Z(2),Z(3))", (1, 2, 0)),
        ("M(2,GF(3))", (1, 2, 0)),  # M(n, A), n >= 2: the row codec's fallback
        ("M(2,GF(3))", (1, 2, 0, 0, 5)),
        ("M(2,GF(3))", ()),
        ("M(1,GF(5))", (1, 2)),  # M(1, A) has no row codec
        ("T(2,GF(3))", (1, 2)),
        ("T(2,GF(3))", (1, 2, 0, 1)),
    ])
    def test_encode_rejects_a_wrong_number_of_entries(self, text, entries):
        with pytest.raises(RingError, match="digits for"):
            make_ring(text).encode_entries(entries)

    @pytest.mark.parametrize("text", ["Z(12)", "M(2,GF(3))", "T(2,GF(3))"])
    def test_join_rejects_a_wrong_number_of_digits(self, text):
        radices = make_ring(text).radices
        for digits in ((0,) * (len(radices) - 1), (0,) * (len(radices) + 1)):
            with pytest.raises(RingError, match="digits for"):
                join_digits(digits, radices)

    def test_encode_keeps_range_checks(self):
        with pytest.raises(RingError):
            make_ring("M(2,GF(2))").encode_entries((0, 0, 0, 2))
        with pytest.raises(RingError):
            make_ring("prod(Z(2),Z(3))").encode_entries((1, 3))

    @pytest.mark.parametrize("text", ["Z(12)", "GF(8)", "GF(9)", "GF(27)", "M(2,Z(4))",
                                      "M(2,GF(4))", "T(3,GF(2))", "T(2,GF(9))",
                                      "prod(Z(2),M(2,GF(2)))", "prod(Z(4),GF(9),Z(1))",
                                      "M(2,prod(Z(2),GF(4)))"])
    def test_add_neg_match_structural_oracle(self, text):
        r = make_ring(text)
        rng = random.Random(19)
        for _ in range(60):
            a, b = rng.randrange(r.order), rng.randrange(r.order)
            assert r.add(a, b) == structural_add(r, a, b)
            assert r.neg(a) == structural_neg(r, a)

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS, st.randoms(use_true_random=False))
    def test_random_specs_add_neg(self, spec, rng):
        r = make_ring(spec)
        for _ in range(10):
            a, b = rng.randrange(r.order), rng.randrange(r.order)
            assert r.add(a, b) == structural_add(r, a, b)
            assert r.neg(a) == structural_neg(r, a)
            assert r.add(a, r.neg(a)) == 0


class TestAddKernel:
    # rings on both paths of the kernel: a ^ b when every radix is 1 or 2, and
    # otherwise one step per digit; sizes are the radices that loop walks,
    # radix-1 digits left out, and () on the a ^ b path
    @pytest.mark.parametrize("text,sizes", [
        ("M(5,GF(2))", ()),
        ("M(3,GF(4))", ()),
        ("prod(Z(2),GF(8))", ()),
        ("prod(Z(1),Z(2))", ()),
        ("M(2,Z(1))", ()),
        ("prod(GF(4),Z(4),Z(1))", (2, 2, 4)),
        ("M(4,GF(3))", (3,) * 16),
        ("T(3,GF(5))", (5,) * 6),
        ("prod(Z(6),Z(10),Z(7))", (6, 10, 7)),
        ("prod(Z(101),Z(103))", (101, 103)),
        ("M(2,Z(97))", (97,) * 4),
    ])
    def test_paths_match_digit_loop(self, text, sizes):
        r = _build(parse_spec(text))  # M(5,GF(2)), M(4,GF(3)) and M(2,Z(97)) are over the cap
        rng = random.Random(23)
        pairs = [(0, 0), (0, r.order - 1), (r.order - 1, r.order - 1)]
        pairs += [(rng.randrange(r.order), rng.randrange(r.order)) for _ in range(300)]
        for a, b in pairs:
            assert r.add(a, b) == digit_loop(r, a, b, 1)
            assert r.sub(a, b) == digit_loop(r, a, b, -1)
            assert r.neg(b) == digit_loop(r, 0, b, -1)
        assert tuple(d for d, _ in r._digits) == sizes

    @settings(max_examples=150, deadline=None)
    @given(RING_SPECS, st.randoms(use_true_random=False))
    def test_random_specs_match_digit_loop(self, spec, rng):
        r = make_ring(spec)
        for _ in range(10):
            a, b = rng.randrange(r.order), rng.randrange(r.order)
            assert r.add(a, b) == digit_loop(r, a, b, 1)
            assert r.sub(a, b) == digit_loop(r, a, b, -1)
            assert r.neg(a) == digit_loop(r, 0, a, -1)


def _position_dict_ring(spec):
    """The ring of spec with each T(n, F) built as PositionDictTriRing."""
    if isinstance(spec, T):
        return PositionDictTriRing(spec.n, make_ring(spec.base))
    if isinstance(spec, Prod):
        return ProdRing([_position_dict_ring(f) for f in spec.factors])
    return make_ring(spec)


_TRI = st.one_of(st.builds(T, st.integers(1, 2), st.sampled_from((Z(2), Z(3), Z(5), GF(4),
                                                                   GF(8), GF(9)))),
                 st.builds(T, st.just(3), st.sampled_from((Z(2), Z(3)))))
# T(n, F) alone, or next to T, M and scalar factors in prod
_WITH_T = st.one_of(_TRI, st.lists(st.one_of(_TRI, st.sampled_from((Z(2), Z(4), GF(3),
                                                                     M(2, Z(2))))),
                                   min_size=2, max_size=3)
                    .filter(lambda fs: any(isinstance(f, T) for f in fs))
                    .map(lambda fs: Prod(tuple(fs)))).filter(lambda s: spec_order(s) <= 1500)


class TestUnits:
    def test_z6(self):
        assert make_ring("Z(6)").is_unit(5)

    def test_singular_matrix(self):
        r = make_ring("M(2,GF(2))")
        assert not r.is_unit(r.encode_entries((1, 1, 1, 1)))

    def test_product_componentwise(self):
        r = make_ring("prod(Z(2),Z(3))")
        assert r.is_unit(r.encode_entries((1, 2)))
        assert not r.is_unit(r.encode_entries((0, 2)))

    def test_triangular_diagonal(self):
        r = make_ring("T(2,GF(3))")
        for a in range(r.order):
            e = r.decode_entries(a)
            assert r.is_unit(a) == (e[0] != 0 and e[2] != 0)

    @settings(max_examples=40, deadline=None)
    @given(_WITH_T, st.randoms(use_true_random=False))
    def test_triangular_ring_matches_position_dict_oracle(self, spec, rng):
        # T alone and as a factor: layout, identity, units, labels and sampled products
        ring, oracle = make_ring(spec), _position_dict_ring(spec)
        assert (ring.radices, ring.radical_steps, ring.one) == \
            (oracle.radices, oracle.radical_steps, oracle.one)
        assert ring.units() == oracle.units()
        assert all(ring.element_repr(a) == oracle.element_repr(a) for a in range(ring.order))
        pairs = [(rng.randrange(ring.order), rng.randrange(ring.order)) for _ in range(200)]
        assert [ring.mul(a, b) for a, b in pairs] == [oracle.mul(a, b) for a, b in pairs]

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS.filter(lambda s: spec_order(s) <= 64))
    def test_units_are_the_invertible_elements(self, spec):
        # the oracle is multiplication alone: a is a unit iff ab = ba = 1 for some b
        ring = make_ring(spec)
        one, elements = ring.one, range(ring.order)
        assert ring.units() == [a for a in elements
                                if any(ring.mul(a, b) == one == ring.mul(b, a) for b in elements)]

    @pytest.mark.parametrize("text", ["Z(12)", "M(2,GF(3))", "T(2,GF(2))"])
    def test_unit_symmetries_sampled(self, text):
        r = make_ring(text)
        units = r.units()
        rng = random.Random(3)
        for _ in range(30):
            x = rng.randrange(r.order)
            u, v = rng.choice(units), rng.choice(units)
            assert r.is_unit(x) == r.is_unit(r.neg(x))
            assert r.is_unit(x) == r.is_unit(r.mul(u, r.mul(x, v)))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(text, n) for text in ["GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(9)",
                                                   "Z(4)", "Z(6)", "Z(12)", "prod(Z(2),GF(3))"]
                            for n in range(1, 5)
                            if make_ring(text).order ** (n * n) <= DEFAULT_RING_CAP]),
           st.randoms(use_true_random=False))
    def test_row_reduction_matches_cofactor_det(self, text_n, rng):
        # only rings make_ring admits: past its cap a table can take seconds to build
        text, n = text_n
        base = make_ring(text)
        ring = MatRing(n, base)
        for _ in range(10):
            entries = tuple(rng.randrange(base.order) for _ in range(n * n))
            rows = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            want = base.is_unit(det_entries(rows, base))
            assert ring.is_unit(ring.encode_entries(entries)) == want
        # M_1(A) asks A itself and builds no table
        assert ("_row_tables" in vars(ring)) == (n > 1)

    @pytest.mark.parametrize("text,n", [(text, n) for text in ["GF(2)", "GF(3)", "GF(4)", "GF(5)",
                                                               "GF(7)", "GF(8)", "GF(9)", "Z(6)",
                                                               "Z(12)"]
                                        for n in (1, 2, 3)
                                        if make_ring(text).order ** (n * n) <= DEFAULT_RING_CAP])
    def test_rank_tables_match_entrywise_elimination(self, text, n):
        # every row r reduces by the pivot r / (lead entry of r): each entry of
        # an elimination row is s_j - s_lead * pivot_j, by field.sub and field.mul
        for field, _ in residue_fields(make_ring(text)):
            q = field.order
            radices = (q,) * n
            rows = [split_digits(r, radices) for r in range(q ** n)]
            reducer = rings._rank_tables(field, n, rings._difference_table(field, n))
            assert len(reducer) == len(rows) and reducer[0] is None
            for r, entries in enumerate(rows[1:], 1):
                lead = next(j for j, x in enumerate(entries) if x)
                inverse = next(u for u in range(q) if field.mul(u, entries[lead]) == field.one)
                pivot = [field.mul(inverse, x) for x in entries]
                assert reducer[r] == [
                    join_digits([field.sub(x, field.mul(s[lead], y)) for x, y in zip(s, pivot)],
                                radices)
                    for s in rows]

    @pytest.mark.parametrize("text", ["Z(1048576)", "prod(Z(1024),Z(1024))", "Z(12)", "GF(9)",
                                      "prod(Z(2),GF(3))", "Z(4)", "GF(1024)"])
    def test_one_by_one_matrix_ring_asks_its_base(self, text):
        # M_1(A) = A: a unit test matches the 1 x 1 determinant and builds no
        # residue-field image, which for Z(2^20) would have 2^20 entries
        ring, rng = make_ring("M(1,%s)" % text), random.Random(29)
        base = ring.base
        samples = [base.one, 0, base.order - 1] + [rng.randrange(base.order) for _ in range(200)]
        for a in samples:
            assert ring.is_unit(a) == base.is_unit(det_entries(((a,),), base))
        assert "_row_tables" not in vars(ring)

    @pytest.mark.parametrize("n,base,tables", [
        (2, GFRing(16), True),
        (4, GFRing(4), True),
        (2, GFRing(17), True),  # rows of 289 values
        (3, ZmRing(12), True),
        (2, GFRing(32), True),  # |A|^n = 2^10, the widest row the cap admits
        (2, ZmRing(30), True),  # three residue fields
    ])
    def test_sampled_units_match_cofactor_det(self, n, base, tables):
        # half the samples have a last row that is a multiple of the first, so singular
        ring, rng = MatRing(n, base), random.Random(17)
        seen = set()
        for t in range(60):
            rows = [[rng.randrange(base.order) for _ in range(n)] for _ in range(n)]
            if t % 2:
                c = rng.randrange(base.order)
                rows[-1] = [base.mul(c, x) for x in rows[0]]
            want = base.is_unit(det_entries(tuple(map(tuple, rows)), base))
            assert ring.is_unit(ring.encode_entries(sum(rows, []))) == want
            seen.add(want)
        assert seen == {True, False}
        assert ("_row_tables" in vars(ring)) == tables

    @pytest.mark.parametrize("text", ["M(2,GF(32))", "M(2,Z(31))"])
    def test_widest_rows_build_small_tables(self, text):
        # rows of about 2^10 values, the widest make_ring admits: the first unit
        # test builds every table, and the reduction tables are counted here
        # rather than timed (the difference table, over Z(31) only, has |R| entries)
        ring = make_ring(text)
        assert ring.is_unit(ring.one)
        entries = 0
        for row_map, _, _, reducer in ring._row_tables:
            elims = {id(t): t for t in reducer if t is not None}
            entries += len(row_map or ()) + len(reducer) + sum(map(len, elims.values()))
        assert 2 ** 14 < entries <= 2 ** 16

    # |U(R)| = |J| prod |GL_{n_i}(F_{q_i})| over R/J(R) = prod M_{n_i}(F_{q_i})
    @pytest.mark.parametrize("text,want", [
        ("M(2,Z(4))", 16 * 6),  # |J| = 2^4, R/J = M_2(F_2)
        ("M(2,prod(Z(2),Z(3)))", 6 * 48),  # M_2(F_2) x M_2(F_3)
        ("M(3,GF(4))", 63 * 60 * 48),  # (4^3 - 1)(4^3 - 4)(4^3 - 16)
        ("M(2,GF(17))", 78336),  # (17^2 - 1)(17^2 - 17), rows of 289 values
    ])
    def test_unit_scan_has_closed_form_size(self, text, want):
        assert len(make_ring(text).units()) == want

    @pytest.mark.parametrize("q", [2, 3])
    def test_m2f_nonunit_row_shape(self, q):
        # every singular 2x2 matrix has a zero first row or proportional rows
        r = make_ring("M(2,GF(%d))" % q)
        f = r.base
        for a in range(r.order):
            if r.is_unit(a):
                continue
            (r1a, r1b), (r2a, r2b) = r.rows(a)
            zero_first = r1a == r1b == 0
            proportional = any(r2a == f.mul(s, r1a) and r2b == f.mul(s, r1b)
                               for s in range(q))
            assert zero_first or proportional


def _adjacency_pairs(ring, rng, count):
    """Every pair of a ring of at most 100 elements, else `count` drawn pairs,
    half of them (a, a - b c) for drawn b and c: a difference that is a
    product, so a non-unit more often than a drawn element is."""
    if ring.order <= 100:
        return list(itertools.product(range(ring.order), repeat=2))
    pairs = []
    for t in range(count):
        a, b = rng.randrange(ring.order), rng.randrange(ring.order)
        if t % 2:
            b = ring.sub(a, ring.mul(b, rng.randrange(ring.order)))
        pairs.append((a, b))
    return pairs


class TestAdjacency:
    # Ring.adjacent(a, b) is the edge test of Gamma(R): whether a - b is a unit.
    # It checks both indices and asks the ring class's one predicate _adjacent,
    # which is_unit(a) asks as a ~ 0.  No class subtracts a and b by `sub`: a
    # full M(n, A), n >= 2, splits them into rows and subtracts those by table,
    # T and prod test their diagonal and factor entries pairwise, and Z and GF
    # compare the indices.  is_unit(sub(a, b)) is the oracle here.
    @pytest.mark.parametrize("text", [
        "Z(12)", "Z(1)", "GF(9)", "GF(8)", "T(2,GF(3))", "T(3,GF(2))",
        "prod(Z(2),GF(4))", "prod(Z(4),Z(3))", "M(1,GF(5))", "M(1,prod(Z(2),Z(3)))",
        "M(2,GF(2))", "M(2,GF(3))", "M(3,GF(2))", "M(2,GF(4))", "M(2,GF(9))", "M(3,GF(3))",
        "M(2,Z(4))", "M(2,Z(9))", "M(2,prod(Z(2),GF(3)))", "M(2,Z(6))", "M(3,Z(4))"])
    def test_matches_unit_of_difference(self, text):
        ring, rng = make_ring(text), random.Random(31)
        seen = set()
        for a, b in _adjacency_pairs(ring, rng, 3000):
            want = ring.is_unit(ring.sub(a, b))
            assert ring.adjacent(a, b) == want
            seen.add(want)
        assert seen == ({True} if ring.order == 1 else {True, False})  # 0 is a unit of Z(1)

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS, st.randoms(use_true_random=False))
    def test_random_specs_match_unit_of_difference(self, spec, rng):
        ring = make_ring(spec)
        for a, b in _adjacency_pairs(ring, rng, 20):
            assert ring.adjacent(a, b) == ring.is_unit(ring.sub(a, b))

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
    def test_past_the_cap_matches_cofactor_det(self, n, q):
        # the rings verify-paper's medium checks build past make_ring's cap;
        # the oracle is the cofactor determinant of the entry-wise difference
        ring, rng = MatRing(n, GFRing(q)), random.Random(37)
        field = ring.base
        seen = set()
        for a, b in _adjacency_pairs(ring, rng, 120):
            diff = tuple(map(field.sub, ring.decode_entries(a), ring.decode_entries(b)))
            want = det_entries(tuple(diff[i * n:(i + 1) * n] for i in range(n)), field) != 0
            assert ring.adjacent(a, b) == want == ring.is_unit(ring.sub(a, b))
            seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("text,sizes", [
        ("M(2,GF(3))", [81]),  # 3^(2n) entries
        ("M(3,GF(3))", [729]),
        ("M(2,GF(4))", [None]),  # characteristic 2: x ^ y, no table
        ("M(2,Z(4))", [None]),  # onto F_2
        ("M(2,prod(Z(2),Z(3)))", [None, 81]),
        ("M(2,Z(15))", [81, 625]),
    ])
    def test_units_and_adjacent_share_one_table_list(self, text, sizes):
        # one table list per residue field serves units() and adjacent: the
        # unit scan builds the difference table too, and adjacent builds nothing
        # more; a fresh ring's first adjacent call builds tables of the same sizes
        ring = make_ring(text)
        ring.units()
        tables = ring._row_tables
        assert [None if diff is None else len(diff) for _, _, diff, _ in tables] == sizes
        assert all(size is None or size <= ring.order for size in sizes)
        ring.adjacent(ring.one, 0)
        assert ring._row_tables is tables
        fresh = make_ring(text)
        fresh.adjacent(fresh.one, 0)
        assert [len(diff or ()) for _, _, diff, _ in fresh._row_tables] == \
            [len(diff or ()) for _, _, diff, _ in tables]

    @pytest.mark.parametrize("text", ["M(1,GF(5))", "T(2,GF(3))"])
    def test_other_matrix_rings_take_the_default_path(self, text):
        # M(1, A) asks A's edge test and T its diagonal's: neither builds row tables
        ring = make_ring(text)
        assert all(ring.adjacent(a, 0) == ring.is_unit(a) for a in range(ring.order))
        assert "_row_tables" not in vars(ring)


class TestMatrixCodec:
    # a full M(n, A), n >= 2, decodes and encodes a row at a time through its
    # row codec; T(n, F) and M(1, A) use the stored-position digits
    @pytest.mark.parametrize("text", ["M(2,GF(3))", "M(3,GF(2))", "M(2,GF(4))", "M(2,Z(4))",
                                      "M(2,prod(Z(2),GF(3)))", "M(1,GF(5))", "M(1,Z(1048576))",
                                      "T(2,GF(3))", "T(3,GF(4))"])
    def test_matches_split_and_join(self, text):
        ring, rng = make_ring(text), random.Random(41)
        n, radices = ring.n, (ring.base.order,) * len(ring.positions)
        for a in [0, ring.one, ring.order - 1] + [rng.randrange(ring.order) for _ in range(300)]:
            entries = ring.decode_entries(a)
            assert entries == split_digits(a, radices)
            assert ring.encode_entries(entries) == join_digits(entries, radices) == a
            assert ring.encode_entries(list(entries)) == a
            cells = dict(zip(ring.positions, entries))
            assert ring.rows(a) == tuple(tuple(cells.get((i, j), 0) for j in range(n))
                                         for i in range(n))
        # the codec has |A|^n rows: M(1, A) and T build none
        assert ("_row_codec" in vars(ring)) == (n > 1 and not isinstance(ring, TriRing))

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
    def test_past_the_cap_matches_split_and_join(self, n, q):
        ring, rng = MatRing(n, GFRing(q)), random.Random(43)
        for a in [rng.randrange(ring.order) for _ in range(200)]:
            entries = ring.decode_entries(a)
            assert entries == split_digits(a, (q,) * (n * n))
            assert ring.encode_entries(entries) == a
        assert len(ring._row_codec[0]) == q ** n

    @pytest.mark.parametrize("text", ["M(2,GF(3))", "M(1,GF(3))", "T(2,GF(3))"])
    @pytest.mark.parametrize("bad", [3, -1, 1.5, "1", None, [1]])
    def test_bad_entry_raises(self, text, bad):
        ring = make_ring(text)
        entries = (0,) * (len(ring.positions) - 1) + (bad,)
        for _ in range(2):  # before and after the codec is built
            with pytest.raises(RingError):
                ring.encode_entries(entries)
            ring.encode_entries(ring.decode_entries(ring.one))

    @pytest.mark.parametrize("text", ["M(2,GF(3))", "M(1,GF(3))", "T(2,GF(3))"])
    @pytest.mark.parametrize("a", [-1, "order", 1.0, "1", None])
    def test_bad_index_raises(self, text, a):
        ring = make_ring(text)
        a = ring.order if a == "order" else a
        for call in (ring.decode_entries, ring.rows, ring.element_repr):
            with pytest.raises(RingError):
                call(a)


class TestDet:
    def test_identity(self):
        r = make_ring("M(3,GF(2))")
        assert det_entries(r.rows(r.one), r.base) == 1

    def test_zero_row(self):
        from ucayley.constructions import reduced_diagonal
        r = make_ring("M(3,GF(2))")
        d = reduced_diagonal(3, 1, 2, (1, 1), r.base)
        assert det_entries(r.rows(r.encode_entries(d)), r.base) == 0

    def test_diagonal_over_z4(self):
        r = make_ring("M(2,Z(4))")
        assert det_entries(r.rows(r.encode_entries((1, 0, 0, 2))), r.base) == 2

    @pytest.mark.parametrize("text", ["T(1,Z(5))", "T(2,GF(4))", "T(3,GF(3))", "T(4,GF(2))"])
    def test_triangular_det_is_the_diagonal_product(self, text):
        r = make_ring(text)
        for a in range(r.order):
            rows, want = r.rows(a), r.base.one
            for i in range(r.n):
                want = r.base.mul(want, rows[i][i])
            assert det_entries(rows, r.base) == want
            assert r.is_unit(a) == r.base.is_unit(want)

    @pytest.mark.parametrize("text,n", [("Z(6)", 3), ("GF(4)", 3), ("Z(4)", 4)])
    def test_against_leibniz_oracle(self, text, n):
        base = make_ring(text)
        rng = random.Random(11)
        for _ in range(25):
            rows = tuple(tuple(rng.randrange(base.order) for _ in range(n))
                         for _ in range(n))
            assert det_entries(rows, base) == leibniz_det(rows, base)

    def test_row_multilinearity_sampled(self):
        base = make_ring("Z(6)")
        rng = random.Random(13)
        for _ in range(20):
            rows = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(3)]
            i = rng.randrange(3)
            u = tuple(rng.randrange(6) for _ in range(3))
            with_u = list(rows)
            with_u[i] = u
            with_sum = list(rows)
            with_sum[i] = tuple(base.add(x, y) for x, y in zip(rows[i], u))
            total = base.add(det_entries(tuple(rows), base),
                             det_entries(tuple(with_u), base))
            assert det_entries(tuple(with_sum), base) == total


class TestRadical:
    def test_z8(self):
        assert jacobson_radical(make_ring("Z(8)")) == (0, 2, 4, 6)

    def test_t2f2_zero_diagonal(self):
        r = make_ring("T(2,GF(2))")
        rad = jacobson_radical(r)
        assert len(rad) == 2
        for a in rad:
            e = r.decode_entries(a)
            assert e[0] == 0 and e[2] == 0

    def test_m2f2_brute_force(self):
        r = make_ring("M(2,GF(2))")
        assert jacobson_radical_bruteforce(r) == (0,)

    def test_m2z4(self):
        r = make_ring("M(2,Z(4))")
        rad = jacobson_radical(r)
        assert len(rad) == 16
        assert all(all(x in (0, 2) for x in r.decode_entries(a)) for a in rad)

    @pytest.mark.parametrize("text", ["Z(4)", "Z(12)", "GF(9)", "T(2,GF(2))",
                                      "prod(Z(4),Z(3))", "M(2,GF(2))"])
    def test_structured_matches_brute_force(self, text):
        r = make_ring(text)
        assert jacobson_radical(r) == jacobson_radical_bruteforce(r)


class TestQuotient:
    def test_z4_mod_j(self):
        q, p = radical_quotient(make_ring("Z(4)"))
        assert str(q) == "Z(2)" and p == [0, 1, 0, 1]
        assert q.mul(1, 1) == 1

    def test_semisimple_ring_is_its_own_quotient(self):
        r = make_ring("Z(6)")
        q, p = radical_quotient(r)
        assert q.spec == r.spec
        assert p == list(range(6))

    def test_t2f2_mod_j(self):
        q, _ = radical_quotient(make_ring("T(2,GF(2))"))
        assert str(q) == "prod(GF(2),GF(2))"
        assert q.order == 4
        assert len(q.units()) == 1

    def test_projection_is_homomorphism(self):
        for text in ("Z(12)", "Z(1)", "T(1,GF(4))", "T(3,GF(2))", "M(2,Z(4))",
                     "prod(T(2,GF(2)),Z(9))"):
            r = make_ring(text)
            q, p = radical_quotient(r)
            assert p[r.one] == q.one, text
            # every pair up to order 100; 4096 random pairs of M(2,Z(4))
            rng = random.Random(text)
            pairs = (itertools.product(range(r.order), repeat=2) if r.order <= 100 else
                     [(rng.randrange(r.order), rng.randrange(r.order)) for _ in range(4096)])
            for a, b in pairs:
                assert p[r.add(a, b)] == q.add(p[a], p[b]), text
                assert p[r.mul(a, b)] == q.mul(p[a], p[b]), text

    @settings(max_examples=40, deadline=None)
    @given(RING_SPECS)
    def test_radical_quotient_on_random_specs(self, spec):
        r = make_ring(spec)
        q, p = radical_quotient(r)
        assert sorted(set(p)) == list(range(q.order))
        assert p[r.one] == q.one
        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.randrange(r.order), rng.randrange(r.order)
            assert p[r.add(a, b)] == q.add(p[a], p[b])
            assert p[r.mul(a, b)] == q.mul(p[a], p[b])
        rad = jacobson_radical_bruteforce(r)
        assert tuple(x for x in range(r.order) if p[x] == 0) == rad
        assert jacobson_radical(r) == rad
        if len(rad) > 1:
            assert _twin_quotient(build_graph(r))[0] == build_graph(q)


def _same_residue_fields(ring):
    """residue_fields(ring) against the per-class reduce oracle: the same
    fields in the same order, each map as the oracle's reduce of every index."""
    new, old = residue_fields(ring), reduce_residue_fields(ring)
    assert len(new) == len(old)
    for (field, moduli), (want, reduce) in zip(new, old):
        assert isinstance(field, GFRing)
        if not isinstance(want, int):  # GF(q) itself, as the oracle gives it
            assert field is want
        assert field.order == (want if isinstance(want, int) else want.order)
        assert digit_map(ring.radices, moduli) == reduce(list(range(ring.order)))


class TestDigitMap:
    def test_small_maps(self):
        assert digit_map((), ()) == [0]
        assert digit_map((12,), (2,)) == [x % 2 for x in range(12)]
        assert digit_map((4, 3), (2, 1)) == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]
        assert digit_map((2, 3), (2, 3)) == list(range(6))

    @pytest.mark.parametrize("text", ["Z(12)", "Z(36)", "prod(Z(2),GF(4),Z(9))", "Z(1)",
                                      "GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(9)", "Z(4)",
                                      "Z(6)", "prod(Z(2),GF(3))", "prod(Z(4),Z(1),GF(9))"])
    def test_residue_fields_match_reduce_oracle(self, text):
        _same_residue_fields(make_ring(text))

    @pytest.mark.parametrize("text,n", [("Z(4)", 2), ("Z(6)", 3), ("Z(12)", 2), ("GF(4)", 3),
                                        ("GF(9)", 2), ("prod(Z(2),GF(3))", 2),
                                        ("prod(Z(2),GF(4))", 2), ("Z(9)", 2)])
    def test_row_maps_match_reduce_oracle(self, text, n):
        # the M(n, A) row maps onto F^n
        base = make_ring(text)
        assert [(width, m) for m, width, _, _ in MatRing(n, base)._row_tables] == \
            [((f if isinstance(f, int) else f.order) ** n, reduce_row_map(base, n, reduce))
             for f, reduce in reduce_residue_fields(base)]

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS, st.randoms(use_true_random=False))
    def test_random_specs_match_oracles(self, spec, rng):
        ring = make_ring(spec)
        assert digit_map(ring.radices, ring.radical_steps) == projection_loop(ring)
        # any divisor of each radix: each index's digits reduced one by one
        moduli = tuple(rng.choice([t for t in range(1, d + 1) if d % t == 0])
                       for d in ring.radices)
        assert digit_map(ring.radices, moduli) == [
            join_digits([x % t for x, t in zip(split_digits(a, ring.radices), moduli)], moduli)
            for a in range(ring.order)]
        if is_commutative_spec(ring.spec):
            _same_residue_fields(ring)
        if isinstance(ring, MatRing) and not isinstance(ring, TriRing):
            assert [m for m, _, _, _ in ring._row_tables] == [
                reduce_row_map(ring.base, ring.n, reduce)
                for _, reduce in reduce_residue_fields(ring.base)]


def test_ring_metadata():
    meta = ring_metadata(make_ring("T(2,GF(2))"))
    assert meta == {"spec": "T(2,GF(2))", "order": 8, "unit_count": 2,
                    "radical_size": 2}
