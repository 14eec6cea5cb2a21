import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucayley.rings import (GF, M, Prod, SpecConstraintError, SpecSyntaxError,
                           T, Z, det_entries, jacobson_radical,
                           jacobson_radical_bruteforce, join_digits, make_ring,
                           parse_spec, quotient_ring, ring_metadata, RingError,
                           CapExceededError, _order_log2_64ths, smallest_irreducible,
                           spec_order, split_digits)
from conftest import RING_SPECS, leibniz_det, structural_add, structural_neg


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
        # '²' is a digit to str.isdigit but not a decimal int() can read
        with pytest.raises(SpecSyntaxError, match="unexpected character"):
            parse_spec("Z(²)")

    def test_unknown_constructor(self):
        with pytest.raises(SpecSyntaxError, match="unknown"):
            parse_spec("Q(5)")

    def test_str_round_trip(self):
        for text in ("Z(6)", "GF(8)", "M(2,Z(4))", "T(3,GF(2))", "prod(Z(2),M(2,GF(2)))"):
            assert str(parse_spec(text)) == text


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
        assert r.unit_count() == units

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

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS, st.integers(1, 400))
    def test_cap_check_matches_the_order(self, spec, cap):
        order = spec_order(spec)
        low = _order_log2_64ths(spec)  # short by under 1 per leaf, and a leaf adds >= 64
        assert 2 ** low <= order ** 64 < 2 ** (low + low // 64 + 1)
        if order > cap:
            with pytest.raises(CapExceededError, match=r"\|R\| = %d exceeds" % order):
                make_ring(spec, cap=cap)
        else:
            assert make_ring(spec, cap=cap).order == order

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

    def test_quotient_has_no_radices(self):
        assert quotient_ring(make_ring("Z(4)"), (0, 2)).radices is None

    def test_split_join_round_trip(self):
        radices = (3, 1, 4, 2)
        for a in range(24):
            assert join_digits(split_digits(a, radices), radices) == a
        assert split_digits(23, radices) == (2, 0, 3, 1)

    @pytest.mark.parametrize("digits", [(0, 3), (-1, 0), (0, 1.0)])
    def test_join_rejects_bad_digits(self, digits):
        with pytest.raises(RingError):
            join_digits(digits, (2, 3))

    def test_encode_keeps_range_checks(self):
        with pytest.raises(RingError):
            make_ring("M(2,GF(2))").encode_entries((0, 0, 0, 2))
        with pytest.raises(RingError):
            make_ring("prod(Z(2),Z(3))").encode_components((1, 3))

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


class TestUnits:
    def test_z6(self):
        assert make_ring("Z(6)").is_unit(5)

    def test_singular_matrix(self):
        r = make_ring("M(2,GF(2))")
        assert not r.is_unit(r.encode_entries((1, 1, 1, 1)))

    def test_product_componentwise(self):
        r = make_ring("prod(Z(2),Z(3))")
        assert r.is_unit(r.encode_components((1, 2)))
        assert not r.is_unit(r.encode_components((0, 2)))

    def test_triangular_diagonal(self):
        r = make_ring("T(2,GF(3))")
        for a in range(r.order):
            e = r.decode_entries(a)
            assert r.is_unit(a) == (e[0] != 0 and e[2] != 0)

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


class TestDet:
    def test_identity(self):
        r = make_ring("M(3,GF(2))")
        assert r.det(r.one) == 1

    def test_zero_row(self):
        from ucayley.constructions import reduced_diagonal
        r = make_ring("M(3,GF(2))")
        d = reduced_diagonal(3, 1, 2, (1, 1), r.base)
        assert r.det(r.encode_entries(d)) == 0

    def test_diagonal_over_z4(self):
        r = make_ring("M(2,Z(4))")
        assert r.det(r.encode_entries((1, 0, 0, 2))) == 2

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
        q = quotient_ring(make_ring("Z(4)"), (0, 2))
        assert q.order == 2
        assert q.mul(1, 1) == 1

    def test_zero_ideal(self):
        r = make_ring("Z(6)")
        q = quotient_ring(r, (0,))
        assert q.order == 6
        assert all(q.project(x) == x for x in range(6))

    def test_t2f2_mod_j(self):
        r = make_ring("T(2,GF(2))")
        q = quotient_ring(r, jacobson_radical(r))
        assert q.order == 4
        assert q.unit_count() == 1

    def test_rejects_non_ideal(self):
        with pytest.raises(RingError, match="ideal"):
            quotient_ring(make_ring("Z(6)"), (0, 1))

    def test_projection_is_homomorphism(self):
        r = make_ring("Z(12)")
        q = quotient_ring(r, jacobson_radical(r))
        for a in range(r.order):
            for b in range(r.order):
                assert q.project(r.add(a, b)) == q.add(q.project(a), q.project(b))
                assert q.project(r.mul(a, b)) == q.mul(q.project(a), q.project(b))


def test_ring_metadata():
    meta = ring_metadata(make_ring("T(2,GF(2))"))
    assert meta == {"spec": "T(2,GF(2))", "order": 8, "unit_count": 2,
                    "radical_size": 2}
