import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entrywise_avoidance_partner, entrywise_row_mix
from ucayley import constructions, verify
from ucayley.constructions import (avoidance_partner, d_family, product_witness,
                                   reduced_diagonal, row_mix, zero_pattern_positions)
from ucayley.graphs import build_graph
from ucayley.indsets import greedy_extend
from ucayley.rings import GFRing, RingError, det_entries, join_digits, make_ring, split_digits


def rows_of(entries, n):
    return tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))


def singular(entries, n, field):
    return not field.is_unit(det_entries(rows_of(entries, n), field))


def permuted_identity(n, field):
    """diag(I_{n-2}, antidiag(1,1)): a unit matching the forced-zero pattern."""
    entries = [0] * (n * n)
    for i in range(n - 2):
        entries[i * n + i] = field.one
    entries[(n - 2) * n + (n - 1)] = field.one
    entries[(n - 1) * n + (n - 2)] = field.one
    return tuple(entries)


class TestReducedDiagonal:
    def test_d12_n3(self):
        f = GFRing(2)
        a1, a2 = 1, 1
        assert reduced_diagonal(3, 1, 2, (a1, a2), f) == (0, a2, 0,
                                                          0, 0, 0,
                                                          a1, 0, 0)

    def test_d33_n3(self):
        f = GFRing(3)
        a1, a2 = 2, 1
        assert reduced_diagonal(3, 3, 3, (a1, a2), f) == (a1, 0, 0,
                                                          0, a2, 0,
                                                          0, 0, 0)

    def test_all_nine_shapes_n3(self):
        # support positions of every D_{k,l} for n = 3
        f = GFRing(2)
        support = {
            (1, 1): [(1, 2), (2, 0)], (1, 2): [(0, 1), (2, 0)], (1, 3): [(0, 1), (1, 2)],
            (2, 1): [(1, 0), (2, 1)], (2, 2): [(0, 2), (2, 1)], (2, 3): [(0, 2), (1, 0)],
            (3, 1): [(1, 1), (2, 2)], (3, 2): [(0, 0), (2, 2)], (3, 3): [(0, 0), (1, 1)],
        }
        for (kk, ll), cells in support.items():
            e = reduced_diagonal(3, kk, ll, (1, 1), f)
            got = [(t // 3, t % 3) for t, v in enumerate(e) if v]
            assert sorted(got) == sorted(cells), (kk, ll)

    def test_dk_n4_shapes(self):
        f = GFRing(2)
        for kk in range(1, 5):
            e = reduced_diagonal(4, kk, kk, (1, 1, 1), f)
            # row k is zero, every other row has one entry on the k-shifted diagonal
            for i in range(1, 5):
                row = e[(i - 1) * 4:i * 4]
                if i == kk:
                    assert row == (0,) * 4
                else:
                    j = (i + kk - 1) % 4
                    assert row[j] == 1 and sum(row) == 1

    def test_zero_row(self):
        f = GFRing(3)
        for kk, ll in itertools.product(range(1, 4), repeat=2):
            e = reduced_diagonal(3, kk, ll, (2, 2), f)
            assert e[(ll - 1) * 3:(ll - 1) * 3 + 3] == (0, 0, 0)

    def test_zero_coefficients(self):
        assert reduced_diagonal(3, 2, 1, (0, 0), GFRing(2)) == (0,) * 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduced_diagonal(3, 0, 1, (1, 1), GFRing(2))


class TestFamily:
    def test_n2_q2_members(self):
        fam = d_family(2, GFRing(2))
        assert fam == sorted([(0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)])

    def test_n1_only_zero(self):
        assert d_family(1, GFRing(4)) == [(0,)]

    def test_n3_q2_size(self):
        assert len(d_family(3, GFRing(2))) == 10

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_independent_family(self, n, q):
        f = GFRing(q)
        fam = d_family(n, f)
        assert len(fam) == n * (q ** (n - 1) - 1) + 1
        for a, b in itertools.combinations(fam, 2):
            diff = tuple(f.sub(x, y) for x, y in zip(a, b))
            assert singular(diff, n, f)


def index_of(entries, q):
    """The matrix index of row-major entries over GF(q)."""
    return join_digits(entries, (q,) * len(entries))


def entries_of(a, n, q):
    return split_digits(a, (q,) * (n * n))


class TestRowMix:
    def test_empty_rows_returns_a(self):
        a, d = index_of((0, 1, 2, 1), 3), index_of((2, 2, 2, 2), 3)
        assert row_mix(a, d, (), 2, GFRing(3)) == a

    def test_all_rows_returns_d(self):
        a, d = index_of((0, 1, 2, 1), 3), index_of((1, 0, 0, 1), 3)
        assert row_mix(a, d, (0, 1), 2, GFRing(3)) == d

    def test_mix_is_singular(self):
        f = GFRing(2)
        r = make_ring("M(3,GF(2))")
        d1 = r.encode_entries(reduced_diagonal(3, 1, 1, (1, 1), f))
        mixed = entries_of(row_mix(r.one, d1, (0,), 3, f), 3, 2)
        assert mixed[0:3] == (0, 0, 0)
        assert singular(mixed, 3, f)

    def test_size_mismatch(self):
        # a 3 x 3 matrix's index lies past the 2 x 2 ones
        with pytest.raises(RingError):
            row_mix(0, 2 ** 9 - 1, (0,), 2, GFRing(2))
        with pytest.raises(RingError):
            row_mix(-1, 0, (0,), 2, GFRing(2))

    @pytest.mark.parametrize("rows", [(2,), (0, -1)])
    def test_row_index_out_of_range(self, rows):
        with pytest.raises(ValueError, match="row index -?[0-9]+ out of range"):
            row_mix(0, 0, rows, 2, GFRing(2))

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
    def test_matches_entrywise_oracle_exhaustively(self, n, q):
        f = GFRing(q)
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        cells = list(itertools.product(range(q), repeat=n * n))
        for a, d in itertools.product(cells, repeat=2):
            for rows in subsets:
                got = row_mix(index_of(a, q), index_of(d, q), rows, n, f)
                assert entries_of(got, n, q) == entrywise_row_mix(a, d, rows, n)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (2, 9)]).flatmap(
        lambda nq: st.tuples(st.just(nq), *[st.lists(st.integers(0, nq[1] - 1),
                                                     min_size=nq[0] ** 2, max_size=nq[0] ** 2)
                                            for _ in range(2)])))
    def test_matches_entrywise_oracle_sampled(self, case):
        # every row subset, and one row listed twice
        (n, q), a, d = case
        f = GFRing(q)
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        for rows in subsets + [(n - 1, 0, n - 1)]:
            got = row_mix(index_of(a, q), index_of(d, q), rows, n, f)
            assert entries_of(got, n, q) == entrywise_row_mix(a, d, rows, n)


class TestAvoidancePartner:
    def test_spec_example(self):
        f = GFRing(2)
        b = avoidance_partner(index_of((1, 0, 0, 0), 2), 2, f)
        assert entries_of(b, 2, 2) == (0, 0, 0, 1)
        diff = tuple(f.sub(x, y) for x, y in zip((1, 0, 0, 0), entries_of(b, 2, 2)))
        assert diff == (1, 0, 0, 1)

    def test_identity_m3f3(self):
        r = make_ring("M(3,GF(3))")
        f = r.base
        ident = r.decode_entries(r.one)
        b = entries_of(avoidance_partner(r.one, 3, f), 3, 3)
        assert singular(b, 3, f)
        diff = tuple(f.sub(x, y) for x, y in zip(ident, b))
        assert not singular(diff, 3, f)

    def test_exhaustive_m2f2(self):
        f = GFRing(2)
        for a in range(1, 16):
            entries, b = entries_of(a, 2, 2), entries_of(avoidance_partner(a, 2, f), 2, 2)
            assert singular(b, 2, f)
            diff = tuple(f.sub(x, y) for x, y in zip(entries, b))
            assert not singular(diff, 2, f)

    def test_verify_checks_every_random_matrix_it_reports(self, monkeypatch):
        # every nonzero M_2(F_2) and M_2(F_3), and 2,000 draws among the nonzero
        # M_3(F_3): seed 2 drew a zero matrix when entries were drawn one by one
        checked = []

        def counted(a, n, field):
            checked.append(n)
            return avoidance_partner(a, n, field)
        monkeypatch.setattr(constructions, "avoidance_partner", counted)
        detail = verify.check_avoidance_partner(verify._Ctx(seed=2), random_count=2000)
        assert detail.endswith("M_3(F_3): 2000 random matrices")
        assert checked.count(3) == 2000 and checked.count(2) == 15 + 80

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
    def test_matches_entrywise_oracle_exhaustively(self, n, q):
        f = GFRing(q)
        for entries in itertools.product(range(q), repeat=n * n):
            if any(entries):
                got = entries_of(avoidance_partner(index_of(entries, q), n, f), n, q)
                assert got == entrywise_avoidance_partner(entries, n, f)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(3, 3), (4, 2), (3, 4), (2, 9)]).flatmap(
        lambda nq: st.tuples(st.just(nq), st.lists(st.integers(0, nq[1] - 1),
                                                   min_size=nq[0] ** 2, max_size=nq[0] ** 2)
                             .filter(any))))
    def test_matches_entrywise_oracle_sampled(self, case):
        (n, q), entries = case
        f = GFRing(q)
        got = entries_of(avoidance_partner(index_of(entries, q), n, f), n, q)
        assert got == entrywise_avoidance_partner(entries, n, f)

    @pytest.mark.parametrize("entries", [(1, 0, 0, 3), (0, 1, 2, -1), (1, 1.0, 0, 0), (3, 0, 0, 0)])
    def test_out_of_range_entry_raises(self, entries):
        # a bad entry, kept or not, has no matrix index to pass on
        with pytest.raises(RingError):
            index_of(entries, 3)

    @pytest.mark.parametrize("a", [-1, 3 ** 4, 3 ** 9, 2 ** 100, 1.0, "1", None])
    def test_out_of_range_index_raises(self, a):
        with pytest.raises(RingError, match="matrix index .* out of range for n=2 over GF"):
            avoidance_partner(a, 2, GFRing(3))

    def test_rejects_zero_or_scalar(self):
        with pytest.raises(ValueError, match="A must be nonzero"):
            avoidance_partner(0, 2, GFRing(2))
        with pytest.raises(ValueError, match="requires n > 1"):
            avoidance_partner(1, 1, GFRing(2))


class TestZeroPattern:
    def test_positions_n3(self):
        assert zero_pattern_positions(3) == [(0, 1), (1, 0), (2, 2)]

    @pytest.mark.parametrize("n,q", [(3, 2), (4, 2)])
    def test_permuted_identity_matches_pattern_but_is_unit(self, n, q):
        f = GFRing(q)
        e = permuted_identity(n, f)
        for i, j in zero_pattern_positions(n):
            assert e[i * n + j] == 0
        assert not singular(e, n, f)

    def test_permuted_identity_outside_greedy_maximal_set(self):
        r = make_ring("M(3,GF(2))")
        fam = d_family(3, r.base)
        seed = tuple(r.encode_entries(e) for e in fam)
        m = greedy_extend(build_graph(r), seed)
        assert r.encode_entries(permuted_identity(3, r.base)) not in m


class TestProductWitness:
    @pytest.mark.parametrize("text", ["Z(1)", "prod(Z(1),Z(1))"])
    def test_zero_ring_is_refused(self, text):
        # 0 is a unit of the zero ring, so M x X would hold adjacent vertices
        with pytest.raises(ValueError, match="requires a nonzero ring R"):
            product_witness(make_ring(text), make_ring("M(2,GF(2))"))

    def test_one_by_one_matrices_are_refused(self):
        with pytest.raises(ValueError, match="requires n > 1"):
            product_witness(make_ring("Z(2)"), make_ring("M(1,GF(2))"))

    def test_z2_m2f2_sizes(self):
        wit = product_witness(make_ring("Z(2)"), make_ring("M(2,GF(2))"))
        assert len(wit.witness) == 11
        assert len(wit.competing) == 16

    def test_z3_m2f2_sizes(self):
        wit = product_witness(make_ring("Z(3)"), make_ring("M(2,GF(2))"))
        assert wit.base_max_set == (0,)  # K_3: greedy picks the singleton {0}
        assert len(wit.witness) == 3 + 1 * (16 - 6 - 1)

    def test_witness_is_maximal_independent(self):
        wit = product_witness(make_ring("Z(2)"), make_ring("M(2,GF(2))"))
        g = build_graph(make_ring("prod(Z(2),M(2,GF(2)))"))
        mask = sum(1 << v for v in wit.witness)
        assert all(not g.adj[v] & mask for v in wit.witness)
        assert all(g.adj[v] & mask for v in range(g.n) if not mask >> v & 1)

    def test_counting_formula(self):
        rng = random.Random(0)
        for text in ("Z(2)", "Z(3)", "Z(5)"):
            r = make_ring(text)
            wit = product_witness(r, make_ring("M(2,GF(2))"))
            q_sq, units = 16, 6
            expected = r.order + len(wit.base_max_set) * (q_sq - units - 1)
            assert len(wit.witness) == expected
