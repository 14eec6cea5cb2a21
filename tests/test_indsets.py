import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (RING_SPECS, brute_force_maximal_independent, is_maximal_independent,
                      pbound_alpha, recursive_maximal_independent, seed_is_well_covered)
from ucayley.graphs import UGraph, build_graph, conjunction_product
from ucayley.indsets import (TWIN_QUOTIENT, VERTEX_ZERO, Budget, BudgetExceededError,
                             _twin_quotient, enumerate_maximal_independent, greedy_extend,
                             independence_number, is_well_covered,
                             radical_saturate)
from ucayley.rings import jacobson_radical, make_ring, quotient_ring, spec_order
from ucayley.structure import semisimple_quotient


def complete(n):
    g = UGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = UGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


class TestEnumeration:
    def test_cycle_z6(self, oracles):
        g = build_graph(make_ring("Z(6)"))
        got = sorted(enumerate_maximal_independent(g))
        assert got == [(0, 2, 4), (0, 3), (1, 3, 5), (1, 4), (2, 5)]
        assert got == oracles["maximal_independent"](g)

    def test_complete_graph(self):
        assert sorted(enumerate_maximal_independent(complete(3))) == [(0,), (1,), (2,)]

    def test_z4(self):
        g = build_graph(make_ring("Z(4)"))
        assert sorted(enumerate_maximal_independent(g)) == [(0, 2), (1, 3)]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_against_oracle(self, oracles, seed):
        g = random_graph(11, 0.4, seed)
        assert sorted(enumerate_maximal_independent(g)) == \
            oracles["maximal_independent"](g)

    def test_each_set_emitted_once(self):
        g = build_graph(make_ring("M(2,GF(2))"))
        sets = list(enumerate_maximal_independent(g))
        assert len(sets) == len(set(sets))

    def test_deterministic_stream(self):
        g = random_graph(12, 0.5, 42)
        assert list(enumerate_maximal_independent(g)) == \
            list(enumerate_maximal_independent(g))

    def test_node_budget_raises(self):
        g = build_graph(make_ring("M(2,GF(2))"))
        with pytest.raises(BudgetExceededError):
            list(enumerate_maximal_independent(g, Budget(max_nodes=3)))


class TestAlpha:
    def test_m2f2(self):
        assert independence_number(build_graph(make_ring("M(2,GF(2))"))) == 4

    def test_complete(self):
        assert independence_number(complete(5)) == 1

    def test_z6(self):
        assert independence_number(build_graph(make_ring("Z(6)"))) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_against_oracle(self, oracles, seed):
        g = random_graph(11, 0.35, seed + 100)
        assert independence_number(g) == oracles["alpha"](g)


class TestWellCovered:
    def test_m2f2_yes(self):
        rep = is_well_covered(build_graph(make_ring("M(2,GF(2))")))
        assert rep.answer == "yes" and rep.alpha == 4 and rep.complete
        assert set(rep.counts) == {4}

    def test_z6_no_with_witness(self):
        rep = is_well_covered(build_graph(make_ring("Z(6)")))
        assert rep.answer == "no"
        assert rep.alpha == 3
        assert rep.witness_small == (0, 3)

    def test_product_with_matrix_factor_no(self):
        rep = is_well_covered(build_graph(make_ring("prod(Z(2),M(2,GF(2)))")))
        assert rep.answer == "no"

    def test_inconclusive_on_tiny_budget(self):
        g = build_graph(make_ring("M(2,GF(3))"))
        rep = is_well_covered(g, Budget(max_nodes=2))
        assert rep.answer == "inconclusive" and not rep.complete

    def test_report_json_shape(self):
        rep = is_well_covered(build_graph(make_ring("Z(6)")))
        payload = rep.to_json()
        assert payload["answer"] == "no"
        assert payload["witness_small"] == [0, 3]


class TestGreedyExtend:
    def test_empty_seed_complete_graph(self):
        assert greedy_extend(complete(3), ()) == (0,)

    def test_already_maximal(self):
        g = build_graph(make_ring("Z(6)"))
        assert greedy_extend(g, (0, 3)) == (0, 3)

    def test_seed_contained(self):
        g = build_graph(make_ring("Z(6)"))
        out = greedy_extend(g, (2,))
        assert 2 in out
        assert out == (0, 2, 4)

    def test_rejects_dependent_seed(self):
        g = build_graph(make_ring("Z(6)"))
        with pytest.raises(ValueError, match="independent"):
            greedy_extend(g, (0, 1))

    def test_result_is_maximal(self):
        g = build_graph(make_ring("M(2,GF(2))"))
        out = greedy_extend(g, ())
        mask = sum(1 << v for v in out)
        assert all(g.adj[v] & mask for v in range(g.n) if v not in out)


class TestRadicalSaturate:
    def test_z4(self):
        r = make_ring("Z(4)")
        assert radical_saturate(r, (0, 2), (1,)) == (1, 3)

    def test_zero_radical_identity(self):
        r = make_ring("GF(5)")
        assert radical_saturate(r, (0,), (2, 4)) == (2, 4)

    def test_z8_coset(self):
        r = make_ring("Z(8)")
        assert radical_saturate(r, (0, 2, 4, 6), (0,)) == (0, 2, 4, 6)

    def test_maximal_sets_are_saturated(self):
        for text in ("Z(4)", "Z(8)", "Z(12)", "T(2,GF(2))"):
            r = make_ring(text)
            rad = jacobson_radical(r)
            g = build_graph(r)
            for s in enumerate_maximal_independent(g):
                assert radical_saturate(r, rad, s) == s, text


def test_product_of_maximal_is_maximal_in_conjunction():
    # I maximal in g1 (no isolated vertices) => I x V(g2) maximal in g1 (x) g2
    g1 = build_graph(make_ring("Z(6)"))
    g2 = build_graph(make_ring("GF(3)"))
    prod = conjunction_product(g1, g2)
    for i_set in enumerate_maximal_independent(g1):
        verts = [v * g2.n + w for v in i_set for w in range(g2.n)]
        mask = sum(1 << v for v in verts)
        assert all(not prod.adj[v] & mask for v in verts)
        assert all(prod.adj[v] & mask for v in range(prod.n) if not mask >> v & 1)


def closed_form_alpha(spec):
    """alpha(Gamma(R)) = |R| / min_i q_i^{n_i} over R/J(R) ~= prod_i M_{n_i}(F_{q_i})."""
    return spec_order(spec) // min((q ** n for n, q in semisimple_quotient(spec)), default=1)


def blow_up(base, sizes, rng):
    """base with vertex i replaced by sizes[i] pairwise non-adjacent twins,
    the vertices shuffled so that no class is contiguous."""
    owner = [i for i, w in enumerate(sizes) for _ in range(w)]
    rng.shuffle(owner)
    g = UGraph(len(owner), transitive=base.transitive)
    for x, i in enumerate(owner):
        for y, j in enumerate(owner):
            if base.has_edge(i, j):
                g.adj[x] |= 1 << y
    return g


def circulant(n, rng):
    """A Cayley graph of Z(n) on a random symmetric connection set."""
    g = UGraph(n, transitive=True)
    for d in range(1, n // 2 + 1):
        if rng.random() < 0.4:
            for x in range(n):
                g.add_edge(x, (x + d) % n)
    return g


def check_against_brute_force(g):
    sets = brute_force_maximal_independent(g)
    sizes = {}
    for s in sets:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    alpha = max(sizes, default=0)
    assert independence_number(g) == alpha
    rep = is_well_covered(g)
    assert rep.alpha == alpha and rep.alpha_exact
    if len(sizes) <= 1:
        assert rep.answer == "yes" and rep.complete and rep.counts == sizes
    else:
        assert rep.answer == "no"
        assert is_maximal_independent(g, rep.witness_small)
        assert len(rep.witness_small) < alpha
        assert all(sizes.get(k, 0) >= c for k, c in rep.counts.items())


class TestEnumerationStack:
    @pytest.mark.parametrize("text", ["Z(6)", "Z(12)", "M(2,GF(2))", "T(2,GF(3))",
                                      "prod(Z(2),M(2,GF(2)))", "prod(Z(3),Z(3),Z(2))"])
    def test_stream_and_ticks_match_recursive_oracle(self, text):
        g = build_graph(make_ring(text))
        b_new, b_old = Budget(), Budget()
        assert list(enumerate_maximal_independent(g, b_new)) == \
            list(recursive_maximal_independent(g, b_old))
        assert b_new.nodes == b_old.nodes

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_stream_matches_recursive_oracle(self, seed):
        g = random_graph(14, 0.3, seed + 200)
        b_new, b_old = Budget(), Budget()
        assert list(enumerate_maximal_independent(g, b_new)) == \
            list(recursive_maximal_independent(g, b_old))
        assert b_new.nodes == b_old.nodes

    def test_deep_search_trips_budget_without_recursion_error(self):
        # Gamma(Z_2^11) is a perfect matching: the search descends 1024 levels
        g = build_graph(make_ring("prod(%s)" % ",".join(["Z(2)"] * 11)))
        with pytest.raises(BudgetExceededError):
            list(enumerate_maximal_independent(g, Budget(max_nodes=1100)))
        assert independence_number(g) == 1024


class TestTwinQuotient:
    @pytest.mark.parametrize("text", ["Z(4)", "Z(12)", "T(2,GF(2))", "T(3,GF(2))",
                                      "M(2,Z(4))", "prod(Z(4),GF(3))"])
    def test_classes_are_the_cosets_of_the_radical(self, text):
        r = make_ring(text)
        rad = jacobson_radical(r)
        h, classes = _twin_quotient(build_graph(r))
        cosets = sorted({radical_saturate(r, rad, (x,)) for x in range(r.order)})
        assert [tuple(c) for c in classes] == cosets
        assert h == build_graph(quotient_ring(r, rad)) and h.transitive

    @pytest.mark.parametrize("text", ["Z(6)", "GF(4)", "M(2,GF(2))", "prod(Z(2),Z(3))"])
    def test_semisimple_ring_has_no_twins(self, text):
        assert _twin_quotient(build_graph(make_ring(text))) is None

    def test_unequal_classes_are_searched_as_given(self):
        path = UGraph(3)  # 0 - 1 - 2: vertices 0 and 2 are twins, 1 is alone
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        assert _twin_quotient(path) is None
        budget = Budget()
        assert independence_number(path, budget) == 2 and budget.reductions == []


class TestReducedSearch:
    def test_reductions_recorded(self):
        budget = Budget()
        assert independence_number(build_graph(make_ring("Z(2048)")), budget) == 1024
        assert budget.reductions == [TWIN_QUOTIENT, VERTEX_ZERO]
        assert budget.stats() == {"nodes": budget.nodes,
                                  "reductions": [TWIN_QUOTIENT, VERTEX_ZERO]}

    def test_m3f2_alpha_within_a_small_budget(self):
        assert independence_number(build_graph(make_ring("M(3,GF(2))")),
                                   Budget(max_nodes=2000)) == 64

    def test_counts_scale_with_the_class_size(self):
        # Gamma(Z(8)) is the 4-fold blow-up of K2: two maximal sets of size 4
        rep = is_well_covered(build_graph(make_ring("Z(8)")))
        assert rep.answer == "yes" and rep.counts == {4: 2}

    def test_no_witness_lifts_to_whole_cosets(self):
        g = build_graph(make_ring("Z(12)"))
        rep = is_well_covered(g)
        assert rep.answer == "no" and rep.alpha == 6
        assert is_maximal_independent(g, rep.witness_small)
        assert all((v + 6) % 12 in rep.witness_small for v in rep.witness_small)

    @settings(max_examples=150, deadline=None)
    @given(RING_SPECS)
    def test_random_specs_match_the_unreduced_oracles(self, spec):
        g = build_graph(make_ring(spec))
        alpha = independence_number(g)
        assert alpha == closed_form_alpha(spec)
        try:
            want_alpha = pbound_alpha(g, Budget(max_nodes=100_000))
            want = seed_is_well_covered(g, Budget(max_nodes=20_000))
        except BudgetExceededError:
            assume(False)  # beyond the oracles' budget; the closed form still held
        assert alpha == want_alpha
        rep = is_well_covered(g)
        assert (rep.answer, rep.alpha, rep.counts, rep.witness_small) == \
            (want.answer, want.alpha, want.counts, want.witness_small)


class TestGenericGraphs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_blow_ups_with_unequal_classes(self, seed):
        rng = random.Random(seed)
        base = random_graph(rng.randint(1, 6), rng.random(), seed)
        sizes = [rng.randint(1, 2) for _ in range(base.n)]
        if rng.random() < 0.5:  # one class size for all, so the quotient applies
            sizes = [rng.randint(1, 14 // base.n)] * base.n
        check_against_brute_force(blow_up(base, sizes, rng))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_transitive_circulants_and_their_blow_ups(self, seed):
        rng = random.Random(seed)
        base = circulant(rng.randint(1, 10), rng)
        w = rng.randint(1, max(1, 14 // base.n))
        check_against_brute_force(blow_up(base, [w] * base.n, rng))


class TestBudgetContract:
    def test_no_answer_survives_a_tripped_alpha_step(self):
        g = build_graph(make_ring("M(3,GF(2))"))
        budget = Budget(max_nodes=200)
        rep = is_well_covered(g, budget)
        assert rep.answer == "no" and not rep.alpha_exact
        assert is_maximal_independent(g, rep.witness_small)
        assert len(rep.witness_small) < rep.alpha <= 64
        assert budget.nodes == 201  # the caller's budget, not a fresh one
        assert rep.to_json()["alpha_exact"] is False

    def test_tripped_alpha_carries_its_best_size(self):
        with pytest.raises(BudgetExceededError) as info:
            independence_number(build_graph(make_ring("M(3,GF(2))")), Budget(max_nodes=50))
        assert 1 <= info.value.best <= 64

    def test_tripped_alpha_best_is_scaled_by_the_class_size(self):
        with pytest.raises(BudgetExceededError) as info:
            independence_number(build_graph(make_ring("T(3,GF(3))")), Budget(max_nodes=1))
        assert info.value.best == 27  # vertex 0's coset of J, |J| = 27
