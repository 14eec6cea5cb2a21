import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (RING_SPECS, SEARCH_EXTRA, _twin_quotient, brute_force_alpha,
                      brute_force_maximal_independent, is_maximal_independent, pbound_alpha,
                      recursive_maximal_independent, scan_greedy_extend,
                      seed_is_well_covered)
from ucayley import indsets
from ucayley.graphs import UGraph, build_graph, conjunction_product
from ucayley.indsets import (CLIQUE_BOUND, TWIN_QUOTIENT, VERTEX_ZERO, Budget,
                             BudgetExceededError, _greedy_clique,
                             enumerate_maximal_independent, greedy_extend,
                             independence_number, is_well_covered,
                             radical_saturate)
from ucayley.rings import (jacobson_radical, make_ring, parse_spec, radical_quotient,
                           spec_order)
from ucayley.structure import classify_well_covered, semisimple_quotient
from ucayley.verify import CATALOG, _is_maximal_independent

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


@pytest.mark.parametrize("transitive", [False, True])
def test_empty_graph_has_one_maximal_set(transitive):
    g = UGraph(0, transitive=transitive)
    assert brute_force_maximal_independent(g) == [()]
    assert list(enumerate_maximal_independent(g)) == [()]
    budget = Budget()
    assert independence_number(g, budget) == 0 == brute_force_alpha(g)
    assert budget.reductions == []
    rep = is_well_covered(g)
    assert (rep.answer, rep.alpha, rep.counts) == ("yes", 0, {0: 1})


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2 ** 32), st.data())
    def test_bit_parallel_walk_matches_the_scan(self, n, p, seed, data):
        # a seed drawn apart from the graph: kept independent, or taken as drawn
        g = random_graph(n, p, seed)
        verts = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
        if data.draw(st.booleans()):
            verts = [v for i, v in enumerate(verts)
                     if not any(g.has_edge(u, v) for u in verts[:i])]
        try:
            want = scan_greedy_extend(g, verts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                greedy_extend(g, verts)
        else:
            assert greedy_extend(g, verts) == want

    @pytest.mark.parametrize("text", CATALOG + SEARCH_EXTRA)
    def test_bit_parallel_walk_matches_the_scan_on_ring_graphs(self, text):
        g = build_graph(make_ring(text))
        rng = random.Random(text)
        seeds = [(), (0,), (g.n - 1,)]
        for _ in range(5):
            seeds.append(scan_greedy_extend(g, (rng.randrange(g.n),))[::2])
        for seed in seeds:
            assert greedy_extend(g, seed) == scan_greedy_extend(g, seed)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 20), st.floats(0, 1), st.integers(0, 2 ** 32), st.data())
    def test_verify_maximality_check_agrees_with_oracle(self, n, p, seed, data):
        # random sets, greedy maximal sets, and those less one vertex or plus one
        g = random_graph(n, p, seed)
        verts = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
        kind = data.draw(st.sampled_from(["random", "maximal", "less one", "plus one"]))
        if kind != "random":
            seed_set = []
            for v in verts:
                if not any(g.has_edge(u, v) for u in seed_set):
                    seed_set.append(v)
            verts = list(greedy_extend(g, seed_set))
            outside = [v for v in range(n) if v not in verts]
            if kind == "less one" and verts:
                verts.pop(data.draw(st.integers(0, len(verts) - 1)))
            elif kind == "plus one" and outside:
                verts.append(data.draw(st.sampled_from(outside)))
        assert _is_maximal_independent(g, verts) == is_maximal_independent(g, verts)


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


def alpha_without_target(g):
    """(alpha, nodes) of a transitive g by the quotient and vertex-0 reductions
    and the same branch and bound, run to exhaustion with no clique-bound target."""
    budget = Budget()
    h, _, w = indsets._reduce(g, budget)
    root, P = indsets._start(h, budget)
    best = indsets._max_extension(h.adj, len(root), P, budget, math.inf,
                                  len(greedy_extend(h, root)))
    return w * best, budget.nodes


def check_alpha_oracles(spec):
    """Gamma(spec) and its alpha, checked against the closed form and the
    search with no target.  Where the clique bound ended the search it is
    alpha and took no more nodes (the greedy dive often meets it at once, and
    the clique cover then closes the search with no target at node 1 too);
    elsewhere the search took the same nodes."""
    g = build_graph(make_ring(spec))
    budget = Budget()
    alpha = independence_number(g, budget)
    want, nodes = alpha_without_target(g)
    assert alpha == closed_form_alpha(spec) == want
    if CLIQUE_BOUND in budget.reductions:
        h, _, w = indsets._reduce(g, Budget())
        assert alpha == w * (h.n // _greedy_clique(h.adj)) and budget.nodes <= nodes
    else:
        assert budget.nodes == nodes
    return g, alpha


def check_against_enumeration(g, rep):
    """rep checked against `enumerate_maximal_independent` on g as given.  A
    "yes" must count every maximal set; a "no" needs a maximal witness below
    alpha, and the enumeration runs until it has seen at least as many sets
    of each size as rep counted."""
    seen = {}
    for s in enumerate_maximal_independent(g):
        seen[len(s)] = seen.get(len(s), 0) + 1
        if rep.answer == "no" and all(seen.get(k, 0) >= c for k, c in rep.counts.items()):
            break
    if rep.answer == "yes":
        assert rep.counts == seen and rep.alpha == max(seen, default=0)
    else:
        assert rep.answer == "no"
        assert is_maximal_independent(g, rep.witness_small)
        assert len(rep.witness_small) < rep.alpha
        assert all(seen.get(k, 0) >= c for k, c in rep.counts.items())


def blow_up(base, sizes, rng):
    """base with vertex i replaced by sizes[i] pairwise non-adjacent twins,
    the vertices shuffled so that no class is contiguous.  When every class
    has one size, the blow-up is recorded as the graph's twin quotient."""
    owner = [i for i, w in enumerate(sizes) for _ in range(w)]
    rng.shuffle(owner)
    g = UGraph(len(owner), transitive=base.transitive)
    classes = [[] for _ in sizes]
    for x, i in enumerate(owner):
        classes[i].append(x)
        for y, j in enumerate(owner):
            if base.has_edge(i, j):
                g.adj[x] |= 1 << y
    if len(set(sizes)) == 1:
        g.twin_quotient = (base, classes)
    return g


def circulant(n, rng):
    """A Cayley graph of Z(n) on a random symmetric connection set."""
    g = UGraph(n)
    for d in range(1, n // 2 + 1):
        if rng.random() < 0.4:
            for x in range(n):
                g.add_edge(x, (x + d) % n)
    g.transitive = True  # set after the edges, since add_edge clears it
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
        assert h == build_graph(radical_quotient(r)[0]) and h.transitive

    @pytest.mark.parametrize("text", ["Z(6)", "GF(4)", "M(2,GF(2))", "prod(Z(2),Z(3))"])
    def test_semisimple_ring_has_no_twins(self, text):
        assert _twin_quotient(build_graph(make_ring(text))) is None

    @pytest.mark.parametrize("text", ["Z(8)", "Z(12)", "Z(16)", "T(2,GF(2))", "prod(Z(4),Z(3))"])
    def test_add_edge_drops_the_record(self, text):
        # the Cayley edges x ~ x + j for the least nonzero j in J keep the graph
        # transitive but change its twins: add_edge clears both recorded facts,
        # and the searches take the graph as it is
        r = make_ring(text)
        g = build_graph(r)
        j = jacobson_radical(r)[1]
        for x in range(r.order):
            if not g.has_edge(x, r.add(x, j)):
                g.add_edge(x, r.add(x, j))
        assert g.twin_quotient is None and not g.transitive
        check_against_brute_force(g)
        budget = Budget()
        independence_number(g, budget)
        is_well_covered(g, budget)
        assert TWIN_QUOTIENT not in budget.reductions and VERTEX_ZERO not in budget.reductions

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

    def test_alpha_after_a_no_searches_the_quotient(self):
        # Gamma(Z(12)) records its twin quotient Gamma(Z(6)), on which the alpha
        # step after the "no" searches; its dive meets the clique bound at once
        budget = Budget()
        rep = is_well_covered(build_graph(make_ring("Z(12)")), budget)
        assert rep.answer == "no" and rep.alpha == 6 and rep.alpha_exact
        assert budget.reductions == [TWIN_QUOTIENT, VERTEX_ZERO, CLIQUE_BOUND]
        assert budget.nodes == 5

    def test_alpha_after_a_no_on_a_hand_built_blow_up(self):
        # a 2-fold blow-up of Gamma(Z(6)) that records nothing is searched as it
        # is; with its blow-up recorded by hand it is searched on Gamma(Z(6))
        blown = blow_up(build_graph(make_ring("Z(6)")), [2] * 6, random.Random(12))
        g = UGraph(12)
        g.adj = blown.adj
        plain = Budget()
        reports = [is_well_covered(g, plain)]
        assert plain.reductions == []
        g.twin_quotient = blown.twin_quotient
        reduced = Budget()
        reports.append(is_well_covered(g, reduced))
        assert reduced.reductions == [TWIN_QUOTIENT, VERTEX_ZERO, CLIQUE_BOUND]
        for rep in reports:
            assert rep.answer == "no" and rep.alpha == 6 and rep.alpha_exact
            assert is_maximal_independent(g, rep.witness_small)

    @pytest.mark.parametrize("a, b, wc_nodes, alpha_nodes", [("Z(8)", "Z(8)", 3, 1),
                                                             ("Z(9)", "Z(8)", 7, 3)])
    def test_conjunction_product_searches_its_quotient(self, a, b, wc_nodes, alpha_nodes):
        # searched unreduced, the products took 63 and 32 nodes, and 87 and 36
        g = conjunction_product(build_graph(make_ring(a)), build_graph(make_ring(b)))
        budget = Budget()
        rep = is_well_covered(g, budget)
        assert budget.nodes == wc_nodes and budget.reductions[:2] == [TWIN_QUOTIENT, VERTEX_ZERO]
        check_against_enumeration(g, rep)
        budget = Budget()
        assert independence_number(g, budget) == rep.alpha and budget.nodes == alpha_nodes
        assert rep.alpha == brute_force_alpha(g.twin_quotient[0]) * len(g.twin_quotient[1][0])

    @settings(max_examples=150, deadline=None)
    @given(RING_SPECS)
    def test_random_specs_match_the_unreduced_oracles(self, spec):
        g, alpha = check_alpha_oracles(spec)
        try:
            want_alpha = pbound_alpha(g, Budget(max_nodes=100_000))
            want = seed_is_well_covered(g, Budget(max_nodes=20_000))
        except BudgetExceededError:
            assume(False)  # beyond the oracles' budget; the closed form still held
        assert alpha == want_alpha
        rep = is_well_covered(g)
        assert (rep.answer, rep.alpha, rep.counts, rep.witness_small) == \
            (want.answer, want.alpha, want.counts, want.witness_small)


class TestCliqueBound:
    @pytest.mark.parametrize("text", CATALOG + SEARCH_EXTRA)
    def test_catalog_and_search_rings_match_the_oracles(self, text):
        g, alpha = check_alpha_oracles(parse_spec(text))
        budget = Budget()
        rep = is_well_covered(g, budget)
        assert rep.alpha == alpha and rep.alpha_exact and VERTEX_ZERO in budget.reductions
        assert (rep.answer == "yes") == classify_well_covered(text).answer
        check_against_enumeration(g, rep)

    @pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
    def test_matrix_ring_clique_is_a_subfield(self, n, q):
        # F_{q^n} embeds in M_n(F_q), and the greedy clique finds one that size
        g = build_graph(make_ring("M(%d,GF(%d))" % (n, q)))
        assert _greedy_clique(g.adj) == q ** n
        assert independence_number(g) == g.n // q ** n

    def test_search_ends_at_the_bound(self):
        # the dive from vertex 0 finds 64 = 512 // 8 before the first node
        g = build_graph(make_ring("M(3,GF(2))"))
        budget = Budget()
        assert independence_number(g, budget) == 64
        assert budget.nodes == 1 and budget.reductions == [VERTEX_ZERO, CLIQUE_BOUND]
        budget = Budget()
        assert is_well_covered(g, budget).alpha_exact
        assert budget.nodes == 69 and budget.reductions == [VERTEX_ZERO, CLIQUE_BOUND]
        assert alpha_without_target(g) == (64, 335)

    def test_bound_not_noted_when_the_search_ends_there_anyway(self):
        # Gamma(prod(Z(3),Z(2))): clique {0, 3}, target 3; the dive {0, 1} falls
        # short, and the leaf that reaches 3 closes every branch at node 3
        budget = Budget()
        assert independence_number(build_graph(make_ring("prod(Z(3),Z(2))")), budget) == 3
        assert budget.nodes == 3 and budget.reductions == [VERTEX_ZERO]

    @pytest.mark.parametrize("seed", range(8))
    def test_non_transitive_graph_gets_no_target(self, monkeypatch, seed):
        targets = []
        search = indsets._max_extension

        def spy(*args):
            targets.append(args[4])
            return search(*args)

        def no_clique(adj):
            raise AssertionError("greedy clique taken on a non-transitive graph")
        monkeypatch.setattr(indsets, "_max_extension", spy)
        monkeypatch.setattr(indsets, "_greedy_clique", no_clique)
        g = random_graph(12, 0.4, seed + 300)
        budget = Budget()
        assert independence_number(g, budget) == brute_force_alpha(g)
        rep = is_well_covered(g, budget)
        assert rep.alpha == brute_force_alpha(g) and rep.alpha_exact
        assert CLIQUE_BOUND not in budget.reductions and VERTEX_ZERO not in budget.reductions
        assert targets and all(t == math.inf for t in targets)


class TestIncumbent:
    @pytest.mark.parametrize("text", CATALOG + SEARCH_EXTRA + ["M(3,GF(3))"])
    def test_ring_alpha_is_proven_at_the_first_node(self, text):
        # the dive from vertex 0 meets the clique bound before the first node;
        # the bound is noted unless the quotient is complete, where vertex 0
        # leaves no candidates
        g = build_graph(make_ring(text))
        budget = Budget()
        alpha = independence_number(g, budget)
        h, _, w = indsets._reduce(g, Budget())
        assert alpha == w * len(greedy_extend(h, (0,))) == closed_form_alpha(parse_spec(text))
        assert budget.nodes == 1 and (CLIQUE_BOUND in budget.reductions) == (alpha > w)

    def test_search_goes_past_a_short_dive(self):
        short = 0
        for seed in range(30):
            g = random_graph(14, 0.3, seed + 500)
            alpha = brute_force_alpha(g)
            short += len(greedy_extend(g, ())) < alpha
            assert independence_number(g) == alpha
        assert short >= 10

    @pytest.mark.parametrize("text, nodes", [("prod(M(2,GF(3)),M(2,GF(2)))", 324),
                                             ("prod(M(2,GF(2)),T(2,GF(3)))", 975),
                                             ("prod(M(2,GF(3)),Z(6))", 243)])
    def test_branch_and_bound_where_the_dive_falls_short(self, text, nodes):
        # the larger factor comes first, so the lowest-index walk from vertex 0
        # stays short of the clique bound and the cover bound does the work
        g = build_graph(make_ring(text))
        h, _, w = indsets._reduce(g, Budget())
        budget = Budget()
        alpha = independence_number(g, budget)
        assert alpha == closed_form_alpha(parse_spec(text)) > w * len(greedy_extend(h, (0,)))
        assert budget.nodes == nodes

    def test_tripped_best_is_never_below_the_dive(self):
        trips = 0
        for seed in range(20):
            g = random_graph(14, 0.3, seed + 700)
            dive, alpha = len(greedy_extend(g, ())), brute_force_alpha(g)
            for nodes in range(1, 12):
                try:
                    independence_number(g, Budget(max_nodes=nodes))
                except BudgetExceededError as exc:
                    trips += 1
                    assert dive <= exc.best <= alpha
        assert trips >= 50


class TestVertexZero:
    @pytest.mark.parametrize("q, nodes", [(2, 23), (3, 123), (4, 372), (5, 868),
                                          (7, 3113), (8, 5178), (9, 8122)])
    def test_m2fq_has_2_q_plus_1_q_squared_facets(self, q, nodes):
        budget = Budget()
        rep = is_well_covered(build_graph(make_ring("M(2,GF(%d))" % q)), budget)
        assert rep.answer == "yes" and rep.counts == {q * q: 2 * (q + 1) * q * q}
        assert budget.stats() == {"nodes": nodes, "reductions": [VERTEX_ZERO]}

    @pytest.mark.parametrize("text", ["Z(6)", "GF(4)", "M(2,GF(2))", "M(2,GF(3))",
                                      "prod(Z(2),Z(3))", "prod(Z(2),M(2,GF(2)))"])
    def test_rooted_stream_is_the_first_subtree(self, text):
        # every vertex ties for the first pivot, so the unrooted search branches
        # on vertex 0 first: a "no" has the same witness and counts either way
        g = build_graph(make_ring(text))
        rooted, full = Budget(), Budget()
        sets = list(indsets._maximal_sets(g.adj, [0], (1 << g.n) - 2 & ~g.adj[0], rooted))
        stream = list(enumerate_maximal_independent(g, full))
        assert sets == stream[:len(sets)] == [s for s in stream if 0 in s]
        assert rooted.nodes < full.nodes

    @pytest.mark.parametrize("p", [0.2, 0.6])
    @pytest.mark.parametrize("seed", range(4))
    def test_non_transitive_graph_keeps_the_unrooted_stream(self, monkeypatch, p, seed):
        roots = []
        kernel = indsets._maximal_sets

        def spy(adj, root, P, budget):
            roots.append((list(root), P))
            return kernel(adj, root, P, budget)
        monkeypatch.setattr(indsets, "_maximal_sets", spy)
        g = random_graph(10, p, seed + 400)
        budget, enum_budget = Budget(), Budget()
        rep = is_well_covered(g, budget)
        want = seed_is_well_covered(g, enum_budget)
        assert roots == [([], (1 << g.n) - 1)] and VERTEX_ZERO not in budget.reductions
        assert (rep.answer, rep.alpha, rep.counts, rep.witness_small) == \
            (want.answer, want.alpha, want.counts, want.witness_small)
        alpha_budget = Budget()
        if rep.answer == "no":
            independence_number(g, alpha_budget)
        assert budget.nodes == enum_budget.nodes + alpha_budget.nodes

    @pytest.mark.parametrize("text", ["Z(6)", "Z(12)", "M(3,GF(2))", "prod(Z(2),M(2,GF(3)))",
                                      "prod(Z(3),Z(2))", None])
    def test_only_the_enumeration_builds_complement_rows(self, monkeypatch, text):
        # a "no" enumerates once, handing the Bron-Kerbosch kernel, the one
        # reader of complement rows, the searched graph's own adjacency rows;
        # its alpha step, `independence_number`, never runs the kernel
        rows = []
        kernel = indsets._maximal_sets

        def spy(*args):
            rows.append(args[0])
            return kernel(*args)
        monkeypatch.setattr(indsets, "_maximal_sets", spy)
        g = build_graph(make_ring(text)) if text else random_graph(12, 0.3, 41)
        h = g.twin_quotient[0] if g.twin_quotient else g
        rep = is_well_covered(g)
        assert rep.answer == "no" and rep.alpha_exact
        assert independence_number(g) == rep.alpha and len(rows) == 1 and rows[0] is h.adj

    def test_graph_wrongly_marked_transitive_is_refused(self):
        path = UGraph(3)  # 0 - 1 - 2: {0, 2} counted 3 / 2 times
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        path.transitive = True  # set after the edges, since add_edge clears it
        with pytest.raises(ValueError, match="not vertex-transitive"):
            is_well_covered(path)

    def test_add_edge_clears_the_transitive_flag(self):
        # Gamma(Z(2) x Z(2)) is the matching 0 - 3, 1 - 2.  With 0 - 1 and 0 - 2
        # added, vertex 0 has no non-neighbour, but {1, 3} is independent: a
        # search rooted at vertex 0 would find alpha 1 and a "yes" of {1: 4}
        g = build_graph(make_ring("prod(Z(2),Z(2))"))
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert brute_force_alpha(g) == 2
        check_against_brute_force(g)
        assert not g.transitive

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([t for t in CATALOG if 2 <= spec_order(parse_spec(t)) <= 16]),
           st.integers(0, 2 ** 32))
    def test_ring_graphs_with_added_edges_match_brute_force(self, text, seed):
        rng = random.Random(seed)
        g = build_graph(make_ring(text))
        for _ in range(rng.randint(1, 3)):
            g.add_edge(*rng.sample(range(g.n), 2))
        check_against_brute_force(g)


class TestGenericGraphs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_products_of_blow_ups(self, seed):
        # the product records the blow-up of its factors' quotients
        rng = random.Random(seed)
        base = random_graph(rng.randint(1, 4), rng.random(), seed)
        g1 = blow_up(base, [rng.randint(1, 2)] * base.n, rng)
        g2 = random_graph(rng.randint(0, 2), rng.random(), seed + 1)
        if rng.random() < 0.5 and g1.n * g2.n <= 10:  # the oracle takes 20 vertices
            g2 = blow_up(g2, [2] * g2.n, rng)
        for g in (conjunction_product(g1, g2), conjunction_product(g2, g1)):
            check_against_brute_force(g)

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
    def test_limits_must_be_positive(self):
        # NaN compares false with everything: a NaN limit would never trip
        for kwargs in ({"max_nodes": 0}, {"max_nodes": math.nan}, {"max_seconds": -1.0},
                       {"max_seconds": 0.0}, {"max_seconds": math.nan}):
            with pytest.raises(ValueError, match="must be positive"):
                Budget(**kwargs)
        assert Budget(max_nodes=1, max_seconds=1e-9).stats() == {"nodes": 0, "reductions": []}

    def test_no_answer_survives_a_tripped_alpha_step(self):
        # the "no" comes at node 68 and the alpha step is node 69
        g = build_graph(make_ring("M(3,GF(2))"))
        budget = Budget(max_nodes=68)
        rep = is_well_covered(g, budget)
        assert rep.answer == "no" and not rep.alpha_exact
        assert is_maximal_independent(g, rep.witness_small)
        assert len(rep.witness_small) < rep.alpha <= 64
        assert budget.nodes == 69  # the caller's budget, not a fresh one
        assert rep.to_json()["alpha_exact"] is False

    def test_tripped_alpha_carries_its_best_size(self):
        # not transitive, so no target: the dive finds 5, alpha is 8 (9 nodes)
        g = random_graph(14, 0.3, 2)
        for nodes in range(1, 9):
            with pytest.raises(BudgetExceededError) as info:
                independence_number(g, Budget(max_nodes=nodes))
            assert 5 <= info.value.best <= 8

    def test_tripped_alpha_best_is_scaled_by_the_class_size(self):
        base = random_graph(14, 0.3, 2)
        g = blow_up(base, [3] * 14, random.Random(2))
        for nodes in range(1, 9):
            with pytest.raises(BudgetExceededError) as inner:
                independence_number(base, Budget(max_nodes=nodes))
            with pytest.raises(BudgetExceededError) as info:
                independence_number(g, Budget(max_nodes=nodes))
            assert info.value.best == 3 * inner.value.best
