import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (RING_SPECS, antichain_error, brute_force_maximal_independent,
                      recursive_find_shelling, set_attaches, set_codim1_components)
from test_indsets import blow_up, random_graph
from ucayley.complexes import (Complex, SHELLING_FOUND, SHELLING_NONE,
                               SHELLING_UNKNOWN, _attaches, codim1_connected,
                               find_shelling, independence_complex, is_pure,
                               is_shelling_order, pure_skeleton)
from ucayley.graphs import UGraph, build_graph, conjunction_product, export_stanley_reisner
from ucayley.indsets import (TWIN_QUOTIENT, VERTEX_ZERO, Budget, BudgetExceededError,
                             _maximal_sets, _reduce, _start, enumerate_maximal_independent,
                             is_well_covered)
from ucayley.rings import make_ring, radical_quotient
from ucayley.verify import CATALOG

SRC = Path(__file__).resolve().parents[1] / "src"

# facet lists on vertices 0..6, with repeated and empty facets
FACET_LISTS = st.lists(st.lists(st.integers(0, 6), max_size=5, unique=True), max_size=8)


def from_face_list(n, faces):
    """The complex whose facets are the maximal faces of an arbitrary face list."""
    faces = sorted({tuple(sorted(f)) for f in faces}, key=len, reverse=True)
    facets = []
    for f in faces:
        if not any(set(f) <= set(g) for g in facets):
            facets.append(f)
    return Complex(n, facets)


def assert_minimal_nonfaces_are_edges(g, c):
    # every vertex is a face of c = ind(g), and a pair is a face exactly when
    # it is not an edge: so the minimal non-faces of ind(g) are the edges of g,
    # and its Stanley-Reisner ideal is the edge ideal
    assert all(c.cols[v] for v in range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert bool(c.cols[u] & c.cols[v]) == (not g.has_edge(u, v)), (u, v)


def k2():
    g = UGraph(2)
    g.add_edge(0, 1)
    return g


class TestComplexType:
    def test_canonical_facet_order(self):
        c = Complex(6, [(1, 3, 5), (0, 3), (0, 2, 4)])
        assert c.facets == ((0, 3), (0, 2, 4), (1, 3, 5))

    def test_rejects_nested_facets(self):
        with pytest.raises(ValueError, match="antichain"):
            Complex(4, [(0, 1), (0, 1, 2)])

    def test_masks_and_columns(self):
        c = Complex(5, [(1, 3), (0, 1, 4)])
        assert c.facets == ((1, 3), (0, 1, 4))
        assert c.masks == (0b01010, 0b10011)
        assert c.cols == (0b10, 0b11, 0b00, 0b01, 0b10)

    def test_nested_pair_is_named_as_before(self):
        # the first nested pair in facet order: (0, 1) in (0, 1, 2)
        with pytest.raises(ValueError) as info:
            Complex(5, [(3, 4), (0, 1), (2, 3, 4), (0, 1, 2)])
        assert str(info.value) == "facet list is not an antichain: (0, 1), (0, 1, 2)"

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError, match="facet vertex -1 out of range"):
            Complex(3, [(-1, 0)])
        with pytest.raises(ValueError, match=r"facet \(0, 2, 2\) repeats a vertex"):
            Complex(3, [(0, 2, 2)])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(5, 7), FACET_LISTS)
    def test_accepts_and_rejects_as_the_pairwise_check(self, n, facets):
        # on n < 7 vertices some facets hold a vertex out of range
        want = antichain_error(n, facets)
        if want is None:
            assert Complex(n, facets).facets == tuple(sorted(
                {tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f)))
        else:
            with pytest.raises(ValueError) as info:
                Complex(n, facets)
            assert str(info.value) == want


class TestIndependenceComplex:
    def test_k2(self):
        assert independence_complex(k2()).facets == ((0,), (1,))

    @pytest.mark.parametrize("transitive", [False, True])
    def test_empty_graph_is_the_empty_simplex(self, transitive):
        g = UGraph(0, group=() if transitive else None)
        c = independence_complex(g)
        assert c.facets == tuple(brute_force_maximal_independent(g)) == ((),)
        assert c.dim == -1
        assert find_shelling(c).detail == "at most one facet"

    def test_z4(self):
        c = independence_complex(build_graph(make_ring("Z(4)")))
        assert c.facets == ((0, 2), (1, 3))

    def test_z6_five_facets(self):
        c = independence_complex(build_graph(make_ring("Z(6)")))
        assert len(c.facets) == 5
        assert sorted(len(f) - 1 for f in c.facets) == [1, 1, 1, 2, 2]

    def test_quotient_recorded_and_lifted(self):
        # Gamma(M(2,Z(4))) is the 16-fold blow-up of Gamma(M(2,GF(2)))
        g = build_graph(make_ring("M(2,Z(4))"))
        budget = Budget()
        c = independence_complex(g, budget)
        assert budget.reductions == [TWIN_QUOTIENT, VERTEX_ZERO]
        assert budget.nodes < 200  # the full graph's enumeration takes 2,494
        assert c == Complex(g.n, enumerate_maximal_independent(g))

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_random_specs_match_the_full_enumeration(self, spec):
        g = build_graph(make_ring(spec))
        try:
            want = Complex(g.n, enumerate_maximal_independent(g, Budget(max_nodes=20_000)))
        except BudgetExceededError:
            assume(False)  # beyond the oracle's budget
        assert independence_complex(g) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_blow_ups_match_the_full_enumeration(self, seed):
        # classes of one size (the quotient applies) and of unequal sizes (it does not)
        rng = random.Random(seed)
        base = random_graph(rng.randint(1, 6), rng.random(), seed)
        sizes = [rng.randint(1, 3) for _ in range(base.n)]
        if rng.random() < 0.5:
            sizes = [rng.randint(1, 14 // base.n)] * base.n
        g = blow_up(base, sizes, rng)
        assert independence_complex(g) == Complex(g.n, enumerate_maximal_independent(g))

    @pytest.mark.parametrize("text", ["prod(Z(5),Z(5),Z(5))", "T(3,GF(3))"])
    def test_complex_and_shelling_within_a_second(self, text):
        # the two slowest rings of the benchmark's enumerate workload; both
        # complexes are impure, so the shelling search runs on the top skeleton
        g = build_graph(make_ring(text))
        start = time.monotonic()
        c = independence_complex(g)
        top = c if is_pure(c) else pure_skeleton(c, c.dim)
        assert find_shelling(top).status == SHELLING_NONE
        assert time.monotonic() - start < 1.0


def full_complex(g, max_nodes=None):
    """The oracle: ind(g) from the whole graph's enumeration, no reduction taken."""
    return Complex(g.n, enumerate_maximal_independent(g, Budget(max_nodes=max_nodes)))


def translation_orbits(ring, facets):
    """The number of orbits of the facets under x -> x + a, by the ring's own addition."""
    return len({min(tuple(sorted(ring.add(x, a) for x in f)) for a in range(ring.order))
                for f in facets})


class TestTranslationOrbits:
    """ind of a graph that records its group, from the sets through vertex 0
    and their translates, against the whole graph's enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS, RING_SPECS)
    def test_conjunction_products(self, a, b):
        g1, g2 = build_graph(make_ring(a)), build_graph(make_ring(b))
        assume(g1.n * g2.n <= 300)
        g = conjunction_product(g1, g2)
        try:
            want = full_complex(g, 20_000)
        except BudgetExceededError:
            assume(False)  # beyond the oracle's budget
        budget = Budget()
        assert independence_complex(g, budget) == want
        assert VERTEX_ZERO in budget.reductions

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS, st.integers(0, 2 ** 32))
    def test_ring_graph_with_an_added_edge(self, spec, seed):
        # the edge clears the group: the whole graph is enumerated
        g = build_graph(make_ring(spec))
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        assume(missing)
        g.add_edge(*random.Random(seed).choice(missing))
        try:
            want = full_complex(g, 20_000)
        except BudgetExceededError:
            assume(False)
        budget = Budget()
        assert independence_complex(g, budget) == want and budget.reductions == []

    @pytest.mark.parametrize("text", ["M(2,GF(3))", "prod(Z(5),Z(5),Z(5))", "M(2,Z(4))",
                                      "prod(Z(2),Z(2),Z(2),Z(2))", "Z(30)", "T(3,GF(3))"])
    def test_specs_of_the_benchmark(self, text):
        g = build_graph(make_ring(text))
        assert independence_complex(g) == full_complex(g)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_matrix_rings_by_both_vertex_0_routes(self, q):
        # ind(Gamma(M_2(F_q))) has 2(q+1)q^2 facets of size q^2; the
        # well-covered search counts them by double counting instead
        g = build_graph(make_ring("M(2,GF(%d))" % q))
        c = independence_complex(g)
        assert len(c.facets) == 2 * (q + 1) * q * q
        assert {len(f) for f in c.facets} == {q * q}
        assert is_well_covered(g).counts == {q * q: len(c.facets)}

    @pytest.mark.parametrize("text", ["M(2,GF(3))", "prod(Z(2),Z(2),Z(2))", "M(2,Z(4))", "Z(6)"])
    def test_one_tick_per_orbit_translated(self, text):
        # the nodes are the Bron-Kerbosch nodes through vertex 0 on the
        # quotient, plus one per orbit of its facets; a budget one short
        # trips, and a budget of the Bron-Kerbosch nodes alone trips in the
        # translation
        r = make_ring(text)
        g = build_graph(r)
        h, _, _ = _reduce(g, Budget())
        q = r if h is g else radical_quotient(r)[0]
        kernel = Budget()
        sets = list(_maximal_sets(h.adj, *_start(h, kernel), kernel))
        facets = full_complex(h).facets
        orbits = translation_orbits(q, facets)
        assert 1 <= orbits <= len(sets) <= len(facets)
        budget = Budget()
        c = independence_complex(g, budget)
        assert budget.nodes == kernel.nodes + orbits and c == full_complex(g)
        for nodes in (kernel.nodes, kernel.nodes + orbits - 1):
            with pytest.raises(BudgetExceededError):
                independence_complex(g, Budget(max_nodes=nodes))
        assert independence_complex(g, Budget(max_nodes=budget.nodes)) == c


class TestPurity:
    def test_pure(self):
        assert is_pure(Complex(4, [(0, 2), (1, 3)]))

    def test_impure_z6(self):
        assert not is_pure(independence_complex(build_graph(make_ring("Z(6)"))))

    def test_single_facet(self):
        assert is_pure(Complex(3, [(0, 1, 2)]))

    def test_matches_well_coveredness(self):
        from ucayley.indsets import is_well_covered
        for text in ("Z(4)", "Z(6)", "M(2,GF(2))", "prod(Z(2),Z(3))"):
            g = build_graph(make_ring(text))
            assert is_pure(independence_complex(g)) == \
                (is_well_covered(g).answer == "yes")


class TestPureSkeleton:
    def test_z6_top(self):
        c = independence_complex(build_graph(make_ring("Z(6)")))
        top = pure_skeleton(c, 2)
        assert top.facets == ((0, 2, 4), (1, 3, 5))

    def test_z6_dim1(self):
        c = independence_complex(build_graph(make_ring("Z(6)")))
        assert len(pure_skeleton(c, 1).facets) == 9

    def test_idempotent_on_pure(self):
        c = independence_complex(build_graph(make_ring("Z(4)")))
        assert pure_skeleton(c, c.dim) == c

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pure_skeleton(Complex(3, [(0, 1)]), 5)


class TestCodim1:
    def test_connected_pair(self):
        ok, comps = codim1_connected(Complex(4, [(1, 2), (2, 3)]))
        assert ok and comps == [[0, 1]]

    def test_disconnected_pair(self):
        ok, comps = codim1_connected(Complex(5, [(1, 2), (3, 4)]))
        assert not ok and len(comps) == 2

    def test_rejects_impure(self):
        with pytest.raises(ValueError, match="pure"):
            codim1_connected(Complex(4, [(0,), (1, 2)]))

    def test_m2f2_top_skeleton_disconnected(self):
        c = independence_complex(build_graph(make_ring("M(2,GF(2))")))
        ok, _ = codim1_connected(pure_skeleton(c, c.dim))
        assert not ok

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.lists(st.lists(st.integers(0, 7), min_size=7, max_size=7),
                                       max_size=12))
    def test_components_match_the_pairwise_check(self, size, rows):
        # a pure complex: distinct sets of `size` vertices out of 8
        facets = {tuple(sorted(set(row[:size]))) for row in rows}
        facets = [f for f in facets if len(f) == size]
        c = Complex(8, facets)
        ok, comps = codim1_connected(c)
        assert comps == set_codim1_components(c.facets) and ok == (len(comps) <= 1)

    def test_z4_disconnected(self):
        c = independence_complex(build_graph(make_ring("Z(4)")))
        ok, _ = codim1_connected(pure_skeleton(c, c.dim))
        assert not ok


class TestShelling:
    def test_two_isolated_vertices(self):
        res = find_shelling(independence_complex(k2()))
        assert res.status == SHELLING_FOUND and res.order == (0, 1)

    def test_z2_squared(self):
        c = independence_complex(build_graph(make_ring("prod(Z(2),Z(2))")))
        res = find_shelling(c)
        assert res.status == SHELLING_FOUND
        assert is_shelling_order(c, res.order)

    def test_z2_cubed(self):
        c = independence_complex(build_graph(make_ring("prod(Z(2),Z(2),Z(2))")))
        res = find_shelling(c)
        assert res.status == SHELLING_FOUND
        assert is_shelling_order(c, res.order)

    def test_m2f2_none_exists(self):
        c = independence_complex(build_graph(make_ring("M(2,GF(2))")))
        res = find_shelling(c)
        assert res.status == SHELLING_NONE
        assert "codimension 1" in res.detail

    def test_disjoint_triangles_none_exists(self):
        res = find_shelling(Complex(6, [(0, 1, 2), (3, 4, 5)]))
        assert res.status == SHELLING_NONE

    def test_budget_inconclusive(self):
        c = independence_complex(build_graph(make_ring("prod(Z(2),Z(2),Z(2))")))
        res = find_shelling(c, Budget(max_nodes=2))
        assert res.status == SHELLING_UNKNOWN

    def test_deep_path_needs_no_recursion(self):
        # 1101 facets in a chain: one recursive call per facet overflowed the stack
        c = Complex(1102, [(i, i + 1) for i in range(1101)])
        budget = Budget()
        res = find_shelling(c, budget)
        assert res.status == SHELLING_FOUND and res.order == tuple(range(1101))
        assert budget.nodes == 1102

    @pytest.mark.parametrize("text", CATALOG)
    def test_matches_recursive_oracle(self, text):
        # the ring's complex if pure, and its pure skeletons small enough for the
        # oracle's recursion, under a budget that trips and one that lets the
        # search end: the 2-skeleton of ind(T(2,GF(2))) has no shelling, which
        # takes 31,185 nodes and dead-prefix memo hits to prove
        c = independence_complex(build_graph(make_ring(text)))
        cases = [c] if is_pure(c) else []
        cases += [pure_skeleton(c, d) for d in range(1, c.dim + 1)
                  if math.comb(c.dim + 1, d + 1) * len(c.facets) <= 60]
        for s in cases:
            for nodes in (20, 40000):
                got, want = Budget(max_nodes=nodes), Budget(max_nodes=nodes)
                assert find_shelling(s, got) == recursive_find_shelling(s, want)
                assert got.nodes == want.nodes

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 6), min_size=2, max_size=4), min_size=2,
                    max_size=10), st.integers(0, 2 ** 10 - 1), st.integers(0, 9))
    def test_attaches_matches_the_set_version(self, faces, prior, i):
        c = from_face_list(7, faces)  # the maximal faces: an antichain
        i %= len(c.facets)
        prior &= (1 << len(c.facets)) - 1 & ~(1 << i)
        want = set_attaches(c.facets[i], [c.facets[j] for j in range(len(c.facets))
                                          if prior >> j & 1])
        assert _attaches(c.masks[i], prior, c.cols) == want

    def test_final_check_survives_optimisation(self):
        # under python -O an assert would vanish: a replay that fails must still raise
        code = (
            "import sys, ucayley.complexes as cx\n"
            "if __debug__: sys.exit('asserts are on')\n"
            "c = cx.Complex(4, [(0, 1), (1, 2), (2, 3)])\n"
            "print(cx.find_shelling(c).status)\n"
            "cx.is_shelling_order = lambda c, order: False\n"
            "try:\n"
            "    cx.find_shelling(c)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, timeout=60, check=True).stdout
        assert out.splitlines() == [
            "shelling", "raised: the search returned an order that is not a shelling"]

    def test_replay_rejects_bad_order(self):
        # a path of three edges: starting in the middle is fine, but a
        # disconnected prefix 0,2 fails the attachment condition
        c = Complex(4, [(0, 1), (1, 2), (2, 3)])
        assert is_shelling_order(c, (0, 1, 2))
        assert not is_shelling_order(c, (0, 2, 1))


class TestStanleyReisner:
    def test_k2_edge_ideal(self):
        out = export_stanley_reisner(k2())
        assert out.splitlines()[1:] == ["x_0*x_1"]

    def test_edgeless_zero_ideal(self):
        out = export_stanley_reisner(UGraph(3))
        assert len(out.splitlines()) == 1  # header only

    def test_z4_four_generators(self):
        out = export_stanley_reisner(build_graph(make_ring("Z(4)")))
        assert len(out.splitlines()) == 5

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_minimal_nonfaces_of_ind_are_the_edges_on_random_specs(self, spec):
        g = build_graph(make_ring(spec))
        try:
            c = independence_complex(g, Budget(max_nodes=20_000))
        except BudgetExceededError:
            assume(False)
        assert_minimal_nonfaces_are_edges(g, c)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_minimal_nonfaces_of_ind_are_the_edges_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 12), rng.random(), seed)
        assert_minimal_nonfaces_are_edges(g, independence_complex(g))
