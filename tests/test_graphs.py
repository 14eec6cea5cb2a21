import random

import pytest
from hypothesis import given, settings

from conftest import RING_SPECS, elementwise_graph, elementwise_row
from ucayley.graphs import (UGraph, build_graph, conjunction_product,
                            export_dot, graph_json)
from ucayley.rings import CapExceededError, jacobson_radical, make_ring, quotient_ring


def k(n):
    g = UGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


class TestBuildGraph:
    def test_z4_is_k22(self):
        g = build_graph(make_ring("Z(4)"))
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_gf3_is_complete(self):
        g = build_graph(make_ring("GF(3)"))
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_z6_is_cycle(self):
        g = build_graph(make_ring("Z(6)"))
        assert g.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_graph(make_ring("M(2,GF(3))"), cap=64)

    @pytest.mark.parametrize("text", ["Z(8)", "GF(4)", "T(2,GF(2))",
                                      "M(2,GF(2))", "prod(Z(2),Z(3))"])
    def test_unit_regular(self, text):
        r = make_ring(text)
        g = build_graph(r)
        units = r.unit_count()
        assert all(g.degree(v) == units for v in range(g.n))

    @pytest.mark.parametrize("text", ["Z(9)", "M(2,GF(2))", "T(2,GF(3))"])
    def test_translation_automorphism_sampled(self, text):
        r = make_ring(text)
        g = build_graph(r)
        rng = random.Random(5)
        edges = g.edges()
        for _ in range(20):
            c = rng.randrange(r.order)
            u, v = rng.choice(edges)
            assert g.has_edge(r.add(u, c), r.add(v, c))

    def test_symmetric_irreflexive(self):
        g = build_graph(make_ring("M(2,GF(2))"))
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
            for u in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_zero_ring_single_vertex(self):
        g = build_graph(make_ring("Z(1)"))
        assert g.n == 1 and g.edges() == []


class TestTranslationBuild:
    @pytest.mark.parametrize("text", [
        "Z(1)", "Z(2)", "Z(12)", "GF(2)", "GF(8)", "GF(9)", "M(1,Z(6))", "M(2,Z(4))",
        "M(2,GF(3))", "T(1,GF(4))", "T(3,GF(2))", "T(2,GF(4))", "prod(Z(2),Z(3))",
        "prod(Z(1),Z(2))", "prod(Z(2),M(2,GF(2)))", "prod(GF(4),Z(4),Z(1))",
        "M(2,prod(Z(2),Z(2)))", "M(2,Z(1))"])
    def test_matches_elementwise_oracle(self, text):
        r = make_ring(text)
        assert build_graph(r) == elementwise_graph(r)

    def test_nested_product_base_sampled_rows(self):
        # order 4096: the full element-wise oracle would take seconds
        r = make_ring("M(2,prod(Z(2),GF(4)))")
        g = build_graph(r)
        units = r.units()
        rng = random.Random(17)
        for x in [0, r.order - 1] + [rng.randrange(r.order) for _ in range(30)]:
            assert g.adj[x] == elementwise_row(r, units, x)

    def test_table_ring_is_built_elementwise(self):
        r = make_ring("T(2,GF(3))")
        q = quotient_ring(r, jacobson_radical(r))
        assert q.radices is None
        assert build_graph(q) == elementwise_graph(q)

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_random_specs_match_elementwise_oracle(self, spec):
        r = make_ring(spec)
        assert build_graph(r) == elementwise_graph(r)


class TestTransitiveFlag:
    def test_ring_graphs_are_transitive(self):
        r = make_ring("T(2,GF(3))")
        assert build_graph(r).transitive
        assert build_graph(quotient_ring(r, jacobson_radical(r))).transitive
        assert not UGraph(3).transitive

    def test_conjunction_product_needs_both_factors_transitive(self):
        g = build_graph(make_ring("Z(3)"))
        assert conjunction_product(g, g).transitive
        assert not conjunction_product(g, k(2)).transitive


class TestConjunctionProduct:
    def test_k2_k2_is_two_edges(self):
        g = conjunction_product(k(2), k(2))
        assert g.edges() == [(0, 3), (1, 2)]

    def test_edgeless_factor_kills_edges(self):
        g = conjunction_product(k(3), UGraph(2))
        assert g.edges() == []

    @pytest.mark.parametrize("a,b", [("Z(2)", "Z(3)"), ("Z(2)", "M(2,GF(2))")])
    def test_matches_product_ring_graph(self, a, b):
        g_prod = build_graph(make_ring("prod(%s,%s)" % (a, b)))
        g_conj = conjunction_product(build_graph(make_ring(a)), build_graph(make_ring(b)))
        assert g_prod.adj == g_conj.adj

    def test_crt_relabeling_z6(self):
        # x -> (x mod 2, x mod 3) carries the 6-cycle onto the product graph
        g6 = build_graph(make_ring("Z(6)"))
        gp = build_graph(make_ring("prod(Z(2),Z(3))"))
        phi = [(x % 2) * 3 + (x % 3) for x in range(6)]
        for u, v in g6.edges():
            assert gp.has_edge(phi[u], phi[v])
        assert g6.edge_count() == gp.edge_count()


class TestExport:
    def test_dot_k2(self):
        assert export_dot(k(2)) == "graph G {\n  0;\n  1;\n  0 -- 1;\n}\n"

    def test_dot_edgeless(self):
        text = export_dot(UGraph(3))
        assert text.count(";") == 3 and "--" not in text

    def test_dot_z4(self):
        text = export_dot(build_graph(make_ring("Z(4)")))
        assert text.count("--") == 4
        assert '0 [label="0"]' in text

    @pytest.mark.parametrize("a,b", [("Z(6)", None), ("M(2,GF(2))", None),
                                     ("Z(3)", "M(2,GF(2))")])
    def test_dot_with_lazy_labels_matches_eager_labels(self, a, b):
        ra = make_ring(a)
        g = build_graph(ra)
        eager = UGraph(g.n, labels=[ra.element_repr(x) for x in range(ra.order)])
        if b is not None:
            rb = make_ring(b)
            g = conjunction_product(g, build_graph(rb))
            eager = UGraph(g.n, labels=["(%s|%s)" % (ra.element_repr(x), rb.element_repr(y))
                                        for x in range(ra.order) for y in range(rb.order)])
        eager.adj = g.adj
        assert callable(g.labels)
        assert export_dot(g) == export_dot(eager)

    def test_json(self):
        assert graph_json(build_graph(make_ring("Z(4)"))) == {
            "N": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
