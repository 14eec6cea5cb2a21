import math

import pytest

from conftest import recursive_find_shelling
from ucayley.complexes import (Complex, SHELLING_FOUND, SHELLING_NONE,
                               SHELLING_UNKNOWN, codim1_connected,
                               export_stanley_reisner, find_shelling,
                               from_face_list, independence_complex, is_pure,
                               is_shelling_order, minimal_nonfaces,
                               pure_skeleton)
from ucayley.graphs import UGraph, build_graph
from ucayley.indsets import Budget
from ucayley.rings import make_ring
from ucayley.verify import CATALOG


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

    def test_from_face_list_prunes(self):
        c = from_face_list(4, [(0,), (0, 1), (2,), (1,)])
        assert c.facets == ((2,), (0, 1))


class TestIndependenceComplex:
    def test_k2(self):
        assert independence_complex(k2()).facets == ((0,), (1,))

    def test_z4(self):
        c = independence_complex(build_graph(make_ring("Z(4)")))
        assert c.facets == ((0, 2), (1, 3))

    def test_z6_five_facets(self):
        c = independence_complex(build_graph(make_ring("Z(6)")))
        assert len(c.facets) == 5
        assert sorted(len(f) - 1 for f in c.facets) == [1, 1, 1, 2, 2]


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

    def test_complex_minimal_nonfaces_are_edges(self):
        g = build_graph(make_ring("Z(6)"))
        c = independence_complex(g)
        assert minimal_nonfaces(c) == [tuple(e) for e in g.edges()]

    def test_missing_vertex_is_a_nonface(self):
        c = Complex(3, [(0, 1)])  # vertex 2 not in the complex
        assert (2,) in minimal_nonfaces(c)
