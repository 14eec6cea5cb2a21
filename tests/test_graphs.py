import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ENUMERATE_RINGS, RING_SPECS, SEARCH_EXTRA, _twin_quotient,
                      bitwise_conjunction_adj, bitwise_edges, difference_rows,
                      elementwise_graph, elementwise_row, tuple_dot, tuple_edge_ideal,
                      tuple_json)
from ucayley import graphs, rings
from ucayley.cli import main
from ucayley.graphs import (UGraph, _translates, build_graph, conjunction_product, export_dot,
                            export_stanley_reisner, graph_json)
from ucayley.rings import CapExceededError, make_ring, radical_quotient
from ucayley.verify import CATALOG

# the benchmark's recorded sha256 digests of the seed program's graphs; only read here
GOLDEN_GRAPHS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                           .read_text(encoding="utf-8"))["graphs"]


def k(n):
    g = UGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


@st.composite
def simple_graphs(draw, max_n=80):
    """Symmetric loop-free graphs: empty, complete or random, with no labels,
    a label list or a label function."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["empty", "complete", "random"]))
    if kind == "complete":
        g = k(n)
    else:
        g = UGraph(n)
        if kind == "random":
            rng = random.Random(draw(st.integers(0, 2 ** 32)))
            density = draw(st.floats(0, 1))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < density:
                        g.add_edge(u, v)
    g.labels = draw(st.sampled_from([None, ["v%d" % v for v in range(n)], "(%d)".__mod__]))
    return g


def assert_text_formats_match_oracles(g):
    assert g.edges() == bitwise_edges(g)
    assert graph_json(g) == json.dumps(tuple_json(g), sort_keys=True)
    assert export_dot(g) == tuple_dot(g)
    assert export_stanley_reisner(g) == tuple_edge_ideal(g)


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
        units = len(r.units())
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

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_random_specs_match_elementwise_oracle(self, spec):
        r = make_ring(spec)
        assert build_graph(r) == elementwise_graph(r)


def graph_digest(g):
    """The sha256 of g's rows in the layout of the benchmark's `graph_digest`."""
    h = hashlib.sha256(g.n.to_bytes(4, "little"))
    width = (g.n + 7) // 8
    for row in g.adj:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


def walk_rows(ring):
    """Oracle for rings past 256 elements: the translates of R's own unit
    mask, with no quotient taken."""
    if ring.order == 1:
        return [0]
    return _translates(ring.radices, ring.radices, sum(1 << u for u in ring.units()))


def check_record_and_rows(ring):
    """Gamma(R)'s recorded twin quotient against hashing its rows, and its rows
    against R's own units."""
    g = build_graph(ring)
    want = _twin_quotient(g)
    if want is None:
        assert g.twin_quotient is None
    else:
        h, classes = g.twin_quotient
        assert (h, classes) == want
        assert h.transitive and h.twin_quotient is None and _twin_quotient(h) is None
    assert g.adj == (difference_rows(ring) if ring.order <= 256 else walk_rows(ring))


class TestTwinQuotientRecord:
    @pytest.mark.parametrize("text", list(dict.fromkeys(CATALOG + SEARCH_EXTRA + ENUMERATE_RINGS)))
    def test_catalog_and_benchmark_rings(self, text):
        check_record_and_rows(make_ring(text))

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS)
    def test_random_specs(self, spec):
        check_record_and_rows(make_ring(spec))

    def test_no_quotient_when_the_radical_is_zero(self, monkeypatch):
        # a zero ring of 2^20 radix-1 digits would build a second ring and map as large
        def refuse(*args):
            raise AssertionError("a quotient was built for a ring with J = 0")
        monkeypatch.setattr(graphs, "radical_quotient", refuse)
        monkeypatch.setattr(rings, "digit_map", refuse)
        for text, degree in (("M(3,GF(2))", 168), ("prod(Z(5),Z(5),Z(5))", 64),
                             ("M(40,Z(1))", 0)):
            g = build_graph(make_ring(text))
            assert g.twin_quotient is None and g.degree(0) == degree

    @pytest.mark.parametrize("text", sorted(GOLDEN_GRAPHS))
    def test_rows_match_the_recorded_digests(self, text):
        assert graph_digest(build_graph(make_ring(text))) == GOLDEN_GRAPHS[text]


class TestTransitiveFlag:
    # `transitive` reads the group record
    def test_ring_graphs_are_transitive(self):
        r = make_ring("T(2,GF(3))")
        assert build_graph(r).transitive
        assert build_graph(radical_quotient(r)[0]).transitive
        assert not UGraph(3).transitive

    def test_conjunction_product_needs_both_factors_transitive(self):
        g = build_graph(make_ring("Z(3)"))
        assert conjunction_product(g, g).transitive
        assert not conjunction_product(g, k(2)).transitive
        assert conjunction_product(k(2), g).group is None


def check_group(g, add, rng, samples=5):
    """For sampled x and a, row x translated by a through g's recorded group
    is row add(x, a): digit-wise addition is the oracle's own."""
    assert g.transitive
    picks = range(g.n)
    for x in rng.sample(picks, min(samples, g.n)):
        rows = _translates(g.group, g.group, g.adj[x])
        for a in rng.sample(picks, min(samples, g.n)):
            assert rows[a] == g.adj[add(x, a)]


def ring_and_quotient(r):
    """(R, the ring its graph's twin quotient is built on: R/J, or R when J = 0)."""
    return r, (radical_quotient(r)[0] if r.radical_steps != r.radices else r)


def check_ring_group(r, rng):
    g = build_graph(r)
    assert g.group == r.radices
    check_group(g, r.add, rng)
    if g.twin_quotient is not None:
        q = ring_and_quotient(r)[1]
        assert g.twin_quotient[0].group == q.radices
        check_group(g.twin_quotient[0], q.add, rng)


class TestGroupRecord:
    @pytest.mark.parametrize("text", ["M(2,GF(3))", "prod(Z(5),Z(5))", "GF(8)", "Z(30)",
                                      "Z(12)", "M(2,Z(4))", "T(3,GF(2))", "prod(Z(4),GF(3))"])
    def test_ring_graphs_and_their_quotients(self, text):
        # J = 0 for the first four, J != 0 (a twin quotient recorded) for the rest
        r = make_ring(text)
        assert (build_graph(r).twin_quotient is None) == (r.radical_steps == r.radices)
        check_ring_group(r, random.Random(text))

    @settings(max_examples=60, deadline=None)
    @given(RING_SPECS, st.integers(0, 2 ** 32))
    def test_random_specs(self, spec, seed):
        check_ring_group(make_ring(spec), random.Random(seed))

    @pytest.mark.parametrize("a,b", [("Z(3)", "Z(4)"), ("Z(8)", "M(2,GF(2))"),
                                     ("T(2,GF(2))", "Z(9)"), ("GF(4)", "Z(5)")])
    def test_conjunction_products_and_their_quotients(self, a, b):
        rng = random.Random(a + b)
        (r1, q1), (r2, q2) = ring_and_quotient(make_ring(a)), ring_and_quotient(make_ring(b))
        g1, g2 = build_graph(r1), build_graph(r2)
        g = conjunction_product(g1, g2)
        assert g.group == r1.radices + r2.radices

        def pair_add(s1, s2):
            return lambda x, y: s1.add(x // s2.order, y // s2.order) * s2.order + s2.add(
                x % s2.order, y % s2.order)
        check_group(g, pair_add(r1, r2), rng)
        if g.twin_quotient is not None:
            assert g.twin_quotient[0].group == q1.radices + q2.radices
            check_group(g.twin_quotient[0], pair_add(q1, q2), rng)

    def test_add_edge_clears_the_record(self):
        g = build_graph(make_ring("Z(4)"))  # 0 and 2 differ by 2, a non-unit
        assert g.group == (4,)
        g.add_edge(0, 2)
        assert g.group is None and not g.transitive and g.twin_quotient is None

    def test_transitive_is_read_only(self):
        with pytest.raises(AttributeError):
            UGraph(2).transitive = True


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

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(max_n=12), simple_graphs(max_n=12))
    def test_random_graphs_match_bitwise_oracle(self, g1, g2):
        assert conjunction_product(g1, g2).adj == bitwise_conjunction_adj(g1, g2)

    @pytest.mark.parametrize("a,b", [("Z(8)", "Z(8)"), ("Z(9)", "Z(8)"), ("Z(2)", "Z(8)"),
                                     ("Z(4)", "M(2,GF(2))"), ("T(2,GF(2))", "Z(9)"),
                                     ("Z(2)", "Z(3)")])
    def test_records_the_product_of_the_twin_quotients(self, a, b):
        g = conjunction_product(build_graph(make_ring(a)), build_graph(make_ring(b)))
        want = _twin_quotient(g)
        assert g.twin_quotient == want  # None for Z(2) x Z(3): no factor records one
        assert want == build_graph(make_ring("prod(%s,%s)" % (a, b))).twin_quotient
        if want is not None:
            h = g.twin_quotient[0]
            assert h.transitive and h.twin_quotient is None

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["Z(4)", "Z(8)", "Z(9)", "T(2,GF(2))", "prod(Z(2),Z(4))"]),
           simple_graphs(max_n=6))
    def test_record_holds_with_an_unrecorded_factor(self, text, g2):
        g1 = build_graph(make_ring(text))
        for g in (conjunction_product(g1, g2), conjunction_product(g2, g1)):
            if g.n == 0:
                assert g.twin_quotient is None
                continue
            h, classes = g.twin_quotient
            assert h.twin_quotient is None and h.n == g1.twin_quotient[0].n * g2.n
            assert sorted(v for c in classes for v in c) == list(range(g.n))
            assert {len(c) for c in classes} == {len(g1.twin_quotient[1][0])}
            for i, c in enumerate(classes):
                row = sum(1 << y for j in range(h.n) if h.has_edge(i, j) for y in classes[j])
                assert c == sorted(c) and all(g.adj[x] == row for x in c)

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
        assert graph_json(build_graph(make_ring("Z(4)"))) == (
            '{"N": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}')


class TestTextFormatsMatchOracles:
    """edges(), JSON, DOT and the edge ideal against the per-edge tuple code."""

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_random_graphs(self, g):
        assert_text_formats_match_oracles(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 80])
    def test_empty_and_complete_graphs(self, n):
        assert_text_formats_match_oracles(UGraph(n))
        assert_text_formats_match_oracles(k(n))

    @settings(max_examples=100, deadline=None)
    @given(RING_SPECS)
    def test_random_ring_graphs(self, spec):
        assert_text_formats_match_oracles(build_graph(make_ring(spec)))

    @pytest.mark.parametrize("text", ["M(2,GF(5))", "T(3,GF(3))", "prod(Z(3),M(2,GF(3)))"])
    def test_ring_graphs_up_to_729_vertices(self, text):
        assert_text_formats_match_oracles(build_graph(make_ring(text)))

    @pytest.mark.parametrize("fmt,oracle", [
        ("dot", tuple_dot), ("edge-ideal", tuple_edge_ideal),
        ("json", lambda g: json.dumps(tuple_json(g), sort_keys=True) + "\n")])
    def test_cli_on_t3f3(self, capsys, fmt, oracle):
        assert main(["graph", "--ring", "T(3,GF(3))", "--format", fmt]) == 0
        assert capsys.readouterr().out == oracle(build_graph(make_ring("T(3,GF(3))")))

    def test_edge_ideal_memory_stays_near_its_length(self):
        # one tuple per edge took about 14 times the text's length
        g = build_graph(make_ring("T(3,GF(3))"))
        tracemalloc.start()
        try:
            text = export_stanley_reisner(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 921_082
        assert peak < 5 * len(text)
