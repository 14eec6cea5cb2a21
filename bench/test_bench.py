"""Tests of the benchmark's own oracles, checks and tracer.

    python3 -m pytest bench/
"""
from __future__ import annotations

import random
import time
from types import SimpleNamespace

import pytest

from worker import import_program

import_program()

import ucayley as u  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import tasks  # noqa: E402

SMALL_RINGS = (
    ["Z(%d)" % m for m in range(1, 21)]
    + ["GF(%d)" % q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)]
    + ["T(2,GF(2))", "M(2,GF(2))", "M(1,GF(4))", "M(1,Z(8))", "T(1,Z(5))",
       "prod(Z(2),Z(2))", "prod(Z(2),Z(3))", "prod(Z(2),Z(2),Z(2))", "prod(Z(3),Z(3))",
       "prod(Z(2),Z(4))", "prod(GF(4),Z(2))", "prod(Z(2),Z(2),Z(5))", "prod(Z(4),Z(4))",
       "prod(Z(2),Z(9))", "prod(GF(4),GF(4))", "prod(Z(2),T(2,GF(2)))",
       "prod(Z(2),Z(2),Z(2),Z(2))", "prod(Z(2),GF(9))", "prod(Z(4),Z(5))"]
)


def brute_units(ring):
    """Elements with a two-sided inverse, by scanning all products."""
    return [a for a in range(ring.order)
            if any(ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one
                   for b in range(ring.order))]


def brute_alpha(ring, units):
    """Largest set with no two elements differing by a unit, by exhaustion."""
    unit_set = set(units)
    n = ring.order
    adj = [sum(1 << y for y in range(n) if y != x and ring.sub(x, y) in unit_set)
           for x in range(n)]
    best = 0

    def grow(size, cand):
        nonlocal best
        best = max(best, size)
        while cand:
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & ~adj[low.bit_length() - 1])

    grow(0, (1 << n) - 1)
    return best


@pytest.mark.parametrize("text", SMALL_RINGS)
def test_closed_forms_match_brute_force(text):
    ring = u.make_ring(text)
    assert ring.order <= 20
    order, radical, units, alpha = tasks.closed_forms(u.parse_spec(text))
    found = brute_units(ring)
    assert order == ring.order
    assert units == len(found)
    assert radical == len(u.jacobson_radical_bruteforce(ring))
    assert alpha == brute_alpha(ring, found)


def test_graph_check_rejects_a_wrong_graph():
    text = "M(2,GF(2))"
    g = u.build_graph(u.make_ring(text))
    task = tasks.Task("search", text, tasks.make_oracle(text), tasks.graph_digest(g))
    tasks.check_graph(task, g)
    a, b = g.edges()[0]
    g.adj[a] &= ~(1 << b)  # one-way edge: asymmetric, and a degree drops
    with pytest.raises(tasks.WrongAnswer):
        tasks.check_graph(task, g)


def test_symmetry_check_finds_a_one_way_edge():
    adj = [0b0110, 0b0001, 0b0001, 0b0000]  # 0-1 and 0-2 both ways, plus 0->3 only
    adj[0] |= 0b1000
    assert not tasks._symmetric(adj, random.Random(0))
    adj[3] |= 0b0001
    assert tasks._symmetric(adj, random.Random(0))


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_alpha_retry_is_a_child_span_of_well_covered(tracer):
    report = u.is_well_covered(u.build_graph(u.make_ring("Z(6)")))
    assert report.answer == "no"
    (wc,) = [s for s in tracer.spans if s.name == "indsets.wc"]
    (alpha,) = [s for s in tracer.spans if s.name == "indsets.alpha"]
    assert alpha.parent is wc and alpha.nodes > 0 and wc.nodes > 0
    assert 0 <= wc.self_time < wc.busy


def test_generator_span_covers_next_not_creation(tracer):
    g = u.build_graph(u.make_ring("M(2,GF(2))"))
    gen = u.enumerate_maximal_independent(g)
    time.sleep(0.05)
    created_before = time.perf_counter()
    sets = list(gen)
    (span,) = [s for s in tracer.spans if s.name == "indsets.enum"]
    assert span.start >= created_before
    assert span.busy < 0.05
    assert span.items == len(sets) and span.nodes > 0


def test_layer_that_never_fired_is_unmeasured(tracer):
    u.build_graph(u.make_ring("Z(4)"))
    metrics = spans.layer_metrics(tracer.spans, {}, tasks.VERIFY_CHECKS)
    assert metrics["graphs.build_calls"] == (1, "count")
    assert metrics["graphs.edges"] == (4, "count")
    for name in ("complexes.complex_s", "indsets.alpha_nodes", "indsets.budget_trips",
                 "graphs.conj_s", "verify.check_s.lem-ess-alpha"):
        assert metrics[name][0] == spans.UNMEASURED


def test_uninstall_restores_every_function():
    before = (u.build_graph, u.verify.build_graph, u.indsets.independence_number,
              list(u.verify.SMALL_CHECKS))
    t = spans.Tracer()
    t.install()
    assert u.build_graph is not before[0]
    t.uninstall()
    assert (u.build_graph, u.verify.build_graph, u.indsets.independence_number,
            list(u.verify.SMALL_CHECKS)) == before


def test_speed_log_runs_the_kernel_once_per_interval(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(speed, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(speed, "probe", lambda: 0.01)
    log = speed.SpeedLog()
    log.catch_up()
    assert len(log.times) == 1
    clock[0] += 4 * speed.PROBE_EVERY_S + 0.01  # one long task
    log.catch_up()
    assert len(log.times) == 5
    clock[0] += 0.5 * speed.PROBE_EVERY_S
    log.catch_up()
    assert len(log.times) == 5
    clock[0] += 0.5 * speed.PROBE_EVERY_S  # the remainder carries over
    log.catch_up()
    assert len(log.times) == 6
    assert log.scale() == pytest.approx(speed.REFERENCE_S / 0.01)
