import ast
import contextlib
import hashlib
import io
import json
import shlex
import time
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RING_SPECS
from ucayley import cli, complexes, indsets
from ucayley.cli import main
from ucayley.rings import spec_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", "--ring", "M(2,GF(2))")
        assert code == 0 and out.strip() == "4"

    def test_classify_t3f2(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "T(3,GF(2))",
                           "--question", "wellcovered", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] == "yes"
        assert "Z_2^k" in payload["clause"]

    def test_classify_json_is_the_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "Z(6)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"] == "Z(6)" and payload["question"] == "wellcovered"
        assert payload["answer"] == "no" and payload["factors"] == [[1, 2], [1, 3]]
        assert "different orders" in payload["witness_hint"]

    def test_wellcovered_z6(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "Z(6)")
        assert code == 0
        assert "no" in out and "[0, 3]" in out

    def test_ring_metadata(self, capsys):
        code, out, _ = run(capsys, "ring", "--ring", "Z(6)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"spec": "Z(6)", "order": 6,
                                   "unit_count": 2, "radical_size": 1}

    def test_ring_metadata_in_closed_form(self, capsys):
        # 2^20 elements: a unit scan would take half a minute
        start = time.monotonic()
        code, out, _ = run(capsys, "ring", "--ring", "M(2,GF(32))", "--format", "json")
        assert time.monotonic() - start < 1
        assert code == 0
        assert json.loads(out) == {"spec": "M(2,GF(32))", "order": 2 ** 20,
                                   "unit_count": (32 ** 2 - 1) * (32 ** 2 - 32),
                                   "radical_size": 1}

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "radical", "--ring", "Z(8)")
        assert code == 0 and out.split() == ["0", "2", "4", "6"]

    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--ring", "Z(4)", "--format", "dot")
        assert code == 0 and out.count("--") == 4

    def test_export_edge_ideal(self, capsys):
        code, out, _ = run(capsys, "graph", "--ring", "Z(4)", "--format", "edge-ideal")
        assert code == 0 and len(out.splitlines()) == 5

    def test_edge_ideal_over_the_export_cap_is_a_clean_error(self, capsys):
        code, out, err = run(capsys, "graph", "--ring", "Z(5000)", "--format", "edge-ideal")
        assert code == 1 and out == ""
        assert err == "error: graph on 5000 vertices exceeds the export cap 4096\n"

    def test_graph_json_of_m2f7_at_once(self, capsys):
        # 2,401 vertices and 2,420,208 edges; one list per edge took about 3 s.
        # The text is compared by length and SHA-256 with
        # json.dumps(tuple_json(g), sort_keys=True) + "\n": building that oracle
        # here would take 5 s and 0.5 GiB (tests/test_graphs.py runs it on
        # smaller graphs).
        start = time.monotonic()
        code, out, _ = run(capsys, "graph", "--ring", "M(2,GF(7))", "--format", "json")
        assert time.monotonic() - start < 1
        assert code == 0 and len(out) == 31645175
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c4df8a9cb65640cb723061fb060d8ce919f08741ac62a2050f4e154db4b3cef2")

    def test_complex_with_shelling(self, capsys):
        code, out, _ = run(capsys, "complex", "--ring", "prod(Z(2),Z(2))",
                           "--shelling", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is True
        assert payload["shelling"]["status"] == "shelling"

    def test_complex_with_shelling_makes_one_ridge_pass(self, capsys, monkeypatch):
        # find_shelling reuses the codimension-1 components the command
        # printed: of the two calls, only the first makes the ridge pass
        calls = []
        codim1_connected = complexes.codim1_connected

        def counted(c):
            calls.append((len(c.facets), c._codim1 is None))
            return codim1_connected(c)
        monkeypatch.setattr(complexes, "codim1_connected", counted)
        monkeypatch.setattr(cli, "codim1_connected", counted)
        code, out, _ = run(capsys, "complex", "--ring", "prod(Z(2),Z(2),Z(2),Z(2))",
                           "--shelling", "--format", "json")
        assert code == 0 and json.loads(out)["shelling"]["status"] == "shelling"
        assert calls == [(256, True), (256, False)]

    def test_construct_dfamily(self, capsys):
        code, out, _ = run(capsys, "construct", "dfamily", "--n", "2", "--q", "2")
        assert code == 0 and len(out.splitlines()) == 3

    def test_construct_avoidance(self, capsys):
        code, out, _ = run(capsys, "construct", "avoidance",
                           "--n", "2", "--q", "2", "--matrix", "1,0;0,0")
        assert code == 0 and out.strip() == "0,0;0,1"

    @pytest.mark.parametrize("q,a,b", [
        # GF(4) subtracts one by adding it (2 - 1 = 3), GF(9) in F_3[x] (3 - 1 = 5)
        (4, "0,2,3;1,3,2;2,0,1", "0,0,0;1,3,3;3,0,1"),
        (9, "0,0,0;0,0,4;3,8,6", "0,2,0;0,0,0;5,8,6"),
    ])
    def test_construct_avoidance_over_prime_powers(self, capsys, q, a, b):
        argv = ("construct", "avoidance", "--n", "3", "--q", str(q), "--matrix", a)
        assert run(capsys, *argv) == (0, b + "\n", "")
        assert run(capsys, *argv, "--format", "json") == (
            0, '{"A": "%s", "B": "%s", "kind": "avoidance", "n": 3, "q": %d}\n' % (a, b, q), "")

    def test_verify_paper_json(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        ids = {c["id"] for c in payload["checks"]}
        assert "thm-mnf-refute-3-2" in ids and "prop-rj-z4" in ids
        assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0
                   for c in payload["checks"])


_ALL = ("ring", "classify", "alpha")
_BUILT = ("ring", "alpha")  # classify builds no ring, so it has no cap
_P61 = 2 ** 61 - 1  # a prime, so it has no factor up to 2^20
_NO_FACTOR = "cannot factor %d: it has no prime factor up to 2^20" % _P61

# (commands, spec text, its error line): each text breaks one rule, so its error
# line does not depend on the order in which the rules are checked
_SPEC_FAULTS = [
    (_ALL, "Z(0)", "Z(m) requires m >= 1, got 0"),
    (_ALL, "GF(6)", "GF(q) requires a prime power, 6 is not one"),
    (_ALL, "GF(1)", "GF(q) requires a prime power, 1 is not one"),
    (_ALL, "M(0,GF(2))", "M(n,...) requires n >= 1"),
    (_ALL, "M(2,M(2,GF(2)))", "M requires a commutative base, got M(2,GF(2))"),
    (_ALL, "M(2,T(2,GF(2)))", "M requires a commutative base, got T(2,GF(2))"),
    (_ALL, "T(0,GF(2))", "T(n,...) requires n >= 1"),
    (_ALL, "T(2,Z(6))", "T requires a field base (GF(q) or Z(p), p prime), got Z(6)"),
    (_ALL, "T(2,Z(1))", "T requires a field base (GF(q) or Z(p), p prime), got Z(1)"),
    (_ALL, "T(2,prod(Z(2),Z(3)))",
     "T requires a field base (GF(q) or Z(p), p prime), got prod(Z(2),Z(3))"),
    (_ALL, "prod(Z(2),GF(6))", "GF(q) requires a prime power, 6 is not one"),
    (_ALL, "M(2,prod(Z(2),Z(0)))", "Z(m) requires m >= 1, got 0"),
    (_BUILT, "M(5,GF(2))", "|R| = 33554432 exceeds the cardinality cap 1048576"),
    (_BUILT, "M(120,GF(2))", "|R| >= 2^14400 exceeds the cardinality cap 1048576"),
    (_ALL, "M(1," * 64 + "Z(2)" + ")" * 64,
     "syntax error at position 256: specs nest at most 64 deep"),
    (_ALL, "GF(%d)" % _P61, _NO_FACTOR),
    (_ALL, "T(2,Z(%d))" % _P61, _NO_FACTOR),
    (("classify",), "Z(%d)" % _P61, _NO_FACTOR),
    (_BUILT, "Z(%d)" % _P61, "|R| = %d exceeds the cardinality cap 1048576" % _P61),
    (_ALL, "Z(2", "syntax error at position 3: expected ), got None"),
    (_ALL, "Q(5)", "syntax error at position 0: unknown constructor 'Q'"),
    (_ALL, "Z(2))", "syntax error at position 4: trailing input ')'"),
    (_ALL, "prod()", "syntax error at position 5: expected a constructor name, got ')'"),
]


class TestExitCodes:
    def test_semantic_error(self, capsys):
        code, _, err = run(capsys, "ring", "--ring", "GF(6)")
        assert code == 1 and "prime power" in err

    @pytest.mark.parametrize("command,text,error", [
        pytest.param(command, text, error, id="%s-%s" % (command, text[:24]))
        for commands, text, error in _SPEC_FAULTS for command in commands])
    def test_single_fault_error_line(self, capsys, command, text, error):
        assert run(capsys, command, "--ring", text) == (1, "", "error: %s\n" % error)

    def test_first_fault_read_is_reported(self, capsys):
        # GF(6) is refused as it closes, before the missing factor is read
        code, out, err = run(capsys, "ring", "--ring", "prod(GF(6),")
        assert (code, out) == (1, "")
        assert err == "error: GF(q) requires a prime power, 6 is not one\n"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "alpha", "--no-such-flag")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("alpha", "--ring", "Z(4)", "--budget-nodes", "0"),
        ("wellcovered", "--ring", "Z(4)", "--budget-seconds", "-1"),
        ("construct", "avoidance", "--n", "2", "--q", "2", "--matrix", "1,0;0,x"),
        ("construct", "dfamily", "--n", "0", "--q", "2"),
        ("ring", "--ring", "Z(4)", "--format", "dot"),
        ("alpha", "--ring", "Z(4)", "--threads", "1"),
    ])
    def test_bad_input_is_a_clean_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_nan_budget_flag(self, capsys):
        code, out, err = run(capsys, "wellcovered", "--ring", "Z(4)", "--budget-seconds", "nan")
        assert code == 1 and out == ""
        assert err == "error: bad budget: max_seconds must be positive\n"

    @pytest.mark.parametrize("n,q,cap,order", [(4, 3, 1000, 2 * 3 ** 16), (2, 3, 100, 162)])
    def test_product_witness_cap_covers_the_product(self, capsys, n, q, cap, order):
        # the ring built is Z(2) x M_n(F_q), whatever the size of Z(2) alone
        start = time.monotonic()
        code, out, err = run(capsys, "construct", "product-witness", "--ring", "Z(2)",
                             "--n", str(n), "--q", str(q), "--max-ring-order", str(cap))
        assert time.monotonic() - start < 0.5
        assert code == 1 and out == ""
        assert err == "error: |R| = %d exceeds the cardinality cap %d\n" % (order, cap)

    @pytest.mark.parametrize("argv", [
        ("ring", "--ring", "GF(1000000000000000003)"),
        ("classify", "--ring", "Z(1000000000000000003)"),
        ("classify", "--ring", "T(2,Z(1000000000000000003))"),
        ("construct", "avoidance", "--n", "2", "--q", str(2 ** 40),
         "--matrix", "1,0;0,0"),
        ("construct", "dfamily", "--n", "30", "--q", "2"),
        # a zero ring's entries are digits of radix 1: its size is not its order
        *[(command, "--ring", "M(%d,Z(1))" % n) for n in (3000, 100000, 10 ** 20 - 1)
          for command in ("ring", "alpha")],
        ("classify", "--ring", "T(99999999999,GF(2))"),  # R/J(R) has 10^11 - 1 factors
        ("classify", "--ring", "Z(%s)" % ("7" * 5000)),
        ("classify", "--ring", "Z(%d)" % (2 ** 14281 - 1)),  # 4,300 digits, no factor up to 2^20
        ("classify", "--ring", "prod(" * 400 + "Z(2)" + ")" * 400),
        ("radical", "--ring", "M(1024,Z(1))"),  # 2^20 digits: within the cap, over the digit limit
    ])
    def test_huge_input_is_refused_at_once(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_long_unfactored_number_is_named_by_its_length(self, capsys):
        # 2^14281 - 1 has 4,300 digits and no prime factor up to 2^20
        code, out, err = run(capsys, "classify", "--ring", "Z(%d)" % (2 ** 14281 - 1))
        assert code == 1 and out == ""
        assert err == ("error: cannot factor a 4300-digit number: "
                       "it has no prime factor up to 2^20\n")
        assert len(err) < 200

    @pytest.mark.parametrize("text", ["Z(1099511627689)", "Z(%d)" % 2 ** 100])
    def test_large_spec_still_classifies(self, capsys, text):
        # a prime below 2^40, and a huge power of 2
        code, out, _ = run(capsys, "classify", "--ring", text)
        assert code == 0 and out.startswith("wellcovered: yes")

    @pytest.mark.parametrize("command", ["classify", "alpha"])
    def test_specs_nest_at_most_64_deep(self, capsys, command):
        def nest(depth):
            return "prod(" * (depth - 1) + "Z(2)" + ")" * (depth - 1)
        code, out, _ = run(capsys, command, "--ring", nest(64))
        assert code == 0 and out.strip() == ("1" if command == "alpha" else
                                             "wellcovered: yes (clause: R/J(R) is a field F)")
        code, out, err = run(capsys, command, "--ring", nest(65))
        assert code == 1 and out == ""
        # the Z(2) at depth 65 follows 64 "prod(" of 5 characters each
        assert err == "error: syntax error at position 320: specs nest at most 64 deep\n"

    @pytest.mark.parametrize("ring", ["Z(1)", "prod(Z(1),Z(1))"])
    def test_product_witness_refuses_the_zero_ring(self, capsys, ring):
        code, out, err = run(capsys, "construct", "product-witness", "--ring", ring,
                             "--n", "2", "--q", "2")
        assert code == 1 and out == ""
        assert err == "error: requires a nonzero ring R\n"

    def test_product_witness_ring_nests_at_most_64_deep(self, capsys):
        # the ring built, R x M_n(F_q), is one level deeper than R
        ring = "prod(" * 63 + "Z(2)" + ")" * 63
        code, out, err = run(capsys, "construct", "product-witness", "--ring", ring,
                             "--n", "2", "--q", "2")
        assert code == 1 and out == ""
        assert err == "error: specs nest at most 64 deep\n"
        code, out, _ = run(capsys, "construct", "product-witness", "--ring", ring[len("prod("):-1],
                           "--n", "2", "--q", "2")
        assert code == 0 and out.startswith("witness size 11 vs competing maximal set size 16\n")

    def test_inconclusive_budget(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "M(2,GF(3))",
                           "--budget-nodes", "3")
        assert code == 2


class TestReducedSearch:
    def test_alpha_z2048(self, capsys):
        code, out, err = run(capsys, "alpha", "--ring", "Z(2048)")
        assert code == 0 and out.strip() == "1024" and err == ""

    def test_alpha_m2f9(self, capsys):
        code, out, _ = run(capsys, "alpha", "--ring", "M(2,GF(9))")
        assert code == 0 and out.strip() == "81"

    def test_alpha_m3f3_ends_at_the_clique_bound(self, capsys):
        code, out, _ = run(capsys, "alpha", "--ring", "M(3,GF(3))", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["alpha"] == 729
        assert payload["stats"]["nodes"] == 1
        assert payload["stats"]["reductions"] == ["vertex-0", "clique-bound"]
        code, out, _ = run(capsys, "alpha", "--ring", "M(3,GF(3))")
        assert code == 0 and out.strip() == "729"

    def test_wellcovered_m3f3_no_has_an_exact_alpha(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "M(3,GF(3))", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["answer"] == "no"
        assert payload["alpha"] == 729 and payload["alpha_exact"] is True
        assert len(payload["witness_small"]) < 729
        assert "clique-bound" in payload["stats"]["reductions"]
        assert payload["stats"]["nodes"] <= 2000

    def test_alpha_json_stats(self, capsys):
        code, out, _ = run(capsys, "alpha", "--ring", "Z(8)", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["alpha"] == 4
        assert payload["stats"]["reductions"] == ["twin-quotient", "vertex-0"]
        assert payload["stats"]["nodes"] > 0

    def test_wellcovered_json_stats(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "Z(12)", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["answer"] == "no" and payload["alpha_exact"] is True
        assert payload["stats"] == {"nodes": 5, "reductions": ["twin-quotient", "vertex-0"]}

    def test_wellcovered_m2f9_yes_from_vertex_0(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "M(2,GF(9))", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["answer"] == "yes" and payload["counts"] == {"81": 1620}
        assert payload["stats"]["reductions"] == ["vertex-0"]

    def test_wellcovered_m2f7_trips_its_node_budget(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "M(2,GF(7))", "--budget-nodes", "1000")
        assert code == 2 and "well-covered: inconclusive" in out

    def test_no_answer_kept_when_alpha_trips(self, capsys):
        # the "no" comes at node 68 and the alpha step is node 69
        code, out, err = run(capsys, "wellcovered", "--ring", "M(3,GF(2))",
                             "--budget-nodes", "68")
        assert code == 0 and "Traceback" not in err
        assert "well-covered: no" in out and "alpha: >= 64" in out
        _, out, _ = run(capsys, "wellcovered", "--ring", "M(3,GF(2))",
                        "--budget-nodes", "68", "--format", "json")
        payload = json.loads(out)
        assert payload["alpha_exact"] is False and payload["stats"]["nodes"] == 69

    def test_deep_wellcovered_is_inconclusive(self, capsys):
        ring = "prod(%s)" % ",".join(["Z(2)"] * 11)  # order 2048, no twins
        code, out, err = run(capsys, "wellcovered", "--ring", ring, "--budget-nodes", "1100")
        assert code == 2 and "well-covered: inconclusive" in out
        assert "alpha: >= 1024" in out and "Traceback" not in err

    def test_complex_shares_one_budget(self, capsys):
        # 20 nodes enumerate the complex: 15 from vertex 0, and one for each
        # of the 5 orbits translated; the shelling search needs 17 more
        argv = ("complex", "--ring", "prod(Z(2),Z(2),Z(2))", "--shelling", "--format", "json")
        code, out, _ = run(capsys, *argv, "--budget-nodes", "20")
        assert code == 2
        assert json.loads(out)["shelling"]["status"] == "none found within budget"
        code, out, _ = run(capsys, *argv, "--budget-nodes", "19")
        assert code == 2 and json.loads(out)["answer"] == "inconclusive"
        code, out, _ = run(capsys, *argv, "--budget-nodes", "37")
        assert code == 0 and json.loads(out)["shelling"]["status"] == "shelling"


    def test_complex_json_stats(self, capsys):
        argv = ("complex", "--ring", "prod(Z(2),Z(2),Z(2))", "--shelling", "--format", "json")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["stats"] == {"nodes": 37, "reductions": ["vertex-0"]}
        _, out, _ = run(capsys, *argv, "--budget-nodes", "20")
        assert json.loads(out)["stats"]["nodes"] == 21
        code, out, _ = run(capsys, "complex", "--ring", "Z(6)", "--format", "json",
                           "--budget-nodes", "3")
        payload = json.loads(out)
        assert code == 2 and payload["answer"] == "inconclusive"
        assert payload["stats"] == {"nodes": 4, "reductions": ["vertex-0"]}

    def test_complex_json_reports_the_twin_quotient(self, capsys):
        # J(M(2,Z(4))) != 0: the complex is enumerated on Gamma(M(2,GF(2)))
        code, out, _ = run(capsys, "complex", "--ring", "M(2,Z(4))", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["stats"] == {"nodes": 29,
                                                  "reductions": ["twin-quotient", "vertex-0"]}
        assert len(payload["facets"]) == 24 and payload["dim"] == 63


class TestDeterminism:
    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "classify", "--ring", "M(2,GF(3))", "--format", "json")
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True) == out.strip()

    def test_identical_runs_identical_output(self, capsys):
        argv = ("wellcovered", "--ring", "Z(12)", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


# A valid invocation of each subcommand, and the options it does not take.
_VALID = {
    "ring": ("ring", "--ring", "Z(4)"),
    "radical": ("radical", "--ring", "Z(4)"),
    "classify": ("classify", "--ring", "Z(4)"),
    "graph": ("graph", "--ring", "Z(4)"),
    "alpha": ("alpha", "--ring", "Z(4)"),
    "wellcovered": ("wellcovered", "--ring", "Z(4)"),
    "complex": ("complex", "--ring", "Z(4)"),
    "construct dfamily": ("construct", "dfamily", "--n", "2", "--q", "2"),
    "construct reduced-diagonal": ("construct", "reduced-diagonal", "--n", "3", "--q", "2",
                                   "--k", "1", "--l", "2", "--coeffs", "1,1"),
    "construct avoidance": ("construct", "avoidance", "--n", "2", "--q", "2",
                            "--matrix", "1,0;0,0"),
    "construct product-witness": ("construct", "product-witness", "--ring", "Z(2)",
                                  "--n", "2", "--q", "2"),
    "verify-paper": ("verify-paper",),
}
_BUDGETS = ("--budget-nodes", "--budget-seconds")
_NOT_TAKEN = {
    "ring": ("--max-graph-vertices", *_BUDGETS, "--seed"),
    "radical": ("--max-graph-vertices", *_BUDGETS, "--seed"),
    "classify": ("--max-ring-order", "--max-graph-vertices", *_BUDGETS, "--seed"),
    "graph": ("--max-ring-order", *_BUDGETS, "--seed"),
    "alpha": ("--max-ring-order", "--seed"),
    "wellcovered": ("--max-ring-order", "--seed"),
    "complex": ("--max-ring-order", "--seed"),
    "construct dfamily": ("--max-graph-vertices", "--k", "--l", "--coeffs", "--matrix",
                          "--ring", *_BUDGETS, "--seed"),
    "construct reduced-diagonal": ("--max-graph-vertices", "--matrix", "--ring", *_BUDGETS,
                                   "--seed"),
    "construct avoidance": ("--max-graph-vertices", "--k", "--l", "--coeffs", "--ring",
                            *_BUDGETS, "--seed"),
    "construct product-witness": ("--k", "--l", "--coeffs", "--matrix", *_BUDGETS, "--seed"),
    "verify-paper": ("--max-ring-order", "--max-graph-vertices", *_BUDGETS),
}


class TestOptions:
    @pytest.mark.parametrize("command,flag", [(c, f) for c, flags in _NOT_TAKEN.items()
                                              for f in flags])
    def test_option_not_taken_is_rejected(self, capsys, command, flag):
        code, out, err = run(capsys, *_VALID[command], flag, "5")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: %s 5" % flag in err

    @pytest.mark.parametrize("argv,missing", [
        (("construct",), "kind"),
        (("construct", "dfamily", "--n", "2"), "--q"),
        (("construct", "reduced-diagonal", "--n", "3", "--q", "2", "--k", "1", "--l", "2"),
         "--coeffs"),
        (("construct", "avoidance", "--n", "2", "--q", "2"), "--matrix"),
        (("construct", "product-witness", "--n", "2", "--q", "2"), "--ring"),
    ])
    def test_missing_required_option_is_a_usage_error(self, capsys, argv, missing):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.endswith("error: the following arguments are required: %s\n" % missing)

    def test_construct_kind_switch_is_gone(self, capsys):
        code, out, err = run(capsys, "construct", "--kind", "dfamily", "--n", "2", "--q", "2")
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_export_is_gone(self, capsys):
        code, out, err = run(capsys, "export", "--ring", "Z(4)")
        assert code == 1 and out == "" and "error:" in err


_SMALL = RING_SPECS.filter(lambda s: spec_order(s) <= 64).map(str)
_SPEC_TEXT = st.one_of(
    _SMALL,
    st.tuples(_SMALL, st.integers(0, 30)).map(lambda t: t[0][:t[1]] + t[0][t[1] + 1:]),
    st.text(max_size=10),
    # orders past every cap, some with more than the 4300 digits str() will print
    st.builds("{}({},{})".format, st.sampled_from("MT"), st.integers(5, 300),
              st.sampled_from(("GF(2)", "GF(9)"))),
    # nests past the parser's depth limit, and numbers past the 4300 digits int() reads
    st.integers(1, 400).map(lambda d: "prod(" * (d - 1) + "Z(2)" + ")" * (d - 1)),
    st.integers(4301, 5000).map(lambda k: "Z(%s)" % ("1" * k)),
    # zero rings with up to 10^40 entries
    st.integers(1, 10 ** 20).map("M({},Z(1))".format),
)
_RING_COMMANDS = sorted(c for c in _VALID if not c.startswith(("construct", "verify-paper")))
_RING_COMMANDS += ["product-witness"]


@settings(max_examples=80, deadline=None)
@given(text=_SPEC_TEXT, command=st.sampled_from(_RING_COMMANDS),
       nodes=st.integers(1, 40), shelling=st.booleans())
def test_every_ring_command_exits_0_1_or_2(text, command, nodes, shelling):
    # valid, damaged, huge and random spec text through each subcommand that takes a ring
    if command == "product-witness":
        argv = ["construct", command, "--n", "2", "--q", "2", "--ring", text]
    else:
        argv = [command, "--ring", text]
    if command in ("alpha", "wellcovered", "complex"):
        argv += ["--budget-nodes", str(nodes)]
    if command == "complex" and shelling:
        argv.append("--shelling")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert ("error:" in err.getvalue()) == (code == 1)


def _readme_commands():
    """(argv, comment) for each `ucayley` line of README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [(shlex.split(line, comments=True)[1:], line.partition("#")[2].strip())
                for line in block.splitlines() if line.startswith("ucayley ")]
    assert commands, "README has no command-line examples"
    return commands


_README_COMMANDS = _readme_commands()
# the README lines whose comment ends with a line that the command prints
_README_PROMISES = {"alpha --ring M(2,GF(2))": "4",
                    "wellcovered --ring M(3,GF(2)) --budget-nodes 68": "alpha: >= 64"}


@pytest.mark.parametrize("argv,comment", _README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in _README_COMMANDS])
def test_readme_command_runs(capsys, argv, comment):
    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in out + err
    promised = _README_PROMISES.get(" ".join(argv))
    if promised is not None:
        assert comment.endswith(promised) and promised in out.splitlines()


def test_readme_promises_are_checked():
    assert set(_README_PROMISES) <= {" ".join(argv) for argv, _ in _README_COMMANDS}


def test_readme_lists_every_reduction():
    # each reduction a budget can record is a bullet of README's Library section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in (indsets.TWIN_QUOTIENT, indsets.VERTEX_ZERO, indsets.CLIQUE_BOUND):
        assert "\n- `%s`: " % name in library, name


def _leading_literal(comment):
    """The value at the start of a `# value` comment, e.g. False in '# False -- why'."""
    words = comment.split(" ")
    for k in range(len(words), 0, -1):
        try:
            return ast.literal_eval(" ".join(words[:k]))
        except (ValueError, SyntaxError):
            continue
    raise AssertionError("no value at the start of the comment %r" % comment)


def test_readme_library_values():
    # run README's Library block, comparing each expression with its `# value`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    source = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == _leading_literal(comments[stmt.end_lineno]), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == 9
