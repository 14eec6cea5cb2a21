import json

import pytest

from ucayley.cli import main


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

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "radical", "--ring", "Z(8)")
        assert code == 0 and out.split() == ["0", "2", "4", "6"]

    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--ring", "Z(4)", "--format", "dot")
        assert code == 0 and out.count("--") == 4

    def test_export_edge_ideal(self, capsys):
        code, out, _ = run(capsys, "export", "--ring", "Z(4)", "--what", "edge-ideal")
        assert code == 0 and len(out.splitlines()) == 5

    def test_complex_with_shelling(self, capsys):
        code, out, _ = run(capsys, "complex", "--ring", "prod(Z(2),Z(2))",
                           "--shelling", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is True
        assert payload["shelling"]["status"] == "shelling"

    def test_construct_dfamily(self, capsys):
        code, out, _ = run(capsys, "construct", "--kind", "dfamily", "--n", "2", "--q", "2")
        assert code == 0 and len(out.splitlines()) == 3

    def test_construct_avoidance(self, capsys):
        code, out, _ = run(capsys, "construct", "--kind", "avoidance",
                           "--n", "2", "--q", "2", "--matrix", "1,0;0,0")
        assert code == 0 and out.strip() == "0,0;0,1"

    def test_verify_paper_json(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        ids = {c["id"] for c in payload["checks"]}
        assert "thm-mnf-refute-3-2" in ids and "prop-rj-z4" in ids


class TestExitCodes:
    def test_semantic_error(self, capsys):
        code, _, err = run(capsys, "ring", "--ring", "GF(6)")
        assert code == 1 and "prime power" in err

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "alpha", "--no-such-flag")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("alpha", "--ring", "Z(4)", "--budget-nodes", "0"),
        ("wellcovered", "--ring", "Z(4)", "--budget-seconds", "-1"),
        ("construct", "--kind", "avoidance", "--n", "2", "--q", "2", "--matrix", "1,0;0,x"),
        ("construct", "--kind", "dfamily", "--n", "0", "--q", "2"),
        ("ring", "--ring", "Z(4)", "--format", "dot"),
        ("alpha", "--ring", "Z(4)", "--threads", "1"),
    ])
    def test_bad_input_is_a_clean_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["UCAYLEY_BUDGET_NODES", "UCAYLEY_BUDGET_SECONDS"])
    def test_bad_env_budget(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, _, err = run(capsys, "wellcovered", "--ring", "Z(4)")
        assert code == 1 and err.startswith("error: bad budget")

    def test_inconclusive_budget(self, capsys):
        code, out, _ = run(capsys, "wellcovered", "--ring", "M(2,GF(3))",
                           "--budget-nodes", "3")
        assert code == 2

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("UCAYLEY_BUDGET_NODES", "3")
        code, _, _ = run(capsys, "wellcovered", "--ring", "M(2,GF(3))")
        assert code == 2


class TestReducedSearch:
    def test_alpha_z2048(self, capsys):
        code, out, err = run(capsys, "alpha", "--ring", "Z(2048)")
        assert code == 0 and out.strip() == "1024" and err == ""

    def test_alpha_m2f9(self, capsys):
        code, out, _ = run(capsys, "alpha", "--ring", "M(2,GF(9))")
        assert code == 0 and out.strip() == "81"

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
        assert payload["stats"]["reductions"] == ["twin-quotient", "vertex-0"]

    def test_no_answer_kept_when_alpha_trips(self, capsys):
        code, out, err = run(capsys, "wellcovered", "--ring", "M(3,GF(2))",
                             "--budget-nodes", "200")
        assert code == 0 and "Traceback" not in err
        assert "well-covered: no" in out and "alpha: >= 64" in out
        _, out, _ = run(capsys, "wellcovered", "--ring", "M(3,GF(2))",
                        "--budget-nodes", "200", "--format", "json")
        payload = json.loads(out)
        assert payload["alpha_exact"] is False and payload["stats"]["nodes"] == 201

    def test_deep_wellcovered_is_inconclusive(self, capsys):
        ring = "prod(%s)" % ",".join(["Z(2)"] * 11)  # order 2048, no twins
        code, out, err = run(capsys, "wellcovered", "--ring", ring, "--budget-nodes", "1100")
        assert code == 2 and "well-covered: inconclusive" in out
        assert "alpha: >= 1024" in out and "Traceback" not in err

    def test_complex_shares_one_budget(self, capsys):
        # 31 nodes enumerate the complex; the shelling search needs 17 more
        argv = ("complex", "--ring", "prod(Z(2),Z(2),Z(2))", "--shelling", "--format", "json")
        code, out, _ = run(capsys, *argv, "--budget-nodes", "31")
        assert code == 2
        assert json.loads(out)["shelling"]["status"] == "none found within budget"
        code, out, _ = run(capsys, *argv, "--budget-nodes", "48")
        assert code == 0 and json.loads(out)["shelling"]["status"] == "shelling"


class TestDeterminism:
    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "classify", "--ring", "M(2,GF(3))", "--format", "json")
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True) == out.strip()

    def test_identical_runs_identical_output(self, capsys):
        argv = ("wellcovered", "--ring", "Z(12)", "--format", "json", "--seed", "9")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
