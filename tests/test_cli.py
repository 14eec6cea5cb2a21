import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RING_SPECS
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


    def test_complex_json_stats(self, capsys):
        argv = ("complex", "--ring", "prod(Z(2),Z(2),Z(2))", "--shelling", "--format", "json")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["stats"] == {"nodes": 48, "reductions": []}
        _, out, _ = run(capsys, *argv, "--budget-nodes", "31")
        assert json.loads(out)["stats"]["nodes"] == 32
        code, out, _ = run(capsys, "complex", "--ring", "Z(6)", "--format", "json",
                           "--budget-nodes", "3")
        payload = json.loads(out)
        assert code == 2 and payload["answer"] == "inconclusive"
        assert payload["stats"] == {"nodes": 4, "reductions": []}

    def test_complex_json_reports_the_twin_quotient(self, capsys):
        # J(M(2,Z(4))) != 0: the complex is enumerated on Gamma(M(2,GF(2)))
        code, out, _ = run(capsys, "complex", "--ring", "M(2,Z(4))", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["stats"] == {"nodes": 108, "reductions": ["twin-quotient"]}
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
    "construct": ("construct", "--kind", "dfamily", "--n", "2", "--q", "2"),
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
    "construct": (*_BUDGETS, "--seed"),
    "verify-paper": ("--max-ring-order", "--max-graph-vertices", *_BUDGETS),
}


class TestOptions:
    @pytest.mark.parametrize("command,flag", [(c, f) for c, flags in _NOT_TAKEN.items()
                                              for f in flags])
    def test_option_not_taken_is_rejected(self, capsys, command, flag):
        code, out, err = run(capsys, *_VALID[command], flag, "5")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: %s 5" % flag in err

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
)
_RING_COMMANDS = sorted(set(_VALID) - {"construct", "verify-paper"}) + ["product-witness"]


@settings(max_examples=80, deadline=None)
@given(text=_SPEC_TEXT, command=st.sampled_from(_RING_COMMANDS),
       nodes=st.integers(1, 40), shelling=st.booleans())
def test_every_ring_command_exits_0_1_or_2(text, command, nodes, shelling):
    # valid, damaged, huge and random spec text through each subcommand that takes a ring
    if command == "product-witness":
        argv = ["construct", "--kind", command, "--n", "2", "--q", "2", "--ring", text]
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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("ucayley ")]
    assert commands, "README has no command-line examples"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert run(capsys, *argv)[0] == 0
