"""Command-line front-end: exit codes and machine-readable output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvlogic

from mvlogic.cli import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_POSITIVE,
    EXIT_USAGE,
    run,
)
from mvlogic.formula import MAX_NESTING
from mvlogic.registry import matrix_from_json, calculus_from_json


def test_prove_positive(capsys):
    code = run([
        "prove", "--calculus", "r-b",
        "--premises", "~(p & q)", "--goal", "~p | ~q",
    ])
    assert code == EXIT_POSITIVE
    assert "Proved" in capsys.readouterr().out


def test_prove_premise_meeting_goal_at_budget_zero(capsys):
    code = run([
        "prove", "--calculus", "r-b", "--premises", "p", "--goal", "p",
        "--budget-nodes", "0",
    ])
    assert code == EXIT_POSITIVE
    assert "Proved" in capsys.readouterr().out


def test_prove_refuted(capsys):
    code = run([
        "prove", "--calculus", "r-leq",
        "--premises", "", "--goal", "(p | q) => p, q",
    ])
    assert code == EXIT_NEGATIVE
    assert "Refuted" in capsys.readouterr().out


def test_prove_refutation_prints_its_countermodel(capsys):
    argv = ["prove", "--calculus", "r-b", "--premises", "q", "--goal", "p"]
    assert run(argv) == EXIT_NEGATIVE
    assert capsys.readouterr().out == (
        "Refuted. Countermodel on dm4-bt:\n  p = f\n  q = b\n"
        "Saturated set:\n  q\n"
    )
    argv = ["prove", "--calculus", "r-leq", "--goal", "(p | q) => p, q",
            "--json"]
    assert run(argv) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["countermodel"] == {
        "matrix": "pp6h-ub",
        "valuation": {"p": "hf", "q": "f", "p | q": "f", "p | q => p": "hf"},
    }
    # no value is in pp6h-ub's filter, and Ω has none of these formulas
    assert not set(data["countermodel"]["valuation"]) & set(data["omega"])


def test_prove_prints_the_refutations_own_countermodel(monkeypatch, capsys):
    # a refutation on the models carries its countermodel; only one from
    # the clause set is searched for again
    def searched(models, part):
        raise AssertionError("searched for a countermodel")

    monkeypatch.setattr("mvlogic.calculus.countermodel", searched)
    argv = ["prove", "--calculus", "r-leq", "--goal", "(p | q) => p, q",
            "--json"]
    assert run(argv) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["route"] == "model"
    assert data["countermodel"]["matrix"] == "pp6h-ub"


def test_prove_unsound_calculus_file_uses_the_clause_route(tmp_path, capsys):
    # r-b's rules plus the unsound p |> q, with an analyticity set that
    # dm4-bt interprets: its models refute p |- q, the calculus proves it
    assert run(["export", "--kind", "calculus", "--name", "r-b"]) == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    data["rules"].append({"name": "bad", "premises": ["p"], "conclusions": ["q"]})
    data["xi"] = ["p", "~p"]
    path = tmp_path / "unsound.json"
    path.write_text(json.dumps(data))
    calc = "@%s" % path
    assert run(["prove", "--calculus", calc, "--premises", "p", "--goal", "q"]) == (
        EXIT_POSITIVE
    )
    capsys.readouterr()
    argv = ["prove", "--calculus", calc, "--goal", "q", "--json"]
    assert run(argv) == EXIT_NEGATIVE
    out = json.loads(capsys.readouterr().out)
    assert out["stats"]["route"] == "cdcl" and out["stats"]["valuations"] == 1
    assert out["countermodel"] == {"matrix": "dm4-bt", "valuation": {"q": "f"}}


def test_prove_budget(capsys):
    code = run([
        "prove", "--calculus", "r-leq",
        "--goal", "(p | q) => p, q", "--budget-nodes", "1",
    ])
    assert code == EXIT_BUDGET


def test_prove_json_stats(capsys):
    argv = ["prove", "--calculus", "r-b", "--premises", "~(p & q)",
            "--goal", "~p | ~q", "--json"]
    assert run(argv) == EXIT_POSITIVE
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats == {
        "route": "cdcl", "universe": 18, "instances": 18, "assignments": 8,
        "conflicts": 1, "core": 3, "steps": 5, "nodes": 5, "reused": 0,
        "valuations": 16,
    }
    # refuted on pp6h-ub before any grounding: Ω is every formula of the
    # sequent's four subformulas that the witness designates, here none
    argv = ["prove", "--calculus", "r-leq", "--goal", "(p | q) => p, q",
            "--json"]
    assert run(argv) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "refuted"
    assert data["stats"] == {
        "route": "model", "universe": 4, "instances": 0, "assignments": 0,
        "conflicts": 0, "core": 0, "steps": 0, "nodes": 0, "reused": 0,
        "valuations": 8,
    }
    assert data["omega"] == []


def test_prove_refutation_without_countermodel(capsys):
    # dm4-bt, r-b's only model, has no @: the clause set has a model, but no
    # countermodel can exist and no larger budget changes that
    code = run(["prove", "--calculus", "r-b", "--goal", "@q"])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.strip() == "Inconclusive."


def test_prove_negative_budget_is_usage_error(capsys):
    argv = ["prove", "--calculus", "r-b", "--goal", "q", "--budget-nodes", "-5"]
    assert run(argv) == EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err


def test_prove_inconclusive(capsys):
    # moisil has no analyticity set: its model does not refute |- q => q,
    # and its clause set has a model after 212 assignments, which refutes
    # nothing and is no budget exhausted
    argv = ["prove", "--calculus", "moisil", "--goal", "q => q"]
    assert run(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.strip() == "Inconclusive."
    assert run(argv + ["--json"]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out) == {
        "result": "inconclusive",
        "stats": {
            "route": "cdcl", "universe": None, "instances": 66,
            "assignments": 212, "conflicts": 0, "core": 0, "steps": 0,
            "nodes": 0, "reused": 0, "valuations": 6,
        },
    }


@pytest.mark.parametrize("calc", ["moisil", "moisil-m12", "pp-top-rules"])
def test_prove_refutes_on_the_models_without_analyticity(calc, capsys):
    # pp6h-uht, which each calculus is sound for, refutes p |- q outright
    argv = ["prove", "--calculus", calc, "--premises", "p", "--goal", "q",
            "--json"]
    assert run(argv) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["route"] == "model" and data["omega"] == ["p"]
    assert data["countermodel"] == {
        "matrix": "pp6h-uht", "valuation": {"p": "ht", "q": "hf"},
    }


def test_prove_prints_an_empty_saturated_set_as_none(capsys):
    # r-m-a1's model is not single-valued: the clause set refutes |- p with
    # no formula designated
    argv = ["prove", "--calculus", "r-m-a1", "--goal", "p"]
    assert run(argv) == EXIT_NEGATIVE
    assert capsys.readouterr().out == (
        "Refuted. Countermodel on pp6a1-ub:\n  p = hf\nSaturated set: none\n"
    )
    assert run(argv + ["--json"]) == EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out)["omega"] == []


def test_steering_skips_models_without_a_subformula_connective(capsys):
    # r-pp-leq's models lack =>, which each sequent has only below its
    # formulas' heads; the steering once computed their truth rows anyway
    # and crashed with KeyError
    for premises, goal in (
        ("~~~(p => q)", "~(p => q)"),
        ("~~@(p => q)", "@(p => q)"),
        ("@(p => q), ~@(p => q)", "r"),
    ):
        argv = ["prove", "--calculus", "r-pp-leq", "--premises", premises,
                "--goal", goal]
        assert run(argv) == EXIT_POSITIVE
        out = capsys.readouterr()
        assert out.out.strip() == "Proved." and not out.err


def test_crash_is_not_an_answer(capsys, monkeypatch):
    # deep input is a syntax error now (test_deep_input_is_an_input_error),
    # so the crash is staged inside the check
    def crash(problem):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("mvlogic.semantics.check_consequence", crash)
    code = run(["check", "--matrix", "m-up", "--conclusions", "p"])
    assert code == EXIT_INTERNAL
    assert "RecursionError" in capsys.readouterr().err


def test_prove_unknown_calculus(capsys):
    code = run(["prove", "--calculus", "nonesuch", "--goal", "p"])
    assert code == EXIT_USAGE


def test_check_holds(capsys):
    code = run([
        "check", "--matrix", "pp6-ub",
        "--premises", "p", "--conclusions", "p", "--json",
    ])
    assert code == EXIT_POSITIVE
    # p |- p: no matrix can designate p and not designate it, so no
    # component is visited
    assert json.loads(capsys.readouterr().out) == {
        "result": "holds",
        "stats": {"path": "bitset", "components": 0, "assignments": 0},
    }


def test_check_fails_with_witness(capsys):
    code = run([
        "check", "--class", "pp6h-order", "--premises", "",
        "--conclusions", "(p | q) => p, q", "--json",
    ])
    assert code == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "fails"
    assert data["stats"] == {
        "path": "bitset", "components": 2, "assignments": 8,
    }
    # the reported witness undesignates every conclusion on the named matrix
    from mvlogic.formula import parse_formula
    from mvlogic.registry import KIND_MATRIX, lookup

    m = lookup(KIND_MATRIX, data["matrix"]).payload
    for text in ("(p | q) => p", "q"):
        rendered = {
            parse_formula(k): v for k, v in data["witness"].items()
        }
        assert rendered[parse_formula(text)] not in m.designated


def test_check_connective_outside_the_matrix(capsys):
    # pp6-ub has no =>: a usage error whatever the conclusions
    for conclusions in ("top", "q"):
        code = run([
            "check", "--matrix", "pp6-ub",
            "--premises", "p => q", "--conclusions", conclusions,
        ])
        assert code == EXIT_USAGE
        assert "imp" in capsys.readouterr().err


def test_check_needs_models(capsys):
    code = run(["check", "--premises", "p", "--conclusions", "p"])
    assert code == EXIT_USAGE


def test_soundness_positive(capsys):
    code = run(["soundness", "--calculus", "r-b"])
    assert code == EXIT_POSITIVE


def test_soundness_negative(capsys):
    code = run([
        "soundness", "--calculus", "moisil-m12", "--matrix", "pp6h-ub",
        "--json",
    ])
    assert code == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["unsound"][0]["rule"] == "m12"


def test_components(capsys):
    code = run(["components", "--matrix", "m-up", "--json"])
    assert code == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    assert len(data["components"]) == 4


def test_algebra_congruences(capsys):
    code = run(["algebra", "congruences", "--algebra", "pp6", "--json"])
    assert code == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    assert len(data["congruences"]) == 3


def test_algebra_check(capsys):
    code = run([
        "algebra", "check", "--algebra", "pp6h",
        "--identity", "@x == @~x",
    ])
    assert code == EXIT_POSITIVE
    code = run([
        "algebra", "check", "--algebra", "pp6h",
        "--identity", "x | ~x == top",
    ])
    assert code == EXIT_NEGATIVE
    code = run([
        "algebra", "check", "--algebra", "pp6h",
        "--identity", "no separator",
    ])
    assert code == EXIT_USAGE


def test_algebra_check_inequality(capsys):
    code = run([
        "algebra", "check", "--algebra", "pp6h", "--identity", "x & y <= x",
    ])
    assert code == EXIT_POSITIVE
    assert capsys.readouterr().out == "Valid.\n"
    code = run([
        "algebra", "check", "--algebra", "pp6h", "--identity", "x <= y",
    ])
    assert code == EXIT_NEGATIVE
    assert capsys.readouterr().out == "Counterexample: {'x': 'f', 'y': 'hf'}\n"


def test_algebra_check_syntax_error_position(capsys):
    code = run([
        "algebra", "check", "--algebra", "pp6h", "--identity", "x == y == z",
    ])
    assert code == EXIT_USAGE
    assert "unexpected character '=' (at position 7)" in capsys.readouterr().err


def test_interpolate_order_preserving(capsys):
    argv = [
        "interpolate", "--logic", "pp-leq", "--phi", "p", "--psi", "q",
        "--goal", "p & q",
    ]
    assert run(argv) == EXIT_POSITIVE
    assert capsys.readouterr().out == "q => p & q\nboth entailments verified\n"
    assert run(argv + ["--json"]) == EXIT_POSITIVE
    assert json.loads(capsys.readouterr().out) == {
        "interpolant": ["q => p & q"], "verified": True,
    }


def test_algebra_not_deterministic_is_usage_error(capsys):
    # pp6a1 is registered, but the algebra toolbox takes only deterministic
    # total algebras
    code = run(["algebra", "congruences", "--algebra", "pp6a1"])
    assert code == EXIT_USAGE
    assert "not deterministic" in capsys.readouterr().err


def test_algebra_check_connective_outside_the_algebra(capsys):
    code = run([
        "algebra", "check", "--algebra", "dm4", "--identity", "@x == x",
    ])
    assert code == EXIT_USAGE
    assert "circ" in capsys.readouterr().err


def test_interpolate(capsys):
    code = run([
        "interpolate", "--logic", "pp-top", "--phi", "p",
        "--goal", "p | q", "--json",
    ])
    assert code == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    assert data["interpolant"] == "p & @p"


def test_export_matrix_round_trip(capsys):
    code = run(["export", "--kind", "matrix", "--name", "pp6h-ub"])
    assert code == EXIT_POSITIVE
    m = matrix_from_json(capsys.readouterr().out)
    assert m.designated == {"b", "t", "ht"}


def test_export_calculus_round_trip(capsys):
    code = run(["export", "--kind", "calculus", "--name", "r-b"])
    assert code == EXIT_POSITIVE
    calc = calculus_from_json(capsys.readouterr().out)
    assert len(calc.rules) == 18


def _exported(tmp_path, capsys, kind, name):
    """An @path argument naming a file that holds mvl export's output."""
    assert run(["export", "--kind", kind, "--name", name]) == EXIT_POSITIVE
    path = tmp_path / (name + ".json")
    path.write_text(capsys.readouterr().out)
    return "@%s" % path


def _same_output(capsys, argv, by_name, by_file):
    """Runs argv with by_name and then with by_file substituted for the
    "NAME" placeholder; both print the same and exit alike."""
    outputs = []
    for arg in (by_name, by_file):
        code = run([arg if a == "NAME" else a for a in argv])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    return outputs[0]


def test_exports_read_back_through_file_arguments(tmp_path, capsys):
    rb = _exported(tmp_path, capsys, "calculus", "r-b")
    for premises, goal, code in [("p", "p | q", EXIT_POSITIVE),
                                 ("~(p & q)", "~p | ~q", EXIT_POSITIVE)]:
        got = _same_output(capsys, ["prove", "--calculus", "NAME", "--premises",
                                    premises, "--goal", goal, "--json"], "r-b", rb)
        assert got[0] == code
    base = _exported(tmp_path, capsys, "matrix", "pp6a1-ub")
    refined = _exported(tmp_path, capsys, "matrix", "letk-ub")
    code, out = _same_output(
        capsys, ["axiomatize", "--base", "NAME", "--refined", refined,
                 "--max-depth", "3", "--simplify"], "pp6a1-ub", base,
    )
    assert code == EXIT_POSITIVE
    assert len(json.loads(out)["rules"]) == 72
    # the export of a matrix carries its algebra
    for what in ("profile", "congruences", "subalgebras"):
        code, out = _same_output(capsys, ["algebra", what, "--algebra", "NAME"],
                                 "letk", refined)
        assert code == EXIT_POSITIVE and out


def test_prove_calculus_incomplete_for_its_models_is_input_error(tmp_path, capsys):
    # without rules every partition is saturated, but no dm4-bt valuation
    # designates p & q and not p
    assert run(["export", "--kind", "calculus", "--name", "r-b"]) == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    data["rules"] = []
    path = tmp_path / "norules.json"
    path.write_text(json.dumps(data))
    argv = ["prove", "--calculus", "@%s" % path, "--premises", "p & q",
            "--goal", "p"]
    assert run(argv) == EXIT_USAGE
    assert "no model realizes" in capsys.readouterr().err


def test_prove_calculus_with_duplicate_rule_names_is_input_error(tmp_path, capsys):
    # a tree names its steps' rules, so two rules sharing a name would let
    # one rule's step be checked against the other
    assert run(["export", "--kind", "calculus", "--name", "r-b"]) == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    for rule in data["rules"]:
        if rule["name"] in ("r6", "r13"):  # ~~p / p and p / p | q
            rule["name"] = "dup"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    for premises, goal in (("~~p", "p | q"), ("~~p", "p")):
        argv = ["prove", "--calculus", "@%s" % path, "--premises", premises,
                "--goal", goal, "--json"]
        assert run(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert not out.out and "two rules named 'dup'" in out.err


def test_malformed_file_argument_is_usage_error(tmp_path, capsys):
    cases = [
        ("broken.json", '{"name": ', ["prove", "--goal", "p", "--calculus"]),
        ("norules.json", '{"name": "x"}', ["prove", "--goal", "p", "--calculus"]),
        ("noconn.json", '{"name": "x"}', ["algebra", "profile", "--algebra"]),
        ("list.json", "[1, 2]", ["axiomatize", "--refined", "letk-ub", "--base"]),
    ]
    for name, text, argv in cases:
        path = tmp_path / name
        path.write_text(text)
        assert run(argv + ["@%s" % path]) == EXIT_USAGE
        assert "is not a valid export" in capsys.readouterr().err


def test_incomplete_table_is_input_error(tmp_path, capsys):
    # a table must have one entry per tuple of the carrier; a missing entry
    # or a key outside the carrier used to crash evaluation with KeyError
    assert run(["export", "--kind", "matrix", "--name", "dm4-bt"]) == EXIT_POSITIVE
    exported = capsys.readouterr().out
    missing, stray = json.loads(exported), json.loads(exported)
    del missing["connectives"]["and"]["table"]["t,t"]
    stray["connectives"]["neg"]["table"]["zz"] = ["t"]
    for name, data in (("missing", missing), ("stray", stray)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(data))
        for argv in (["check", "--premises", "p & q", "--conclusions", "p",
                      "--matrix"],
                     ["components", "--matrix"],
                     ["algebra", "profile", "--algebra"]):
            assert run(argv + ["@%s" % path]) == EXIT_USAGE
            assert "one entry per" in capsys.readouterr().err


def _edited_export(tmp_path, capsys, kind, name, edit):
    """An @path argument naming a file that holds mvl export's output with
    edit applied to its JSON data."""
    arg = _exported(tmp_path, capsys, kind, name)
    path = Path(arg[1:])
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return arg


def _fails_as_input_error(capsys, argv, message):
    assert run(argv) == EXIT_USAGE
    out = capsys.readouterr()
    assert not out.out and message in out.err


def test_matrix_export_repeating_a_value_is_input_error(tmp_path, capsys):
    # the kernel's tables number the values by their place in the carrier;
    # a repeated value used to crash them with KeyError (exit 4)
    path = _edited_export(tmp_path, capsys, "matrix", "dm4-bt",
                          lambda data: data["values"].append("t"))
    for argv in (["check", "--conclusions", "p", "--matrix", path],
                 ["algebra", "profile", "--algebra", path]):
        _fails_as_input_error(capsys, argv, "value 't' is listed twice in the carrier")


def test_matrix_export_with_an_empty_carrier_is_input_error(tmp_path, capsys):
    # an empty carrier once made every sequent hold and left congruences
    # and components empty
    def empty(data):
        data.update(values=[], designated=[], connectives={})

    path = _edited_export(tmp_path, capsys, "matrix", "dm4-bt", empty)
    for argv in (["check", "--matrix", path, "--conclusions", "p"],
                 ["algebra", "congruences", "--algebra", path],
                 ["components", "--matrix", path]):
        _fails_as_input_error(capsys, argv, "a carrier needs at least one value")


def test_matrix_export_with_values_outside_the_carrier_is_input_error(tmp_path, capsys):
    def wrong_arity(data):
        table = data["connectives"]["and"]["table"]
        table["b,b,t"] = table.pop("b,b")

    def stray_output(data):
        data["connectives"]["neg"]["table"]["b"] = ["zz"]

    def stray_designated(data):
        data["designated"].append("zz")

    for edit, message in [
        (wrong_arity, "(ValueError: entry 'b,b,t' has the wrong arity)"),
        (stray_output, "table for 'neg' outputs values outside the carrier"),
        (stray_designated, "designated values outside the carrier"),
    ]:
        path = _edited_export(tmp_path, capsys, "matrix", "dm4-bt", edit)
        _fails_as_input_error(capsys, ["check", "--conclusions", "p", "--matrix", path],
                              message)


def test_algebra_filters_need_a_lattice_reduct(tmp_path, capsys):
    path = _edited_export(tmp_path, capsys, "matrix", "dm4-bt",
                          lambda data: data["connectives"].pop("or"))
    _fails_as_input_error(capsys, ["algebra", "filters", "--algebra", path],
                          "filters need a lattice reduct")


def test_algebra_check_needs_an_identity(capsys):
    _fails_as_input_error(capsys, ["algebra", "check", "--algebra", "dm4"],
                          "algebra check needs --identity 'lhs == rhs' or 'lhs <= rhs'")


def test_soundness_of_a_calculus_without_models_needs_them_named(tmp_path, capsys):
    path = _edited_export(tmp_path, capsys, "calculus", "r-b",
                          lambda data: data.update(models=[]))
    _fails_as_input_error(capsys, ["soundness", "--calculus", path],
                          "calculus has no declared models; pass --matrix/--class")
    assert run(["soundness", "--calculus", path, "--matrix", "dm4-bt"]) == EXIT_POSITIVE


def test_axiomatize_a_matrix_that_is_no_refinement_is_input_error(capsys):
    # pp6h-ub interprets =>, which pp6-ub lacks; pp6h-uf designates more
    for refined, message in (("pp6h-ub", "connectives differ: imp"),
                             ("pp6h-uf", "designated sets differ")):
        _fails_as_input_error(
            capsys, ["axiomatize", "--base", "pp6-ub", "--refined", refined], message,
        )


def test_check_wide_balanced_conjunction(capsys):
    # 999 domain formulas but nesting 9: the valuation search once recursed
    # per domain formula and crashed with RecursionError on pp6a1-ub
    def balanced(names):
        if len(names) == 1:
            return names[0]
        half = len(names) // 2
        return "(%s & %s)" % (balanced(names[:half]), balanced(names[half:]))

    conclusion = balanced(["p%d" % i for i in range(500)])
    for matrix, path in (("pp6a1-ub", "backtrack"), ("pp6-ub", "bitset")):
        code = run(["check", "--matrix", matrix, "--conclusions", conclusion, "--json"])
        assert code == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == "fails" and data["stats"]["path"] == path
        assert set(data["witness"].values()) == {"hf"}


def test_unknown_kind_is_usage_error(capsys):
    assert run(["list", "--kind", "matrices"]) == EXIT_USAGE
    assert run(["export", "--kind", "algebra", "--name", "dm4"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_list(capsys):
    code = run(["list", "--kind", "calculus", "--json"])
    assert code == EXIT_POSITIVE
    data = json.loads(capsys.readouterr().out)
    assert "r-leq" in data["calculus"]


def test_prove_dot_export(tmp_path, capsys):
    out = tmp_path / "proof.dot"
    code = run([
        "prove", "--calculus", "r-b",
        "--premises", "~(p & q)", "--goal", "~p | ~q",
        "--dot", str(out),
    ])
    assert code == EXIT_POSITIVE
    assert out.read_text().startswith("digraph proof {")


def test_axiomatize_unseparated_within_depth_is_out_of_budget(capsys):
    # pp6a1-ub is separated at depth 1: depth 0 shows no separator yet,
    # which is not a proof that the matrix is not monadic
    argv = ["axiomatize", "--base", "pp6a1-ub", "--refined", "letk-ub",
            "--max-depth", "0"]
    assert run(argv) == EXIT_BUDGET
    out = capsys.readouterr().out
    assert "Not monadic" not in out
    assert "up to depth 0" in out
    assert run(argv + ["--json"]) == EXIT_BUDGET
    assert json.loads(capsys.readouterr().out) == {
        "result": "out-of-budget", "unseparated": ["hf", "f"], "explored": 3,
        "depth": 0, "candidates": 0,
    }


def test_axiomatize_saturated_clone_is_not_monadic(capsys):
    # the unary clone of pp6h-ut saturates at 192 functions without
    # separating n from b
    argv = ["axiomatize", "--base", "pp6h-ut", "--refined", "pp6h-ut",
            "--max-depth", "99", "--json"]
    assert run(argv) == EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out) == {
        "result": "not-monadic", "witness": ["n", "b"], "explored": 192,
        "depth": 5, "candidates": 74_304,
    }


def test_axiomatize_negative_depth_is_usage_error(capsys):
    argv = ["axiomatize", "--base", "pp6a1-ub", "--refined", "letk-ub",
            "--max-depth", "-1"]
    assert run(argv) == EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err


def test_set_fmla_goal_count_is_input_error(capsys):
    code = run(["prove", "--calculus", "moisil", "--goal", "p, q"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exactly one goal formula" in err


def test_exported_calculus_keeps_framework_and_models(tmp_path, capsys):
    moisil = _exported(tmp_path, capsys, "calculus", "moisil")
    answers = []
    for arg in ("moisil", moisil):
        code = run(["prove", "--calculus", arg, "--goal", "p, q",
                    "--budget-nodes", "2000"])
        answers.append((code, capsys.readouterr().err))
    assert answers[0] == answers[1]
    assert answers[0][0] == EXIT_USAGE
    # the models come back too: soundness needs no --matrix or --class
    r_leq = _exported(tmp_path, capsys, "calculus", "r-leq")
    for premises, goal in [("", "(p | q) => p, q"), ("~(p & q)", "~p | ~q")]:
        _same_output(capsys, ["prove", "--calculus", "NAME", "--premises",
                              premises, "--goal", goal, "--json"],
                     "r-leq", r_leq)
    code, out = _same_output(capsys, ["soundness", "--calculus", "NAME"],
                             "r-leq", r_leq)
    assert code == EXIT_POSITIVE and out.startswith("Sound")


def test_deep_input_is_an_input_error(capsys):
    n = MAX_NESTING
    for text, ok in [
        ("~" * n + "p", True), ("~" * (n + 1) + "p", False),
        ("(" * n + "p" + ")" * n, True),
        ("(" * (n + 1) + "p" + ")" * (n + 1), False),
        ("~" * 3000 + "p", False),
    ]:
        code = run(["check", "--class", "pp6h-order", "--conclusions", text])
        err = capsys.readouterr().err
        if ok:
            assert code == EXIT_NEGATIVE and not err
        else:
            assert code == EXIT_USAGE
            assert "nested more than %d levels deep" % n in err


def test_axiomatize_json_reports_the_discriminator(tmp_path, capsys):
    # the separator found at depth 1, as on the negative answers; the text
    # output stays the calculus alone, and both read back as a calculus
    argv = ["axiomatize", "--base", "pp6a1-ub", "--refined", "letk-ub",
            "--max-depth", "1"]
    assert run(argv) == EXIT_POSITIVE
    text = capsys.readouterr().out
    assert run(argv + ["--json"]) == EXIT_POSITIVE
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data.pop("discriminator") == {
        "explored": 5, "depth": 1, "candidates": 6,
    }
    assert data == json.loads(text)
    assert calculus_from_json(out).rules == calculus_from_json(text).rules
    path = tmp_path / "refinement.json"
    path.write_text(out)
    argv = ["prove", "--calculus", "@%s" % path, "--premises", "p", "--goal", "p"]
    assert run(argv) == EXIT_POSITIVE
    assert "Proved" in capsys.readouterr().out


def test_mvl_entry_point_passes_exit_codes_to_the_shell():
    # main(), the mvl console script, run as a program of its own
    env = dict(os.environ, PYTHONPATH=str(Path(mvlogic.__file__).parents[1]))

    def mvl(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mvlogic.cli", *argv],
            capture_output=True, text=True, env=env,
        )

    assert mvl("list").returncode == EXIT_POSITIVE
    failing = mvl("check", "--matrix", "pp6h-ub", "--premises", "q",
                  "--conclusions", "p")
    assert failing.returncode == EXIT_NEGATIVE
    bad = mvl("prove", "--calculus", "r-leq", "--premises", "p, q &",
              "--goal", "q")
    assert bad.returncode == EXIT_USAGE
    assert "unexpected end of input (at position 6)" in bad.stderr
    inconclusive = mvl("prove", "--calculus", "moisil", "--goal", "q => q")
    assert inconclusive.returncode == EXIT_INCONCLUSIVE
    refuted = mvl("prove", "--calculus", "moisil", "--premises", "p",
                  "--goal", "q")
    assert refuted.returncode == EXIT_NEGATIVE
