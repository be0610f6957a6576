"""The functions that perfbench/run.py wraps by attribute name to time each
layer.  Its tracer records a name it cannot find as absent and carries on,
so a rename would silently read 0 for that layer's metric; this test fails
instead."""

from importlib import import_module

import pytest

# (module, attribute) as listed in install_tracer in perfbench/run.py
WRAPPED = [
    ("formula", "parse_formula_set"),
    ("formula", "parse_formula"),
    ("calculus", "prove"),
    ("calculus", "_build_instances"),
    ("calculus", "_model_truths"),
    ("calculus", "_Searcher.run"),
    ("calculus", "_prove_by_simulation"),
    ("calculus", "validate_tree"),
    ("calculus", "tree_to_json"),
    ("calculus", "tree_to_dot"),
    ("calculus", "countermodel_from_partition"),
    ("semantics", "check_consequence"),
    ("semantics", "check_rule_soundness"),
    ("semantics", "solve_valuations"),
    ("axiomatizer", "find_discriminator"),
    ("axiomatizer", "generate_refinement_rules"),
    ("axiomatizer", "subsume_simplify"),
    ("algebra", "unary_term_functions"),
    ("interpolation", "cip_failure_certificate"),
]


@pytest.mark.parametrize("module, name", WRAPPED)
def test_benchmark_wraps_exist(module, name):
    owner = import_module("mvlogic." + module)
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
