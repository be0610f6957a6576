"""The functions that perfbench/run.py wraps by attribute name to time each
layer.  Its tracer records a name it cannot find as absent and carries on,
so a rename would silently read 0 for that layer's metric; this test fails
instead.  The pairs are read from the ``wraps`` list of install_tracer in
perfbench/run.py itself, so a wrap added there is checked too."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# install_tracer's short names for mvlogic's modules; mv.<module> is the
# module itself
ALIASES = {"calc": "calculus", "sem": "semantics", "ax": "axiomatizer"}


def _module(owner):
    """The mvlogic module an owner expression of the wraps list names."""
    if isinstance(owner, ast.Name):
        return ALIASES[owner.id]
    assert isinstance(owner, ast.Attribute) and owner.value.id == "mv"
    return owner.attr


def wrapped():
    """(module, attribute) for each entry of the wraps list, the attribute
    dotted when the owner is a class, getattr(<module>, "<class>", None)."""
    tree = ast.parse(RUN.read_text())
    (wraps,) = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "wraps"
    ]
    out = []
    for entry in wraps.elts:
        owner, attr = entry.elts[0], entry.elts[1].value
        if isinstance(owner, ast.Call):
            # getattr(<module>, "<class>", None)
            module, cls = owner.args[0], owner.args[1].value
            out.append((_module(module), "%s.%s" % (cls, attr)))
        else:
            out.append((_module(owner), attr))
    return out


WRAPPED = wrapped()


def test_every_wrap_is_read():
    assert len(WRAPPED) == 19
    assert len(set(WRAPPED)) == len(WRAPPED)


@pytest.mark.parametrize("module, name", WRAPPED)
def test_benchmark_wraps_exist(module, name):
    owner = import_module("mvlogic." + module)
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
