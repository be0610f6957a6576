"""The test configuration in pyproject.toml, and a scan of the package's
imports."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # warnings are errors, but one that hypothesis raises while it reports
    # a failing example once ended the run with INTERNALERROR, and no later
    # test ran
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted((ROOT / "src" / "mvlogic").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += ["%s: %s" % (path.name, name) for name in names if name not in read]
    assert unused == []


def _own(node):
    """Whether an import statement imports only the package's own modules."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.partition(".")[0] == "mvlogic"
    return all(a.name.partition(".")[0] == "mvlogic" for a in node.names)


def test_functions_import_only_the_package_s_own_modules():
    # a function may import one of the package's modules when it runs,
    # which keeps the cold start low; every other import is at the top
    late = set()
    for path in sorted((ROOT / "src" / "mvlogic").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            late |= {
                "%s:%d" % (path.name, node.lineno) for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not _own(node)
            }
    assert sorted(late) == []


def _bounded(call):
    """Whether an lru_cache call gives a finite int maxsize."""
    size = [k.value for k in call.keywords if k.arg == "maxsize"]
    size += call.args[:1]
    return bool(size) and isinstance(size[0], ast.Constant) and (
        type(size[0].value) is int
    )


def test_every_cache_is_bounded():
    # a long-running process keeps what a cache holds, so every
    # functools.lru_cache is given a finite maxsize and functools.cache,
    # which has none, is not used
    caches, unbounded = 0, []
    for path in sorted((ROOT / "src" / "mvlogic").glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {
            id(node.func): _bounded(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [
                    "%s:%d" % (path.name, node.lineno)
                    for a in node.names if a.name == "cache"
                ]
            if isinstance(node, ast.Attribute) and node.attr == "cache" and (
                getattr(node.value, "id", None) == "functools"
            ):
                unbounded.append("%s:%d" % (path.name, node.lineno))
            # a Name's id or an Attribute's attr
            if getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
                caches += 1
                if not calls.get(id(node)):
                    unbounded.append("%s:%d" % (path.name, node.lineno))
    assert caches > 0
    assert unbounded == []
