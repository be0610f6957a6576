"""The test configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
