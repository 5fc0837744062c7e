"""The suite's own pytest settings: a failing test must not stop the session."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_fails_alone(tmp_path):
    """Hypothesis reports a failure by importing libcst, which warns a
    ``DeprecationWarning``; the suite's filters must not turn it into an
    internal error that ends the session before the next test runs."""
    shutil.copy(Path(__file__).parent.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_pair.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
