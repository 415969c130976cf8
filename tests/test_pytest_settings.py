"""The repository's pytest settings: every warning is an error, yet a failing
hypothesis test is reported as a failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_a_passing_test():
    pass
'''


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    """hypothesis's report hook warns that ``mypy_extensions.TypedDict`` is
    deprecated; as an error, that warning ends the pytest run with INTERNALERROR
    and leaves every later test unreported."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1
    assert "1 failed, 1 passed" in output
