"""The test configuration itself, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis's plugin imports libcst to write a patch for a failing
    # example; a DeprecationWarning on that import, made an error by
    # filterwarnings, would end the session with INTERNALERROR before the
    # example is printed or the next test runs
    (tmp_path / "test_throwaway.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))  # fmt: skip
    argv = ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_throwaway.py"]
    run = subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
