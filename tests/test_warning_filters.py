"""The pytest warning filters of pyproject.toml let the run go on past a failing test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # reporting a failing Hypothesis test imports libcst, which warns while importing
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-rA", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert any(line.startswith("PASSED") and line.endswith("::test_runs_after")
               for line in out.splitlines())
    assert "1 failed, 1 passed" in out
