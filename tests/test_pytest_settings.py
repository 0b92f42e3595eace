"""The repository's pytest settings keep a run going past a failing test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test_after_it():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Warnings are errors, but hypothesis's failing-example report raises a
    # DeprecationWarning of its own; unfiltered, it becomes an INTERNALERROR
    # that ends the session before the next test runs.
    (tmp_path / "test_pair.py").write_text(_PAIR)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
