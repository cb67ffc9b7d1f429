"""The project's pytest configuration itself: a failing Hypothesis property
is reported as one failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_THEN_PLAIN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 10


def test_passing():
    pass
'''


def test_a_failing_property_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports a module that raises a
    # DeprecationWarning; under filterwarnings = error, unless ignored,
    # it ends the run in an INTERNALERROR (exit 3) before the second test
    (tmp_path / "test_scratch.py").write_text(PROPERTY_THEN_PLAIN_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
