"""The Tier-1 conftest's error filter must not abort a test run when a
hypothesis test fails: every test still runs and is counted."""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

FAILING_AND_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(0, 3))
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_given_test_is_counted_not_an_internal_error(tmp_path):
    shutil.copy(os.path.join(HERE, "conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
