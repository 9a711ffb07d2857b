"""The test settings in ``pyproject.toml`` let a run report every test.

With warnings as errors, hypothesis's pytest plugin raised a
``DeprecationWarning`` while it built a failing ``@given`` test's report, and
pytest ended the session with ``INTERNALERROR``: every test after the
failing one went unreported. ``pyproject.toml`` ignores that one message.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = (
    "from hypothesis import given, strategies as st\n"
    "\n"
    "\n"
    "@given(st.integers())\n"
    "def test_fails(x):\n"
    "    assert x != x\n"
    "\n"
    "\n"
    "def test_passes():\n"
    "    pass\n"
)


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
