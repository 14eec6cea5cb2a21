"""The repository's pytest settings, run on a probe file in a subprocess."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_property_test_does_not_end_the_run(tmp_path):
    # Reporting a failing @given example imports libcst, whose import warns;
    # under filterwarnings = error that ended pytest with INTERNALERROR (exit 3)
    # before any later test ran.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
