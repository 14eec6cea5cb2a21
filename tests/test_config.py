"""The repository's settings: pytest's, run on a probe file in a subprocess,
and the package's standard-library-only imports."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_the_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src" / "ucayley"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with PYPROJECT.open("rb") as f:
        assert tomllib.load(f)["project"].get("dependencies", []) == []
