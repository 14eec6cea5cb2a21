"""The repository's settings: pytest's, run on a probe file in a subprocess,
the package's standard-library-only imports, its unread definitions, the
README's constants, and the one edge test of each ring class."""
import ast
import inspect
import re
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


def _module_level_names(tree):
    """(name, node) for each function, class and assigned name at module level;
    node is the definition, whose own body does not count as a read of it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, None


def _names_read(tree, skip):
    """Names loaded, attributes loaded and names imported from the package,
    anywhere in `tree` outside the node `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_level_definition_is_read_or_exported():
    # a helper whose last caller was deleted shows up here
    import ucayley
    src = Path(__file__).resolve().parents[1] / "src" / "ucayley"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    unread = [(module, name) for module, tree in trees.items()
              for name, node in _module_level_names(tree)
              if not name.startswith("__") and name not in ucayley.__all__
              and not any(name in _names_read(other, node if other is tree else None)
                          for other in trees.values())]
    assert unread == []


def test_readme_constants_are_defined():
    # a code span of two or more capitals, digits and underscores, such as
    # `DEFAULT_RING_CAP`, names a module-level definition of the package
    root = Path(__file__).resolve().parents[1]
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", (root / "README.md").read_text()))
    defined = {name for path in sorted((root / "src" / "ucayley").glob("*.py"))
               for name, _ in _module_level_names(ast.parse(path.read_text(), str(path)))}
    assert named and sorted(named - defined) == []


def test_each_ring_class_defines_only_the_edge_test():
    # x is a unit iff x ~ 0 in Gamma(R), so `_adjacent(a, b)` is the one
    # predicate a ring class defines, and only Ring builds is_unit, units and
    # adjacent on it (the benchmark's span wraps Ring.units); a full M(n, A)
    # alone also tests a set's independence by its own loop
    from ucayley import rings
    called = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(rings._build)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    classes = {cls for cls in map(vars(rings).get, called)
               if isinstance(cls, type) and issubclass(cls, rings.Ring)}
    assert {type(rings._build(rings.parse_spec(text))) for text in
            ("Z(2)", "GF(4)", "M(2,Z(2))", "T(2,GF(2))", "prod(Z(2),Z(3))")} == classes
    for cls in classes:
        assert "_adjacent" in vars(cls), cls
        for klass in cls.__mro__[:cls.__mro__.index(rings.Ring)]:
            assert not {"is_unit", "units", "adjacent"} & vars(klass).keys(), klass
            assert klass is rings.MatRing or \
                vars(klass).get("independent", rings.Ring.independent) is rings.Ring.independent, klass
    assert "independent" in vars(rings.MatRing)
    assert rings.TriRing.independent is rings.Ring.independent


def test_pyproject_lists_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with PYPROJECT.open("rb") as f:
        assert tomllib.load(f)["project"].get("dependencies", []) == []
