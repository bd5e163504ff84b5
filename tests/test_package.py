"""Package surface: one version string, a module-free `__all__`, and the
one-exact-solver decision (the Smith form) kept in the source."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import satake
from satake.report import build_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "satake"


def test_version_lives_in_pyproject_and_the_package():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == satake.__version__
    assert build_report("kottwitz", {}, {})["version"] == satake.__version__


def test_all_names_resolve_and_are_not_modules():
    assert satake.__all__
    for name in satake.__all__:
        assert not isinstance(getattr(satake, name), ModuleType), name


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_matrices_imports_nothing_from_fractions():
    for node in ast.walk(_tree("matrices.py")):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
        elif isinstance(node, ast.Import):
            assert all(a.name != "fractions" for a in node.names)


def test_rootdata_uses_fraction_only_in_simple_coefficients():
    tree = _tree("rootdata.py")
    uses = {id(n) for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "Fraction"}
    allowed = {id(n)
               for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)
               and f.name == "simple_coefficients"
               for n in ast.walk(f)
               if isinstance(n, ast.Name) and n.id == "Fraction"}
    assert uses and uses == allowed


def _callers(tree, name):
    """The innermost enclosing function ("" at module level) of every call
    of `name`, by bare name or as an attribute."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append(owner)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "")
    return found


def test_only_verify_ks_enumerates_the_weyl_group():
    """`weyl_group` is called in one place: the brute-force certificate
    `components.check_fixed_weyl_is_folded`."""
    callers = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _callers(_tree(path.name), "weyl_group")]
    assert callers == [("components", "check_fixed_weyl_is_folded")]
