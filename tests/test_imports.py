"""Package modules import their siblings at the top, use every import, and
use every private name they define."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sympind"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """Name bound by each top-level import, except __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module) -> set:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{module.name} imports but never uses: {', '.join(unused)}"


def _local_relative_imports(tree: ast.Module):
    """Line and module of each relative import inside a function body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    yield f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_sibling_imports_sit_at_module_top(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    local = list(_local_relative_imports(tree))
    assert not local, f"{module.name} imports a sibling inside a function: {'; '.join(local)}"


def _private_definitions(tree: ast.Module):
    """Private (single-underscore) names a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _package_references() -> set:
    """Every name the package loads, imports by name, or reads as an attribute."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                refs |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_private_names_are_used(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    dead = sorted(set(_private_definitions(tree)) - _package_references())
    assert not dead, f"{module.name} defines but never uses: {', '.join(dead)}"


def _scipy_linalg_imports(tree: ast.Module):
    """Line of each import from scipy.linalg, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "scipy":
                modules += [f"scipy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_scipy_linalg(module):
    """scipy.linalg's solvers end in its own OpenBLAS getrs, which takes the
    threaded path at any matrix size: one small call per random draw kept a
    helper thread busy-waiting, doubling the CPU of the axiom suites.  The
    package does its small-matrix linear algebra with numpy alone."""
    tree = ast.parse(module.read_text(encoding="utf-8"))
    lines = list(_scipy_linalg_imports(tree))
    assert not lines, f"{module.name} imports scipy.linalg at lines {lines}"
