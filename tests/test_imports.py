"""Every name a library module imports is used in that module.

Package `__init__.py` files only re-export, so they are left out.  A name
that perfbench imports from a module counts as used there: the benchmark
reaches it through that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regencodes"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of a module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _perfbench_imports() -> dict[str, set[str]]:
    """Module name -> the names perfbench imports from it."""
    out: dict[str, set[str]] = {}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regencodes"):
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_no_unused_imports():
    kept = _perfbench_imports()
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        used = _used(tree) | kept.get(module, set())
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_check_finds_an_unused_import():
    tree = ast.parse("from .errors import SingularMatrix, ParamsInvalid\n"
                     "raise ParamsInvalid('x')\n")
    assert set(_imported(tree)) - _used(tree) == {"SingularMatrix"}
