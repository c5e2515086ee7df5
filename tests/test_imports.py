"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import lpvident

_SRC = Path(lpvident.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    paths = [p for p in sorted(_SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths
    assert [u for p in paths for u in _unused_imports(p)] == []
