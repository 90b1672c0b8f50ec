"""Every name a `src/fedfocal` module imports is used in it. A deletion that
leaves an import behind fails here; a name listed in the module's `__all__`
counts as used, since it is re-exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fedfocal"


def unused_imports(source: str) -> list[str]:
    """The names the module source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import_and_honours_all():
    source = ("from __future__ import annotations\nimport math, numpy as np\n"
              "from .errors import ConfigError, ShapeError\n"
              "__all__ = ['ShapeError']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["math", "ConfigError"]
