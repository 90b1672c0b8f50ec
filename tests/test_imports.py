"""Every name a `src/fedfocal` module imports is used in it, and every
private module-level name it defines is read somewhere in `src/fedfocal`.
A deletion that leaves an import or a private helper behind fails here; a
name listed in the module's `__all__` counts as used, since it is
re-exported. And a run imports no module that `import fedfocal.cli` did
not."""

import ast
import functools
import subprocess
import sys
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


def private_definitions(source: str) -> list[str]:
    """The private names (one leading underscore, dunders aside) that the
    module source binds at its top level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def names_read(source: str) -> set[str]:
    """The names the module source reads: as a name, as an attribute of
    anything, or by importing it from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


@functools.cache
def read_in_src() -> frozenset[str]:
    return frozenset().union(*(names_read(p.read_text()) for p in SRC.glob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert [n for n in private_definitions(path.read_text()) if n not in read_in_src()] == []


def test_the_scan_finds_an_unread_private_name():
    defining = ("import numpy as np\n__version__ = '1'\n_A: int = 1\n_B, (_C, d) = 1, (2, 3)\n"
                "def _f():\n    _inner = 1\n    return _inner\nclass _K:\n    pass\n"
                "def _g():\n    return _A\n")
    reading = "from .m import _C\nimport m\nm._K()\n_f = None\n"
    read = names_read(defining) | names_read(reading)
    assert [n for n in private_definitions(defining) if n not in read] == ["_B", "_f", "_g"]


# numpy 2 imports numpy.random on first use, and every run uses it
RUN_PROBE = """import sys, tempfile
sys.path.insert(0, sys.argv[1])
import fedfocal.cli
import numpy.random
from fedfocal import experiment as X
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    X.run_experiment(X.preset_config("smoke").with_overrides({"federation.rounds": 2}), out)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_run_imports_no_module_of_its_own():
    """A module a run imports lazily (numpy.ma, which np.unique pulls in,
    is about 1 MiB) raises the run's peak RSS, an end-to-end metric. Only
    the codecs that writing ASCII files loads may come in during a run."""
    done = subprocess.run([sys.executable, "-c", RUN_PROBE, str(SRC.parent)],
                          capture_output=True, text=True, timeout=300, check=True)
    added = done.stdout.split()
    assert [m for m in added if not m.startswith("encodings.")] == [], added
