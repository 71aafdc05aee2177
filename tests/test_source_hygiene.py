"""Static checks on the library source: every import is used and sits at module level,
``__all__`` resolves."""

import ast
from pathlib import Path

import pytest

import skece

MODULES = sorted(Path(skece.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, by name or through ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "x = np.zeros(field)\n"
    )
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def nested_imports(source: str) -> list[int]:
    """Line numbers of the imports that sit inside a function, class or block."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


def test_checker_sees_a_nested_import():
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    from .analysis import pearson\n"
        "    return pearson\n"
        "if np:\n"
        "    import os\n"
    )
    assert nested_imports(source) == [3, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_every_exported_name_resolves():
    missing = [name for name in skece.__all__ if not hasattr(skece, name)]
    assert missing == []
    assert len(set(skece.__all__)) == len(skece.__all__)
