"""No module imports a name it never uses.

No linter ships with the project, and a deleted function easily leaves its
import behind.  __init__.py is skipped: its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in [*(ROOT / "src" / "udgcolor").glob("*.py"),
                           *(ROOT / "tests").glob("*.py"),
                           *(ROOT / "perfbench").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name.

    `import a.b` binds `a`; `from __future__ import ...` binds nothing.  A use
    anywhere in the module counts, also for an import inside a function.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport itertools as it\n"
              "from a import b, c as d\n"
              "def f():\n    from e import g\n    return os.sep, d\n")
    assert unused_imports(source) == ["line 3: it", "line 4: b", "line 6: g"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
