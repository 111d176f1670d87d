"""Every module-level function and class in src/udgcolor has a user.

A name counts as used when some part of src/udgcolor other than its own
definition reads it: as a name, as an attribute, or in an import (the
package's re-exports included).  Names in the benchmark's TIMED and
COUNTED tables are exempt while the benchmark traces them.
"""

import ast
from pathlib import Path

from test_layer_names import LAYERS, layer_tables

SRC = Path(__file__).resolve().parent.parent / "src" / "udgcolor"


def dead_names(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """`module.name` for each module-level def or class of sources (module
    -> source text) that no other top-level statement of any module reads,
    and that is not in exempt."""
    defined = []  # (module, name, defining node)
    read: list[tuple[ast.AST, set[str]]] = []  # (top-level node, names it reads)
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name, top))
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            read.append((top, names))
    return [f"{module}.{name}" for module, name, own in defined
            if f"{module}.{name}" not in exempt
            and not any(name in names for top, names in read if top is not own)]


def test_checker_sees_dead_and_used_names():
    sources = {"a": "def f():\n    return f()\n\n"
                    "def g():\n    pass\n\n"
                    "class C:\n    pass\n\n"
                    "def h():\n    return C\n\n"
                    "def t():\n    pass\n",
               "b": "from .a import g\n\n"
                    "def k(mod):\n    return mod.h\n"}
    assert dead_names(sources) == ["a.f", "a.t", "b.k"]
    assert dead_names(sources, exempt={"a.t"}) == ["a.f", "b.k"]


def test_every_function_and_class_has_a_user():
    traced = {f"{layer}.{fn}" for table in layer_tables(LAYERS.read_text()).values()
              for layer, fns in table.items() for fn in fns}
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources, exempt=traced) == []
