"""No module imports a name it never uses, and the package imports at
module level only, with no cycle, from itself and the standard library only.

No linter ships with the project, and a deleted function easily leaves its
import behind.  __init__.py is skipped: its imports are the re-exports.  An
import inside a function is how an import cycle hides, so the package has
none, and its modules' top-level relative imports form an acyclic graph.
"""

import ast
import sys
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


PACKAGE = sorted((ROOT / "src" / "udgcolor").glob("*.py"))


def function_level_imports(source: str) -> list[str]:
    """Each import statement inside a function body, as `line N: f`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"line {node.lineno}: {fn.name}" for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_package_imports_only_at_module_level():
    assert function_level_imports("import a\ndef f():\n    def g():\n        import b\n") == [
        "line 4: f", "line 4: g"]
    found = {p.name: function_level_imports(p.read_text()) for p in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def non_stdlib_imports(source: str) -> list[str]:
    """Each top-level module an import statement names that is neither
    relative nor in the standard library, as `line N: module`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_runtime_is_stdlib_only():
    assert non_stdlib_imports("from __future__ import annotations\nimport os.path, numpy\n"
                              "from . import core\nfrom .geom import Point\n"
                              "from fractions import Fraction\nfrom scipy.linalg import qr\n") == [
        "line 2: numpy", "line 6: scipy.linalg"]
    found = {p.name: non_stdlib_imports(p.read_text()) for p in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def instance_calls(source: str) -> list[str]:
    """Each call of Instance, by name or as an attribute, as `line N: f`
    for the innermost function holding it (`<module>` outside any)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == "Instance" or getattr(func, "attr", None) == "Instance":
                    found.append(f"line {child.lineno}: {where}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_build_instance_constructs_an_instance():
    """Every Instance has its points checked distinct and converted once, by
    core.build_instance; the audit covers its pieces without one."""
    assert instance_calls("a = Instance(1)\ndef f():\n    def g():\n"
                          "        return core.Instance(2)\n    return Instance(3)\n") == [
        "line 1: <module>", "line 4: g", "line 5: f"]
    found = {p.name: instance_calls(p.read_text()) for p in PACKAGE}
    assert [call.split(": ")[1] for call in found.pop("core.py")] == ["build_instance"]
    assert {name: calls for name, calls in found.items() if calls} == {}


def relative_imports(source: str) -> set[str]:
    """The sibling modules a module's top-level `from . import` and
    `from .m import` statements name."""
    named = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            named |= {node.module} if node.module else {a.name for a in node.names}
    return named


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """Some cycle of graph as its nodes, first one repeated at the end; []
    when there is none.  A depth-first search: a cycle is an edge back to a
    node on the current path."""
    done: set[str] = set()

    def visit(path):
        for nxt in sorted(graph.get(path[-1], ())):
            if nxt in path:
                return path[path.index(nxt):] + [nxt]
            if nxt not in done:
                cycle = visit(path + [nxt])
                if cycle:
                    return cycle
        done.add(path[-1])
        return []

    for node in sorted(graph):
        cycle = [] if node in done else visit([node])
        if cycle:
            return cycle
    return []


def test_package_modules_import_no_cycle():
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}}) == []
    graph = {p.stem: relative_imports(p.read_text()) for p in PACKAGE}
    assert graph["cover"] >= {"core", "oracles"}
    assert import_cycle(graph) == []


def package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name imported from the package, relatively or
    as `udgcolor.<module>`, anywhere in source; `import udgcolor...` as
    (module, "*")."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "udgcolor":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            found |= {(module or alias.name, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name.partition(".")[2] or a.name, "*") for a in node.names
                      if a.name.split(".")[0] == "udgcolor"}
    return found


def test_oracles_import_only_the_graph_the_cover_types_and_the_errors():
    """The oracles are the independent check path: from the package they
    take the graph, its complement and the two cover types, and errors."""
    assert package_imports("from .core import a\nfrom . import cover\n"
                           "from udgcolor.geom import b\nimport udgcolor.matching\n"
                           "import os\nfrom os import path\n") == {
        ("core", "a"), ("cover", "cover"), ("geom", "b"), ("matching", "*")}
    found = package_imports((ROOT / "src" / "udgcolor" / "oracles.py").read_text())
    assert {name for module, name in found if module == "core"} == {
        "AbstractGraph", "CliqueCover", "CliquePartition", "complement"}
    assert {module for module, _ in found} == {"core", "errors"}
