"""Every function the benchmark's layer trace looks up by name exists.

perfbench/layers.py wraps ``udgcolor`` functions named in its TIMED and
COUNTED tables, and fails at install time on a name that is gone.  The
tables are read here with ast, without importing the benchmark, so a
deleted or renamed function fails this test with its name.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def layer_tables(source: str) -> dict[str, dict[str, tuple[str, ...]]]:
    """The module-level TIMED and COUNTED dict literals of layers.py."""
    tables = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TIMED", "COUNTED")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_resolves_in_its_module():
    tables = layer_tables(LAYERS.read_text())
    assert set(tables) == {"TIMED", "COUNTED"}
    names = [(layer, fn) for table in tables.values()
             for layer, fns in table.items() for fn in fns]
    assert len(names) > 20
    missing = [f"udgcolor.{layer}.{fn}" for layer, fn in names
               if not callable(getattr(importlib.import_module(f"udgcolor.{layer}"), fn, None))]
    assert missing == []
