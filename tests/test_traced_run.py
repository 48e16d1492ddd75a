"""The benchmark's traced run patches gametrace names by module and attribute.

``perfbench/traced_cli.py`` lists them in ``TRACED``; a refactor that renames
or removes one would silently drop that layer from the per-layer trace. This
reads the list from the file's source without importing the script.
"""

import ast
import importlib
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def traced_entries():
    tree = ast.parse(TRACED_CLI.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in perfbench/traced_cli.py")


def test_every_traced_name_resolves():
    entries = traced_entries()
    assert entries
    for module_name, attr in entries:
        target = importlib.import_module(f"gametrace.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"gametrace.{module_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"gametrace.{module_name}.{attr}"


def test_tree_counters_find_their_types():
    forest = importlib.import_module("gametrace.forest")
    assert isinstance(forest.Leaf, type)
    assert "trees" in forest.ForestModel.__dataclass_fields__
