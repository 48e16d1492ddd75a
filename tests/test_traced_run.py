"""The benchmark's traced run patches gametrace names by module and attribute.

``perfbench/traced_cli.py`` lists them in ``TRACED``; a refactor that renames
or removes one would silently drop that layer from the per-layer trace. This
reads the list from the file's source without importing the script.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACED_CLI = REPO / "perfbench" / "traced_cli.py"


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


# What ``install()`` relies on, in a fresh interpreter: right after
# ``import gametrace.cli`` every traced module is in ``sys.modules``, though
# a stage the CLI has not used yet is a lazy handle, and each traced
# attribute resolves through it.
_AFTER_CLI_IMPORT = """
import json, sys
import gametrace.cli

entries = json.loads(sys.argv[1])
missing = [m for m, _ in entries if f"gametrace.{m}" not in sys.modules]
unresolved = []
for module_name, attr in entries:
    target = sys.modules.get(f"gametrace.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part, None)
    if not callable(target):
        unresolved.append(f"{module_name}.{attr}")
print(json.dumps([missing, unresolved]))
"""


def test_cli_import_registers_every_traced_module():
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _AFTER_CLI_IMPORT, json.dumps(traced_entries())],
        env=env, capture_output=True, text=True, timeout=120,
    )
    missing, unresolved = json.loads(proc.stdout.splitlines()[-1])
    assert missing == []
    assert unresolved == []


def test_tree_counters_find_their_types():
    forest = importlib.import_module("gametrace.forest")
    assert isinstance(forest.Leaf, type)
    assert "trees" in forest.ForestModel.__dataclass_fields__
