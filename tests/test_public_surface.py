"""Every public function, class and method in the package is used by the
package, and every name a module imports is used in that module.

A public top-level function or class counts as used when an ``ast.Name``
or ``ast.Attribute`` with its name appears somewhere in ``src/gametrace/``
outside its own definition and outside ``__init__.py`` (the re-exports there
are not a use). A public method counts as used only through an
``ast.Attribute``, so a local variable of the same name, such as ``total``,
does not hide it; an attribute of the same name on another object, such as
numpy's ``rng.random(...)``, still can. Code nothing runs is deleted, or kept
with its reason in ``KEPT``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gametrace"

# Public names no module calls, each kept for a stated reason.
KEPT = {
    "best_split": "acceptance criterion 5 checks the split scan through it",
    "mlp_backward": "acceptance criterion 3 checks the gradients through it",
    "aggregate": "the in-memory entry the tests and acceptance criteria 1 and 6 use",
    "kfold": "perfbench/traced_cli.py's TRACED list wraps it; the CLI plans folds as indices",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """(module, qualified name, bare name, line span) of every public definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in _modules():
        for node in tree.body:
            if not isinstance(node, kinds) or not _public(node.name):
                continue
            yield module, node.name, node.name, (node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and _public(item.name):
                        span = (item.lineno, item.end_lineno)
                        yield module, f"{node.name}.{item.name}", item.name, span


def _uses():
    """Module and line of every Name and of every Attribute, by the name they carry."""
    names: dict[str, list[tuple[str, int]]] = {}
    attributes: dict[str, list[tuple[str, int]]] = {}
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((module, node.lineno))
    return names, attributes


def unused_public_names() -> list[str]:
    names, attributes = _uses()
    unused = []
    for module, qualified, name, (first, last) in _definitions():
        uses = attributes.get(name, [])
        if qualified == name:  # a top-level name, not a method
            uses = uses + names.get(name, [])
        outside = [(m, line) for m, line in uses if m != module or not first <= line <= last]
        if not outside:
            unused.append(qualified)
    return unused


def test_every_public_name_is_used_or_kept_for_a_reason():
    unused = [name for name in unused_public_names() if name not in KEPT]
    assert unused == [], f"public but unused (delete, or add to KEPT with a reason): {unused}"


def test_kept_names_are_still_unused():
    # A kept name that gained a caller no longer needs its entry.
    assert set(KEPT) <= set(unused_public_names())


def unused_imports() -> list[str]:
    """``module: name`` for every name a module imports but never reads."""
    unused = []
    for module, tree in _modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []
