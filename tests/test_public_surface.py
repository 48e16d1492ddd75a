"""Every public function, class and method in the package is used by the
package, every name a module imports is used in that module, and every
config setting that chooses code is run by a digest config.

A public top-level function or class counts as used when an ``ast.Name``
or ``ast.Attribute`` with its name appears somewhere in ``src/gametrace/``
outside its own definition and outside ``__init__.py`` (the re-exports there
are not a use). A public method counts as used only through an
``ast.Attribute``, so a local variable of the same name, such as ``total``,
does not hide it; an attribute of the same name on another object, such as
numpy's ``rng.random(...)``, still can. Code nothing runs is deleted, or kept
with its reason in ``KEPT``.

A config field counts as run when some config of
``scripts/artifact_digests.py`` sets it to a value other than its default,
so that the digest run pins the bytes that value makes. A field that none
sets is named in ``UNPINNED`` with its reason.

An exception class in ``errors.py`` is its exit code and its message; it
exists only when it carries a decision (see ``test_every_error_class_carries_a_decision``).
"""

import ast
import importlib.util
from dataclasses import fields, is_dataclass
from pathlib import Path

from gametrace.config import RunConfig, load_config

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gametrace"

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


# Config fields no digest config sets away from their default, each kept
# for a stated reason.
UNPINNED = {
    "workdir": "a path; the digest run passes --workdir",
    "events_path": "a path, by default inside the workdir",
    "labels_path": "a path, by default inside the workdir",
    "seed": "the digest run passes --seed",
    "protocol": "the digest run passes benchmark both --protocol values",
    "question_groups": "data for the label join; every mapping runs the same code",
    "split.test_fraction": "a number; it selects no code path",
    "selection.mi_bins": "a number; it selects no code path",
    "knn.k": "a number; it selects no code path",
    "knn.folds": "a number; it selects no code path",
    "mlp.learning_rate": "a number; it selects no code path",
    "mlp.batch_size": "a number; it selects no code path",
    "mlp.folds": "a number; it selects no code path",
    "forest.folds": "a number; it selects no code path",
    "synth.sessions": "the digest run passes --sessions",
    "synth.events_per_session": "the digest run passes --events-per-session",
    "synth.weights": "numbers; they select no code path",
    "synth.bias": "a number; it selects no code path",
    "synth.null_rates": (
        "a rate of 0 skips that column's absent-cell draw; only tier-1's corpus "
        "tests need such a corpus, and test_synth.py checks its bytes"
    ),
    "synth.noise": (
        "0 skips the label-noise draw; only the noise-free corpora of "
        "test_synth.py and acceptance criterion 6 use it"
    ),
}


def _leaves(value, prefix=""):
    """(dotted name, value) of every field of a config that is not a section."""
    for f in fields(value):
        inner = getattr(value, f.name)
        if is_dataclass(inner):
            yield from _leaves(inner, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", inner


def pinned_fields() -> set[str]:
    """The fields some digest config sets to a value other than its default;
    loading every digest config also fails on a key the config no longer has."""
    spec = importlib.util.spec_from_file_location("artifact_digests", REPO / "scripts" / "artifact_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    defaults = dict(_leaves(RunConfig()))
    pinned = set()
    for path in digests.CONFIGS.values():
        pinned |= {name for name, v in _leaves(load_config(path)) if v != defaults[name]}
    return pinned


def test_every_setting_is_run_by_a_digest_config_or_kept_for_a_reason():
    known = pinned_fields() | set(UNPINNED)
    unpinned = [name for name, _ in _leaves(RunConfig()) if name not in known]
    assert unpinned == [], f"no digest config sets these (add one, delete them, or list them in UNPINNED): {unpinned}"


def test_unpinned_names_are_still_unpinned_fields():
    # An entry whose field is gone, or that a digest config now sets, goes.
    assert set(UNPINNED) <= {name for name, _ in _leaves(RunConfig())} - pinned_fields()


def _called_name(node) -> str | None:
    """The name an ``except`` type or a raised call carries, bare or dotted."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def error_classes_without_a_decision() -> list[str]:
    classes = [n for n in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(n, ast.ClassDef)]
    bases = {_called_name(b) for c in classes for b in c.bases}
    caught: set[str] = set()
    raised_in: dict[str, set[str]] = {}
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {_called_name(t) for t in types}
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised_in.setdefault(_called_name(node.exc.func), set()).add(module)
    return [c.name for c in classes if c.name not in caught | bases and len(raised_in.get(c.name, ())) < 2]


def test_every_error_class_carries_a_decision():
    """An error class stays only when an ``except`` in the package names it,
    another error class extends it, or two or more modules raise it with its
    shared message format. Otherwise a raise site raises its family
    (ConfigError, DataError or InternalError) with the message text."""
    assert error_classes_without_a_decision() == []
