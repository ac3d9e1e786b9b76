"""No module of the package imports another's private names, but the few
listed here, and each reads every name it imports, but the tracer's."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "outerlabel"
TRACING = ROOT / "perfbench" / "tracing.py"

# (importing module, imported module, name) for each private name one module
# still takes from another, and why
ALLOWED = {
    # perfbench/tracing.py patches delta4's binding of the span-5 labeler
    ("delta4", "delta3", "_label_span5"),
}


def _private_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module or ""
            elif (node.module or "").startswith("outerlabel."):
                source = node.module.removeprefix("outerlabel.")
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield path.stem, source, alias.name


def test_no_new_private_imports():
    assert set(_private_imports()) <= ALLOWED


def _unread_imports(source: str) -> set[str]:
    """The names ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def _traced_bindings() -> set[tuple[str, str]]:
    """(module, name) of every binding in ``perfbench/tracing.py``'s ``BINDINGS``."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BINDINGS":
            return {(site, attr) for site, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py has no BINDINGS")


def test_every_import_is_read_or_traced():
    # this repository runs no linter, so nothing else checks the noqa lines:
    # an unread import must be a binding the tracer patches
    assert _unread_imports("import os\nfrom a import b, c as d\nos.sep, d") == {"b"}
    unread = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unread_imports(path.read_text())}
    assert unread <= _traced_bindings(), unread - _traced_bindings()
