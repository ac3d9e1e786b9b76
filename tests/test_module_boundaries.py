"""No module of the package imports another's private names, but the few listed here."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "outerlabel"

# (importing module, imported module, name) for each private name one module
# still takes from another, and why
ALLOWED = {
    # perfbench/tracing.py patches delta4's binding of the span-5 labeler
    ("delta4", "delta3", "_label_span5"),
    # delta3._refill writes the completion search's first answer, so it
    # reads the search's own label masks
    ("delta3", "exact", "_keep_masks"),
    ("delta3", "exact", "_forbid_mask"),
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
