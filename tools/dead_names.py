"""Name the private names of ``src/qestgeo`` that nothing uses.

    python tools/dead_names.py

A private name is a module- or class-level ``_name`` (not a ``__dunder__``)
that a ``def``, a ``class`` or an assignment defines in a module of
``src/qestgeo``.  It counts as used when some Python file under ``src/``,
``tests/``, ``tools/`` or ``perfbench/`` mentions it outside its own
definition: as a name that is read, an attribute, an imported name, or a
word of a string that is not a docstring (``monkeypatch.setattr(cli,
"_load_model", ...)``, the tracer's ``"cli.render_document"``).  A comment
or a docstring is no use.  The names are matched by spelling alone, so a
name used in one module keeps every namesake alive.

Prints ``path:line name`` for each unused name and exits 1; otherwise
prints how many private names were checked and exits 0.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qestgeo"
SEARCHED = ("src", "tests", "tools", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_private(name):
    return name.startswith("_") and name != "_" and not (
        name.startswith("__") and name.endswith("__"))


def _definitions(body):
    """``(name, node)`` of each name that the statements ``body`` of a
    module or a class define, class bodies included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _docstrings(tree):
    """The ids of the docstring nodes of ``tree``."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _mentions(tree):
    """Every word under ``tree`` that uses a name, once per use."""
    skip = _docstrings(tree)
    words = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            words.update(WORD.findall(node.value))
    return words


def main():
    used = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used += _mentions(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    checked, dead = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, node in _definitions(tree.body):
            if not _is_private(name):
                continue
            checked += 1
            # a function that calls itself does not count as its own user
            if used[name] <= _mentions(node)[name]:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    for line in dead:
        print(line)
    if dead:
        return 1
    print(f"{checked} private names in {PACKAGE.relative_to(ROOT)}, each used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
