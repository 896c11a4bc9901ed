"""Every public function and class of the package has a reader besides the tests.

A reader is the package itself, outside the name's own definition and
``__init__.py``; the README's library quick tour; or the benchmark under
``perfbench/``.  The few entry points that an open ROADMAP item has still
to settle are listed with that item.  A name with none of these readers
belongs in ``tests/helpers.py``, next to the tests that read it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "treegrow"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# name -> the ROADMAP item that decides whether it stays in the package
AWAITING = {
    "sample_composition_chain": 4,
    "check_admissibility_inequalities": 4,
    "janson_expectations": 5,
    "tilt": 6,
}


def public_definitions():
    """``(module, name)`` of every public module-level function and class of the package."""
    return [(path.stem, stmt.name) for path in sorted(SRC.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")]


def src_readers():
    """Each name the package reads -> the ``(module, name)`` of the top-level definitions reading it.

    A statement that is no definition reads as ``(module, None)``; imports
    read nothing, so ``__init__.py`` is left out as a whole.
    """
    readers = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.stem, stmt.name if isinstance(stmt, DEFINITIONS) else None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
    return readers


def identifiers(source: str):
    """Every name, attribute and imported name in ``source``, and each part of a dotted-name string.

    ``perfbench/tracing.py`` names its targets as strings such as
    ``"GrowthChain.__init__"``; prose in docstrings reads nothing.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            found.update(node.value.split("."))
    return found


def quick_tour():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def unread_names():
    """``module.name`` of each public definition that no src, README tour or perfbench line reads."""
    readers = src_readers()
    outside = identifiers(quick_tour())
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= identifiers(path.read_text(encoding="utf-8"))
    return {name: f"{module}.{name}" for module, name in public_definitions()
            if not readers.get(name, set()) - {(module, name)} and name not in outside}


def test_every_public_name_has_a_reader():
    unread = unread_names()
    missing = sorted(unread[name] for name in unread.keys() - AWAITING)
    assert not missing, missing


def test_awaiting_entries_are_defined_and_unread():
    # an entry that gained a reader, or left the package, leaves this list with it
    assert set(AWAITING) <= set(unread_names())
