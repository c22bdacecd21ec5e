"""``Database`` is wiring (``docs/ARCHITECTURE.md`` §2): each component
owns its state, and other modules call the component — they never reach
into the engine's private state.

A *reach-in* is a read of a ``_``-prefixed attribute of a database
handle — ``db._store``, ``self.db._indexes``, ``self._db._execute`` —
from any module under ``src/repro/`` but the engine's own: the facade and
the components it is wired from (``core/database.py``, ``indexes.py``,
``restart.py``, ``participant.py``). Handles are spelled ``db`` /
``engine`` / ``database``, bare or as an attribute.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_HANDLES = frozenset({"db", "_db", "engine", "_engine", "database"})
_ENGINE = frozenset(
    ("core", name)
    for name in ("database.py", "indexes.py", "restart.py", "participant.py")
)


def _is_handle(node):
    if isinstance(node, ast.Name):
        return node.id in _HANDLES
    return isinstance(node, ast.Attribute) and node.attr in _HANDLES


def reach_ins(source):
    """``(line, expression)`` of every reach-in in ``source``."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and _is_handle(node.value)
    )


def test_no_module_reaches_into_the_database():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts in _ENGINE:
            continue
        found += [
            (str(path.relative_to(SRC)), line, text)
            for line, text in reach_ins(path.read_text())
        ]
    assert found == []


def test_the_detector_sees_every_spelling_of_a_reach_in():
    source = '''
def f(db, self):
    db._store.snapshot()
    self.db._indexes.pop("v")
    self._db._execute("sql", None)
    engine._in_doubt.clear()
    db.indexes.store.snapshot()     # the component's public name
    db.__class__                    # not private state
    self._engines[0]                # not a database handle
'''
    assert [text for _, text in reach_ins(source)] == [
        "db._store", "self.db._indexes", "self._db._execute",
        "engine._in_doubt",
    ]
