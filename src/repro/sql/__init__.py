"""The SQL surface: text in, delta-maintenance programs out.

A hand-written pipeline — :mod:`lexer <repro.sql.lexer>` ->
:mod:`parser <repro.sql.parser>` -> :mod:`binder <repro.sql.binder>` ->
:mod:`compiler <repro.sql.compiler>` — turning a small dialect into the
engine's native objects: ``CREATE INDEXED VIEW`` statements become
:class:`~repro.views.definition.ViewDefinition` instances (COUNT/SUM
compile to escrow counters, MIN/MAX to exclusive extremes), DML and
SELECT become prepared plans (:func:`prepare`) whose runs make the
``insert``/``update``/``delete``/``read``/``scan`` calls whose view
maintenance the engine already owns. A statement is prepared once per
*shape* (:func:`shape_of`): a later text differing only in its literal
values, or in the values of its ``?`` placeholders, skips the pipeline. ``docs/SQL.md`` specifies the grammar and the compilation
contract; :mod:`repro.sql.shell` wraps it all in a REPL.

Most callers want :meth:`Database.execute` / :meth:`Session.execute`
rather than these internals.
"""

from repro.sql import ast
from repro.sql.binder import CompiledPredicate, Scope, bind_options
from repro.sql.compiler import (
    compile_view,
    execute_script,
    in_statement,
    prepare,
)
from repro.sql.lexer import Token, shape_of, tokenize
from repro.sql.parser import parse, parse_one
from repro.sql.render import plan_signature, render_expr, render_view

__all__ = [
    "CompiledPredicate",
    "Scope",
    "Token",
    "ast",
    "bind_options",
    "compile_view",
    "execute_script",
    "in_statement",
    "parse",
    "parse_one",
    "plan_signature",
    "prepare",
    "render_expr",
    "render_view",
    "shape_of",
    "tokenize",
]
