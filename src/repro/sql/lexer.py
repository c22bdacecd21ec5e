"""The SQL tokenizer, and the statement-shape lifter in front of it.

:func:`tokenize` is a hand-written scanner, no regex tables. It produces
a flat list of :class:`Token` objects with 1-based line/column
positions, which the parser threads into every AST node and every
:class:`~repro.common.ParseError`. The scanner is deliberately dumb:
it does not know keywords (the parser matches identifiers
case-insensitively), only token *shapes*:

* ``ident`` — ``[A-Za-z_][A-Za-z0-9_]*``
* ``number`` — integer or decimal literal (``12``, ``3.5``); a leading
  ``-`` is an operator, handled by the parser
* ``string`` — single-quoted, with ``''`` as the escaped quote
* ``param`` — a ``?`` placeholder, carrying the caller's parameter
  value in its place
* ``op`` — punctuation and operators: ``( ) , ; . * = <> != <= >= < >
  + -``
* ``eof`` — one synthetic end marker

``--`` starts a comment running to end of line. Every ``number``,
``string`` and ``param`` token has a *slot*: its place among those
tokens, left to right. The parser copies the slot onto the literal it
builds, and a prepared statement reads slot ``i`` of the values it is
run with instead of the literal it was prepared from.

:func:`shape_of` is the cheap half of that: one compiled regex lifts the
same literals out of the text, leaving a *shape* that every statement
differing only in its literal values shares (``docs/SQL.md`` §2).
"""

import itertools
import re

from repro.common import BindError, ParseError


class Token:
    """One lexical token with its source position."""

    __slots__ = ("kind", "value", "line", "column", "slot")

    def __init__(self, kind, value, line, column, slot=None):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column
        self.slot = slot  # the literal's place in the statement's values

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


#: multi-character operators, longest match first
_TWO_CHAR_OPS = ("<>", "!=", "<=", ">=")
_ONE_CHAR_OPS = "(),;.*=<>+-"


#: the Python types a ``?`` parameter may have
PARAM_TYPES = (type(None), bool, int, float, str)

#: a ``?`` beyond the parameters given (the count is checked after parsing,
#: so a syntax error is reported first)
MISSING = object()


def tokenize(sql, params=()):
    """Scan ``sql`` into a list of tokens ending with one ``eof`` token;
    the ``i``-th ``?`` stands for ``params[i]``.

    Raises :class:`~repro.common.ParseError` on any character the
    dialect has no use for, :class:`~repro.common.BindError` on a
    parameter of a type no literal has.
    """
    tokens = []
    slots = itertools.count()
    n_params = 0
    line, column = 1, 1
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if sql.startswith("--", i):
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, column
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            text = sql[start:i]
            tokens.append(Token("ident", text, line, start_col))
            column += i - start
            continue
        if ch.isdigit():
            start, start_col = i, column
            while i < n and sql[i].isdigit():
                i += 1
            if i < n and sql[i] == "." and i + 1 < n and sql[i + 1].isdigit():
                i += 1
                while i < n and sql[i].isdigit():
                    i += 1
                value = float(sql[start:i])
            else:
                value = int(sql[start:i])
            tokens.append(
                Token("number", value, line, start_col, next(slots))
            )
            column += i - start
            continue
        if ch == "'":
            start_line, start_col = line, column
            i += 1
            column += 1
            chunks = []
            while True:
                if i >= n:
                    raise ParseError(
                        "unterminated string literal",
                        line=start_line, column=start_col,
                    )
                ch = sql[i]
                if ch == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        chunks.append("'")
                        i += 2
                        column += 2
                        continue
                    i += 1
                    column += 1
                    break
                if ch == "\n":
                    raise ParseError(
                        "unterminated string literal",
                        line=start_line, column=start_col,
                    )
                chunks.append(ch)
                i += 1
                column += 1
            tokens.append(Token(
                "string", "".join(chunks), line, start_col, next(slots)
            ))
            continue
        if ch == "?":
            value = params[n_params] if n_params < len(params) else MISSING
            if value is not MISSING and type(value) not in PARAM_TYPES:
                raise BindError(
                    f"parameter {n_params + 1} is a "
                    f"{type(value).__name__}; a parameter is None, a bool, "
                    "an int, a float or a str",
                    line=line, column=column,
                )
            tokens.append(Token("param", value, line, column, next(slots)))
            n_params += 1
            i += 1
            column += 1
            continue
        two = sql[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, column))
            i += 2
            column += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, line, column))
            i += 1
            column += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r}", line=line, column=column
        )
    tokens.append(Token("eof", None, line, column))
    return tokens


#: the literals :func:`tokenize` makes slots of, in one alternation with
#: the two things that may hide one: a string and a comment (kept as is);
#: the leading lookahead lets the scan skip to a character that can start
#: one
_LITERALS = re.compile(
    r"(?=['\-0-9?])"
    r"('(?:[^'\n]|'')*'|--[^\n]*|(?<!\w)[0-9]+(?:\.[0-9]+)?|\?)"
)


def shape_of(sql, params=()):
    """``(shape, values)``: ``sql`` with each number, string and ``?``
    replaced by ``?``, and the values they stand for in slot order (a
    ``?`` takes the next of ``params``). ``(None, None)`` when the
    ``?`` count or a parameter's type is wrong: the parse reports it.

    This is not a second lexer. Where it and :func:`tokenize` disagree
    about what a literal is, the lifted values differ from the parsed
    ones and the statement is not cached (``repro.sql.compiler``).
    """
    parts = _LITERALS.split(sql)
    values = []
    n_params = 0
    for i in range(1, len(parts), 2):
        part = parts[i]
        first = part[0]
        if first == "-":  # a comment
            continue
        if first == "'":
            values.append(part[1:-1].replace("''", "'"))
        elif first == "?":
            if n_params == len(params):
                return None, None
            value = params[n_params]
            if type(value) not in PARAM_TYPES:
                return None, None
            values.append(value)
            n_params += 1
        else:
            values.append(float(part) if "." in part else int(part))
        parts[i] = "?"
    if n_params != len(params):
        return None, None
    return "".join(parts), values
