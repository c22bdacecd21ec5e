"""The SQL tokenizer and the statement-shape lifter, compiled from one
literal grammar.

A literal is written once, in ``_LITERAL``: a single-quoted string
(``''`` is the escaped quote, no newline inside), an ASCII number
``[0-9]+(.[0-9]+)?`` not glued to the end of a word, or a ``?``
placeholder — plus the ``--`` comment, which runs to end of line and
may hide any of them. Both views of a text derive from that pattern, so
they cannot disagree about what a literal is:

* :func:`tokenize` matches one master pattern — blanks, then the
  literal, a newline, an identifier or an operator — token after token,
  into a flat list of :class:`Token` objects with 1-based line/column
  positions, which the parser threads into every AST node and every
  :class:`~repro.common.ParseError`;
* :func:`shape_of` splits the text on the literal alone, leaving a
  *shape* that every statement differing only in its literal values
  shares (``docs/SQL.md`` §2).

The tokenizer does not know keywords (the parser matches identifiers
case-insensitively), only token kinds:

* ``ident`` — ``[A-Za-z_][A-Za-z0-9_]*``
* ``number`` — integer or decimal literal (``12``, ``3.5``); a leading
  ``-`` is an operator, handled by the parser
* ``string`` — single-quoted
* ``param`` — a ``?`` placeholder, carrying the caller's parameter
  value in its place
* ``op`` — punctuation and operators: ``( ) , ; . * = <> != <= >= < >
  + -``
* ``eof`` — one synthetic end marker

Any other character outside a string or comment is a ``ParseError``.
Every ``number``, ``string`` and ``param`` token has a *slot*: its place
among those tokens, left to right. The parser copies the slot onto the
literal it builds, and a prepared statement reads slot ``i`` of the
values it is run with instead of the literal it was prepared from.
:func:`shape_of` lifts the same literals, so its values are the slots'.
"""

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


#: the Python types a ``?`` parameter may have
PARAM_TYPES = (type(None), bool, int, float, str)

#: a ``?`` beyond the parameters given (the count is checked after parsing,
#: so a syntax error is reported first)
MISSING = object()

#: the one literal grammar: string, comment, number, ``?`` — told apart by
#: their first character. A string ends at the first ``'`` not doubled.
_LITERAL = (
    r"'(?:[^'\n]|'')*'(?!')|--[^\n]*"
    r"|(?<![A-Za-z0-9_])[0-9]+(?:\.[0-9]+)?|\?"
)

#: blanks, then a literal, a newline, an identifier, an operator or any
#: other character; the group that matched names the kind. Every character
#: but a trailing blank starts a match, so ``finditer`` skips no token.
_TOKEN = re.compile(
    rf"[ \t\r]*(?:({_LITERAL})|(\n)|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(<>|!=|<=|>=|[(),;.*=<>+\-])|([^ \t\r\n]))"
)

#: the literals alone; the leading lookahead lets the split skip to a
#: character that can start one
_LIFT = re.compile(rf"(?=['\-0-9?])({_LITERAL})")

_LITERAL_KINDS = {"'": "string", "-": "comment", "?": "param"}


def _value(text):
    """The value of a string or number literal spelled ``text``."""
    if text[0] == "'":
        return text[1:-1].replace("''", "'")
    return float(text) if "." in text else int(text)


def tokenize(sql, params=()):
    """Scan ``sql`` into a list of tokens ending with one ``eof`` token;
    the ``i``-th ``?`` stands for ``params[i]``.

    Raises :class:`~repro.common.ParseError` on any character the
    dialect has no use for, :class:`~repro.common.BindError` on a
    parameter of a type no literal has.
    """
    tokens = []
    slot = n_params = 0
    line, line_start = 1, 0
    for match in _TOKEN.finditer(sql):
        group = match.lastindex
        text = match.group(group)
        column = match.start(group) - line_start + 1
        if group == 3 or group == 4:
            kind = "ident" if group == 3 else "op"
            tokens.append(Token(kind, text, line, column))
        elif group == 1:
            kind = _LITERAL_KINDS.get(text[0], "number")
            if kind == "comment":
                continue
            if kind == "param":
                value = params[n_params] if n_params < len(params) else MISSING
                if value is not MISSING and type(value) not in PARAM_TYPES:
                    raise BindError(
                        f"parameter {n_params + 1} is a "
                        f"{type(value).__name__}; a parameter is None, a "
                        "bool, an int, a float or a str",
                        line=line, column=column,
                    )
                n_params += 1
            else:
                value = _value(text)
            tokens.append(Token(kind, value, line, column, slot))
            slot += 1
        elif group == 2:
            line, line_start = line + 1, match.end()
        else:
            raise ParseError(
                "unterminated string literal" if text == "'"
                else f"unexpected character {text!r}",
                line=line, column=column,
            )
    tokens.append(Token("eof", None, line, len(sql) - line_start + 1))
    return tokens


def shape_of(sql, params=()):
    """``(shape, values)``: ``sql`` with each number, string and ``?``
    replaced by ``?``, and the values they stand for in slot order (a
    ``?`` takes the next of ``params``) — the values :func:`tokenize`
    gives the slots, by construction. ``(None, None)`` when the ``?``
    count or a parameter's type is wrong: the parse reports it."""
    parts = _LIFT.split(sql)
    values = []
    n_params = 0
    for i in range(1, len(parts), 2):
        text = parts[i]
        first = text[0]
        if first == "-":  # a comment
            continue
        if first == "?":
            if n_params == len(params):
                return None, None
            value = params[n_params]
            if type(value) not in PARAM_TYPES:
                return None, None
            n_params += 1
        else:
            value = _value(text)
        values.append(value)
        parts[i] = "?"
    if n_params != len(params):
        return None, None
    return "".join(parts), values
