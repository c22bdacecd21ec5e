"""Recursive-descent parser for the dialect (see ``docs/SQL.md``).

:func:`parse` turns statement text into a list of
:mod:`repro.sql.ast` statements. Every syntactic failure raises a
position-carrying :class:`~repro.common.ParseError` — never an
``AssertionError``, never a builtin (the parser fuzz corpus pins this).

The grammar, in one screen::

    script      := statement (';' statement)* [';']
    statement   := create_table | create_view | insert | update
                 | delete | select | check_view | explain
    create_table:= CREATE TABLE name '(' col,.. ',' PRIMARY KEY '(' col,.. ')' ')'
    create_view := CREATE [UNIQUE] INDEXED VIEW name
                   [WITH '(' opt '=' literal ,.. ')'] AS select
    insert      := INSERT INTO name ['(' col,.. ')'] VALUES row ,..
    update      := UPDATE name SET col '=' set_expr ,.. [WHERE expr]
    delete      := DELETE FROM name [WHERE expr]
    select      := SELECT item,.. FROM name [JOIN name ON eq [AND eq]..]
                   [WHERE expr] [GROUP BY col,..]
    check_view  := CHECK VIEW name
    explain     := EXPLAIN (insert | update | delete | select | create_view)
    item        := '*' | agg '(' agg_arg ')' [AS name] | col [AS name]
    agg_arg     := '*' | arith
    arith       := arith_term (('+'|'-') arith_term)*
    arith_term  := arith_factor ('*' arith_factor)*
    arith_factor:= ['-'] (number | col | '(' arith ')')
    expr        := or-tree over comparisons, BETWEEN, [NOT] IN, NOT, parens
    set_expr    := (col | literal) (('+'|'-') (col | literal))*
    literal     := ['-'] number | string | TRUE | FALSE | NULL | '?'

A ``?`` is a literal whose value the caller passes (``params``): the
parse is the one its value spelled as a literal would give.
"""

from repro.common import BindError, ParseError
from repro.sql import ast
from repro.sql.lexer import MISSING, tokenize

#: words with grammatical meaning; not usable as bare column names.
KEYWORDS = frozenset(
    """select from where group by join on and or not in between as
    insert into values update set delete create table primary key
    unique indexed view with true false null count sum min max
    check explain""".split()
)

_AGG_FUNCS = frozenset({"count", "sum", "min", "max"})


def parse(sql, params=()):
    """Parse ``sql`` (one or more ``;``-separated statements) into a
    list of AST statements; the ``i``-th ``?`` stands for
    ``params[i]``."""
    return parse_literals(sql, params)[0]


def parse_literals(sql, params=()):
    """``(statements, values)``: :func:`parse` plus the value of every
    literal slot, in slot order — what the statements' slotted literals
    read when they run (``repro.sql.compiler``)."""
    tokens = tokenize(sql, params)
    statements = _Parser(tokens).parse_script()
    slotted = [token for token in tokens if token.slot is not None]
    placeholders = [token for token in slotted if token.kind == "param"]
    if len(placeholders) != len(params):
        token = next(
            (t for t in placeholders if t.value is MISSING), tokens[-1]
        )
        raise BindError(
            f"{len(params)} parameters for {len(placeholders)} "
            "placeholders", line=token.line, column=token.column,
        )
    return statements, [token.value for token in slotted]


def parse_one(sql):
    """Parse exactly one statement; error on zero or several."""
    statements = parse(sql)
    if len(statements) != 1:
        raise ParseError(
            f"expected exactly one statement, got {len(statements)}"
        )
    return statements[0]


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._i = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def _peek(self):
        return self._tokens[self._i]

    def _advance(self):
        token = self._tokens[self._i]
        if token.kind != "eof":
            self._i += 1
        return token

    def _error(self, message, token=None):
        token = token or self._peek()
        raise ParseError(message, line=token.line, column=token.column)

    def _at_kw(self, word):
        token = self._peek()
        return token.kind == "ident" and token.value.lower() == word

    def _take_kw(self, word):
        if self._at_kw(word):
            return self._advance()
        return None

    def _expect_kw(self, word):
        token = self._peek()
        if not self._at_kw(word):
            self._error(f"expected {word.upper()}, got {self._describe(token)}")
        return self._advance()

    def _at_op(self, op):
        token = self._peek()
        return token.kind == "op" and token.value == op

    def _take_op(self, op):
        if self._at_op(op):
            return self._advance()
        return None

    def _expect_op(self, op):
        token = self._peek()
        if not self._at_op(op):
            self._error(f"expected {op!r}, got {self._describe(token)}")
        return self._advance()

    def _expect_name(self, what="name"):
        token = self._peek()
        if token.kind != "ident":
            self._error(f"expected {what}, got {self._describe(token)}")
        if token.value.lower() in KEYWORDS:
            self._error(
                f"{token.value!r} is a reserved word; cannot use it as "
                f"a {what}"
            )
        return self._advance()

    @staticmethod
    def _describe(token):
        if token.kind == "eof":
            return "end of input"
        if token.kind == "param":
            return "'?'"
        return repr(token.value)

    @staticmethod
    def _pos(token):
        return (token.line, token.column)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_script(self):
        statements = []
        while True:
            while self._take_op(";"):
                pass
            if self._peek().kind == "eof":
                break
            statements.append(self._statement())
            token = self._peek()
            if token.kind == "eof":
                break
            if not self._at_op(";"):
                self._error(
                    f"expected ';' between statements, got "
                    f"{self._describe(token)}"
                )
        return statements

    def _statement(self):
        token = self._peek()
        if token.kind != "ident":
            self._error(f"expected a statement, got {self._describe(token)}")
        word = token.value.lower()
        if word == "create":
            return self._create()
        if word == "insert":
            return self._insert()
        if word == "update":
            return self._update()
        if word == "delete":
            return self._delete()
        if word == "select":
            return self._select()
        if word == "check":
            return self._check_view()
        if word == "explain":
            return self._explain()
        self._error(f"unknown statement {token.value!r}")

    def _check_view(self):
        start = self._expect_kw("check")
        self._expect_kw("view")
        name = self._expect_name("view name")
        return ast.CheckView(name.value, pos=self._pos(start))

    def _explain(self):
        start = self._expect_kw("explain")
        token = self._peek()
        if token.kind == "ident" and token.value.lower() in (
            "check", "explain"
        ):
            self._error(
                "EXPLAIN takes a data statement (INSERT, UPDATE, DELETE "
                "or SELECT)", token=token,
            )
        return ast.Explain(self._statement(), pos=self._pos(start))

    def _create(self):
        start = self._expect_kw("create")
        if self._at_kw("table"):
            return self._create_table(start)
        unique = self._take_kw("unique") is not None
        if self._at_kw("indexed"):
            return self._create_view(start, unique)
        self._error(
            "expected TABLE or [UNIQUE] INDEXED VIEW after CREATE"
        )

    def _create_table(self, start):
        self._expect_kw("table")
        name = self._expect_name("table name")
        self._expect_op("(")
        columns = []
        primary_key = None
        while True:
            if self._at_kw("primary"):
                self._advance()
                self._expect_kw("key")
                self._expect_op("(")
                primary_key = self._name_list("primary-key column")
                self._expect_op(")")
            else:
                columns.append(self._expect_name("column name").value)
            if self._take_op(","):
                continue
            break
        self._expect_op(")")
        if primary_key is None:
            self._error(
                f"table {name.value!r} needs a PRIMARY KEY (...) clause",
                token=start,
            )
        return ast.CreateTable(
            name.value, columns, primary_key, pos=self._pos(start)
        )

    def _create_view(self, start, unique):
        self._expect_kw("indexed")
        self._expect_kw("view")
        name = self._expect_name("view name")
        options = {}
        if self._take_kw("with"):
            self._expect_op("(")
            while True:
                opt = self._expect_name("option name")
                self._expect_op("=")
                options[opt.value.lower()] = self._literal().value
                if self._take_op(","):
                    continue
                break
            self._expect_op(")")
        self._expect_kw("as")
        select = self._select()
        return ast.CreateView(
            name.value, unique, options, select, pos=self._pos(start)
        )

    def _insert(self):
        start = self._expect_kw("insert")
        self._expect_kw("into")
        table = self._expect_name("table name")
        columns = None
        if self._take_op("("):
            columns = self._name_list("column name")
            self._expect_op(")")
        self._expect_kw("values")
        rows = []
        while True:
            self._expect_op("(")
            values = [self._literal()]
            while self._take_op(","):
                values.append(self._literal())
            self._expect_op(")")
            rows.append(values)
            if self._take_op(","):
                continue
            break
        return ast.Insert(table.value, columns, rows, pos=self._pos(start))

    def _update(self):
        start = self._expect_kw("update")
        table = self._expect_name("table name")
        self._expect_kw("set")
        sets = []
        while True:
            column = self._expect_name("column name")
            self._expect_op("=")
            sets.append((column.value, self._set_expr()))
            if self._take_op(","):
                continue
            break
        where = self._where_clause()
        return ast.Update(table.value, sets, where, pos=self._pos(start))

    def _delete(self):
        start = self._expect_kw("delete")
        self._expect_kw("from")
        table = self._expect_name("table name")
        where = self._where_clause()
        return ast.Delete(table.value, where, pos=self._pos(start))

    def _select(self):
        start = self._expect_kw("select")
        items = [self._select_item()]
        while self._take_op(","):
            items.append(self._select_item())
        self._expect_kw("from")
        table_tok = self._expect_name("table name")
        table = ast.TableRef(table_tok.value, pos=self._pos(table_tok))
        join = None
        if self._at_kw("join"):
            join_tok = self._advance()
            right_tok = self._expect_name("table name")
            self._expect_kw("on")
            on = [self._join_equality()]
            while self._take_kw("and"):
                on.append(self._join_equality())
            join = ast.Join(
                ast.TableRef(right_tok.value, pos=self._pos(right_tok)),
                on, pos=self._pos(join_tok),
            )
        where = self._where_clause()
        group_by = None
        if self._take_kw("group"):
            self._expect_kw("by")
            group_by = [self._column_ref()]
            while self._take_op(","):
                group_by.append(self._column_ref())
        return ast.Select(
            items, table, join=join, where=where, group_by=group_by,
            pos=self._pos(start),
        )

    def _select_item(self):
        token = self._peek()
        if self._at_op("*"):
            star = self._advance()
            return ast.SelectItem(
                ast.Star(pos=self._pos(star)), pos=self._pos(star)
            )
        if token.kind == "ident" and token.value.lower() in _AGG_FUNCS:
            func_tok = self._advance()
            self._expect_op("(")
            if self._at_op("*"):
                # A lone '*' is COUNT's Star; '*' cannot begin an
                # arithmetic expression, so one token decides.
                arg = ast.Star(pos=self._pos(self._advance()))
            else:
                arg = self._arith()
            self._expect_op(")")
            alias = None
            if self._take_kw("as"):
                alias = self._expect_name("alias").value
            return ast.SelectItem(
                ast.FuncCall(func_tok.value.upper(), arg,
                             pos=self._pos(func_tok)),
                alias=alias, pos=self._pos(func_tok),
            )
        column = self._column_ref()
        alias = None
        if self._take_kw("as"):
            alias = self._expect_name("alias").value
        return ast.SelectItem(column, alias=alias, pos=column.pos)

    def _join_equality(self):
        left = self._column_ref()
        self._expect_op("=")
        right = self._column_ref()
        return (left, right)

    def _where_clause(self):
        if self._take_kw("where"):
            return self._expr()
        return None

    def _name_list(self, what):
        names = [self._expect_name(what).value]
        while self._take_op(","):
            names.append(self._expect_name(what).value)
        return names

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self):
        left = self._and_expr()
        while self._at_kw("or"):
            tok = self._advance()
            left = ast.Or(left, self._and_expr(), pos=self._pos(tok))
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._at_kw("and"):
            tok = self._advance()
            left = ast.And(left, self._not_expr(), pos=self._pos(tok))
        return left

    def _not_expr(self):
        if self._at_kw("not"):
            tok = self._advance()
            return ast.Not(self._not_expr(), pos=self._pos(tok))
        return self._predicate()

    def _predicate(self):
        if self._take_op("("):
            inner = self._expr()
            self._expect_op(")")
            return inner
        item = self._operand()
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "<>", "!=", "<",
                                                  "<=", ">", ">="):
            self._advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.Comparison(
                op, item, self._operand(), pos=self._pos(token)
            )
        if self._at_kw("between"):
            tok = self._advance()
            low = self._operand()
            self._expect_kw("and")
            high = self._operand()
            return ast.Between(item, low, high, pos=self._pos(tok))
        negated = False
        if self._at_kw("not"):
            tok = self._advance()
            negated = True
            if not self._at_kw("in"):
                self._error("expected IN after NOT")
        if self._at_kw("in"):
            tok = self._advance()
            self._expect_op("(")
            values = [self._literal()]
            while self._take_op(","):
                values.append(self._literal())
            self._expect_op(")")
            inlist = ast.InList(item, values, pos=self._pos(tok))
            return ast.Not(inlist, pos=inlist.pos) if negated else inlist
        self._error(
            f"expected a comparison, BETWEEN or IN, got "
            f"{self._describe(token)}"
        )

    def _operand(self):
        if self._at_literal() or self._at_op("-"):
            return self._literal()
        return self._column_ref()

    def _at_literal(self):
        token = self._peek()
        if token.kind == "ident":
            return token.value.lower() in ("true", "false", "null")
        return token.slot is not None

    def _at_number(self):
        """A number, or a ``?`` whose value is one (as a literal it
        would have been spelled as a number) or is missing (the count
        error comes after the parse)."""
        token = self._peek()
        return token.kind == "number" or token.kind == "param" and (
            token.value is MISSING or type(token.value) in (int, float)
        )

    def _signed(self, minus):
        """The literal ``-number``: the sign folds into the value, and
        the slot remembers it (``negated``)."""
        number = self._advance()
        value = number.value
        return ast.Literal(
            value if value is MISSING else -value, pos=self._pos(minus),
            slot=number.slot, negated=True,
        )

    def _literal(self):
        token = self._peek()
        if token.slot is not None:
            self._advance()
            return ast.Literal(
                token.value, pos=self._pos(token), slot=token.slot
            )
        if self._at_op("-"):
            minus = self._advance()
            if not self._at_number():
                self._error("expected a number after '-'")
            return self._signed(minus)
        if token.kind == "ident":
            word = token.value.lower()
            if word == "true":
                self._advance()
                return ast.Literal(True, pos=self._pos(token))
            if word == "false":
                self._advance()
                return ast.Literal(False, pos=self._pos(token))
            if word == "null":
                self._advance()
                return ast.Literal(None, pos=self._pos(token))
        self._error(f"expected a literal, got {self._describe(token)}")

    def _column_ref(self):
        first = self._expect_name("column name")
        if self._take_op("."):
            second = self._expect_name("column name")
            return ast.ColumnRef(
                first.value, second.value, pos=self._pos(first)
            )
        return ast.ColumnRef(None, first.value, pos=self._pos(first))

    def _arith(self):
        """Linear arithmetic inside aggregate arguments: ``a - b``,
        ``-adjust``, ``2 * x + 1``. '*' binds tighter than '+'/'-';
        unary minus is encoded as ``0 - x`` so the AST needs no new
        node kinds."""
        left = self._arith_term()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                left = ast.BinaryOp(
                    token.value, left, self._arith_term(),
                    pos=self._pos(token),
                )
                continue
            return left

    def _arith_term(self):
        left = self._arith_factor()
        while self._at_op("*"):
            token = self._advance()
            left = ast.BinaryOp(
                "*", left, self._arith_factor(), pos=self._pos(token)
            )
        return left

    def _arith_factor(self):
        if self._at_op("-"):
            minus = self._advance()
            if self._at_number():
                return self._signed(minus)
            return ast.BinaryOp(
                "-", ast.Literal(0, pos=self._pos(minus)),
                self._arith_factor(), pos=self._pos(minus),
            )
        if self._take_op("("):
            inner = self._arith()
            self._expect_op(")")
            return inner
        if self._at_literal():
            return self._literal()
        return self._column_ref()

    def _set_expr(self):
        left = self._set_operand()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                left = ast.BinaryOp(
                    token.value, left, self._set_operand(),
                    pos=self._pos(token),
                )
                continue
            return left

    def _set_operand(self):
        if self._at_literal():
            return self._literal()
        return self._column_ref()
