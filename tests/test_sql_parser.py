"""Grammar coverage for ``repro.sql.parser``: every statement shape in
docs/SQL.md §1 parses to the right AST, and every syntactic failure is
a position-carrying ``ParseError`` — never anything else."""

import pytest

from repro.api import Database
from repro.common import ParseError, SqlError
from repro.sql import ast, parse, parse_one, tokenize


# ---------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    tokens = tokenize("SELECT x FROM t -- trailing comment\nWHERE x >= 2.5")
    kinds = [t.kind for t in tokens]
    assert kinds == ["ident", "ident", "ident", "ident",
                     "ident", "ident", "op", "number", "eof"]
    where = tokens[4]
    assert (where.line, where.column) == (2, 1)
    assert tokens[7].value == 2.5


def test_tokenize_string_escape():
    tokens = tokenize("'it''s'")
    assert tokens[0].kind == "string"
    assert tokens[0].value == "it's"


@pytest.mark.parametrize("sql, column", [
    ("SELECT @ FROM t", 8),
    ("SELECT a FROM t WHERE a = \u00b2", 27),  # superscript two
    ("SELECT a FROM t WHERE a = 1\u00b2", 28),
    ("SELECT a FROM t WHERE a = \u0661", 27),  # Arabic-Indic one
], ids=["at-sign", "superscript", "digit-superscript", "arabic-indic"])
def test_tokenize_unknown_character_is_parse_error(sql, column):
    """A number is ASCII digits: any other digit starts no token."""
    with pytest.raises(ParseError) as err:
        tokenize(sql)
    assert f"line 1, column {column}" in str(err.value)


@pytest.mark.parametrize(
    "digit", ["\u00b2", "\u0661"], ids=["superscript", "arabic-indic"]
)
def test_a_non_ascii_digit_in_a_statement_is_a_parse_error(digit):
    db = Database()
    db.execute("CREATE TABLE t (a, PRIMARY KEY (a))")
    db.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(SqlError) as err:
        db.execute(f"SELECT * FROM t WHERE a = {digit}")
    assert isinstance(err.value, ParseError)


# ---------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------


def test_script_splits_statements_and_tolerates_semicolons():
    statements = parse(
        ";;CREATE TABLE t (a, b, PRIMARY KEY (a));"
        "INSERT INTO t VALUES (1, 2);;"
    )
    assert [type(s) for s in statements] == [ast.CreateTable, ast.Insert]


def test_parse_one_rejects_scripts():
    with pytest.raises(ParseError, match="exactly one"):
        parse_one("SELECT a FROM t; SELECT b FROM t")


def test_create_table():
    stmt = parse_one(
        "CREATE TABLE orders (oid, cid, amount, PRIMARY KEY (oid))"
    )
    assert stmt.name == "orders"
    assert tuple(stmt.columns) == ("oid", "cid", "amount")
    assert tuple(stmt.primary_key) == ("oid",)


def test_create_table_requires_primary_key():
    with pytest.raises(ParseError, match="PRIMARY KEY"):
        parse_one("CREATE TABLE t (a, b)")


def test_create_view_with_options():
    stmt = parse_one(
        "CREATE UNIQUE INDEXED VIEW v WITH (online = true) AS "
        "SELECT g, COUNT(*) AS n FROM t GROUP BY g"
    )
    assert isinstance(stmt, ast.CreateView)
    assert stmt.unique is True
    assert stmt.options == {"online": True}
    assert stmt.select.group_by[0].name == "g"


def test_create_view_without_unique_or_options():
    stmt = parse_one("CREATE INDEXED VIEW v AS SELECT a, b FROM t")
    assert stmt.unique is False
    assert stmt.options == {}


def test_insert_multi_row_and_negative_literal():
    stmt = parse_one(
        "INSERT INTO t (a, b) VALUES (1, -2), ('x', NULL)"
    )
    assert tuple(stmt.columns) == ("a", "b")
    assert [[lit.value for lit in row] for row in stmt.rows] == [
        [1, -2], ["x", None]
    ]


def test_update_with_set_arithmetic():
    stmt = parse_one("UPDATE t SET a = a + 1, b = 'z' WHERE a < 3")
    assert stmt.table == "t"
    (col_a, expr_a), (col_b, expr_b) = stmt.sets
    assert col_a == "a" and isinstance(expr_a, ast.BinaryOp)
    assert col_b == "b" and expr_b.value == "z"
    assert isinstance(stmt.where, ast.Comparison)


def test_delete_with_and_without_where():
    assert parse_one("DELETE FROM t").where is None
    stmt = parse_one("DELETE FROM t WHERE a = 1")
    assert stmt.where.op == "="


def test_select_join_where_group_by():
    stmt = parse_one(
        "SELECT tier, COUNT(*) AS n, SUM(amount) AS rev "
        "FROM orders JOIN customers ON orders.cid = customers.cid "
        "WHERE amount > 0 GROUP BY tier"
    )
    assert stmt.table.name == "orders"
    assert stmt.join.table.name == "customers"
    (left, right), = stmt.join.on
    assert (left.qualifier, left.name) == ("orders", "cid")
    assert (right.qualifier, right.name) == ("customers", "cid")
    assert [g.name for g in stmt.group_by] == ["tier"]


def test_select_star_and_aliases():
    stmt = parse_one("SELECT *, a AS apple FROM t")
    star, aliased = stmt.items
    assert isinstance(star.expr, ast.Star)
    assert aliased.alias == "apple"


# ---------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------


def test_expression_tree_shapes():
    stmt = parse_one(
        "SELECT a FROM t WHERE NOT (a = 1 OR b BETWEEN 2 AND 3) "
        "AND c IN (1, 2) AND d NOT IN ('x') AND e != 5"
    )
    text = repr(stmt.where)
    # Structure checks without pinning repr formatting:
    node = stmt.where
    assert isinstance(node, ast.And)

    def flatten(n):
        if isinstance(n, ast.And):
            return flatten(n.left) + flatten(n.right)
        return [n]

    leaves = flatten(node)
    assert isinstance(leaves[0], ast.Not)
    assert isinstance(leaves[0].operand, ast.Or)
    assert isinstance(leaves[1], ast.InList)
    assert isinstance(leaves[2], ast.Not)          # NOT IN
    assert isinstance(leaves[2].operand, ast.InList)
    assert leaves[3].op == "<>"                    # != normalized
    assert text  # repr never crashes


def test_qualified_column_refs():
    stmt = parse_one("SELECT t.a FROM t WHERE t.a > 1")
    item = stmt.items[0].expr
    assert (item.qualifier, item.name) == ("t", "a")


# ---------------------------------------------------------------------
# errors carry positions; reserved words are refused as names
# ---------------------------------------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT FROM t",
    "SELECT a FROM",
    "INSERT INTO t VALUES",
    "UPDATE t SET",
    "CREATE VIEW v AS SELECT a FROM t",       # missing INDEXED
    "SELECT a FROM t WHERE a",                # dangling operand
    "SELECT a FROM t GROUP",                  # GROUP without BY
    "SELECT COUNT(a FROM t",                  # unclosed paren
    "DELETE t",                               # missing FROM
    "SELECT a FROM t WHERE a NOT b",          # NOT without IN
    "FROB THE WIDGETS",
])
def test_syntax_errors_are_parse_errors_with_position(sql):
    with pytest.raises(ParseError) as err:
        parse(sql)
    assert "line" in str(err.value)


@pytest.mark.parametrize("sql", [
    "CREATE TABLE select (a, PRIMARY KEY (a))",
    "SELECT group FROM t",
    "INSERT INTO t (where) VALUES (1)",
    "CREATE INDEXED VIEW view AS SELECT a FROM t",
])
def test_reserved_words_rejected_as_names(sql):
    with pytest.raises(ParseError, match="reserved word"):
        parse(sql)


def test_error_position_points_at_the_offending_token():
    with pytest.raises(ParseError) as err:
        parse("SELECT a\nFROM t WHERE ???")
    message = str(err.value)
    assert "line 2" in message
