"""Statement shapes: one prepared plan per shape, never a wrong one.

``execute_script`` lifts a statement's literals out of its text
(``repro.sql.lexer.shape_of``) and keys a prepared plan by the shape and
the literals' types (``docs/SQL.md`` §2). These tests pin:

* names a statement repeats are refused when it is prepared;
* ``?`` placeholders fill the same slots, through the same cache;
* a generated differential: statements sharing a shape but differing in
  literal types and edges give the same outcome, EXPLAIN path, lock
  traffic and log bytes on a warm engine as on one whose cache was just
  cleared;
* a generated differential: wherever ``shape_of`` lifts and ``tokenize``
  succeeds, the lifted values are the parse's slotted values;
* an ``order_sql``-shaped transaction is not parsed once warm, and a
  cached INSERT keeps maintaining views the catalog gained or rebuilt
  since it was prepared.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BindError, Database, ParseError, SqlError
from repro.core.indexes import PREPARED_SHAPES
from repro.sql import parser, shape_of, tokenize
from repro.workload import SALES, OrderEntryWorkload
from tests.test_sql_access_paths import build_db


def log_digest(db):
    """A hash of the log's stored bytes, every frame as appended."""
    digest = hashlib.sha256()
    for lsn in range(db.log.first_lsn, db.log.tail_lsn() + 1):
        digest.update(db.log.body(lsn, lsn))
    return digest.hexdigest()


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of the parse entry the statement cache calls."""
    calls = []
    real = parser.parse_literals

    def counting(sql, params=()):
        calls.append(sql)
        return real(sql, params)

    monkeypatch.setattr(parser, "parse_literals", counting)
    return calls


# ---------------------------------------------------------------------
# a repeated name is refused before anything is locked or logged
# ---------------------------------------------------------------------


@pytest.mark.parametrize("sql, message", [
    ("INSERT INTO t (a, b, c, b) VALUES (1, 2, 3, 4)", "column 'b' twice"),
    ("UPDATE t SET b = 7, b = 8", "column 'b' twice"),
    ("SELECT a AS x, b AS x FROM t", "named 'x'"),
    ("SELECT a, b AS a FROM t", "named 'a'"),
])
def test_a_repeated_name_is_a_bind_error(sql, message):
    db = Database()
    db.execute("CREATE TABLE t (a, b, c, PRIMARY KEY (a))")
    db.execute("INSERT INTO t VALUES (1, 2, 3)")
    requests = db.stats()["lock"]["requests"]
    tail = db.log.tail_lsn()
    with pytest.raises(BindError, match=message) as err:
        db.execute(sql)
    assert "line 1, column" in str(err.value)
    assert db.log.tail_lsn() == tail
    assert db.stats()["lock"]["requests"] == requests
    assert db.execute("SELECT * FROM t") == db.execute("SELECT a, b, c FROM t")


def test_one_column_under_two_names_gives_both():
    db = Database()
    db.execute("CREATE TABLE t (a, b, PRIMARY KEY (a))")
    db.execute("INSERT INTO t VALUES (1, 2)")
    (row,) = db.execute("SELECT a AS x, a AS y, *, a FROM t")
    assert row.as_dict() == {"x": 1, "y": 1, "a": 1, "b": 2}


# ---------------------------------------------------------------------
# ? placeholders
# ---------------------------------------------------------------------


def sales_db():
    db = Database()
    db.execute(
        """
        CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW by_product AS
            SELECT product, COUNT(*) AS n, SUM(amount) AS total
            FROM sales GROUP BY product;
        """
    )
    return db


class TestPlaceholders:
    def test_placeholders_fill_the_slots_of_every_statement_kind(self):
        db = sales_db()
        insert = "INSERT INTO sales (id, product, amount) VALUES (?, ?, ?)"
        assert db.execute(insert, params=(1, "ant", 30)) == 1
        session = db.session()
        assert session.execute(insert, (2, "ant", -5)) == 1
        assert db.execute(
            "UPDATE sales SET amount = amount + ? WHERE id = ?", params=(1, 2)
        ) == 1
        (row,) = db.execute(
            "SELECT n, total FROM by_product WHERE product = ?",
            params=("ant",),
        )
        assert row.as_dict() == {"n": 2, "total": 26}
        assert db.execute("DELETE FROM sales WHERE id = ?", params=(1,)) == 1
        assert db.check_all_views() == []

    def test_a_placeholder_and_its_literal_spelling_share_one_plan(
        self, parses
    ):
        db = sales_db()
        del parses[:]
        db.execute("INSERT INTO sales (id, product, amount) VALUES (1, 'a', 3)")
        db.execute(
            "INSERT INTO sales (id, product, amount) VALUES (?, ?, ?)",
            params=(2, "b", 4),
        )
        db.execute(
            "INSERT INTO sales (id, product, amount) VALUES (?, 'c', ?)",
            params=(3, 5),
        )
        assert len(parses) == 1
        assert [r["id"] for r in db.execute("SELECT id FROM sales")] == [
            1, 2, 3,
        ]

    def test_a_literal_type_is_part_of_the_key(self, parses):
        db = sales_db()
        del parses[:]
        sql = "SELECT * FROM by_product WHERE product = ?"
        for value in ("a", 1, 1.5, None, True, "b", 2):
            db.execute(sql, params=(value,))
        assert len(parses) == 5  # str, int, float, NoneType, bool

    @pytest.mark.parametrize("sql, params, where", [
        ("SELECT * FROM sales WHERE id = ?", (), "line 1, column 32"),
        ("SELECT * FROM sales WHERE id = ? OR id = ?", (1,),
         "line 1, column 42"),
        ("SELECT * FROM sales WHERE id = 1", (1,), "line 1, column 33"),
        ("SELECT * FROM sales WHERE id = -?", (), "line 1, column 33"),
        ("UPDATE sales SET amount = amount - ? WHERE id = 1", (),
         "line 1, column 36"),
    ])
    def test_a_wrong_parameter_count_is_a_bind_error(self, sql, params, where):
        with pytest.raises(BindError, match="placeholders") as err:
            sales_db().execute(sql, params=params)
        assert where in str(err.value)

    @pytest.mark.parametrize("value", [[1], {"a": 1}, b"x", object()])
    def test_a_parameter_of_no_literal_type_is_a_bind_error(self, value):
        with pytest.raises(BindError, match="parameter 2") as err:
            sales_db().execute(
                "INSERT INTO sales (id, product, amount) VALUES (?, ?, 1)",
                params=(1, value),
            )
        assert "line 1, column 52" in str(err.value)

    def test_a_question_mark_in_a_string_or_comment_is_not_a_placeholder(self):
        db = sales_db()
        db.execute(
            "INSERT INTO sales (id, product, amount) -- why?\n"
            "VALUES (?, 'what?', 1)", params=(7,),
        )
        assert db.read_committed("sales", (7,))["product"] == "what?"

    def test_the_shape_of_a_text(self):
        assert shape_of("SELECT a FROM t1 WHERE b = -5 AND c = 'x--?'") == (
            "SELECT a FROM t1 WHERE b = -? AND c = ?", [5, "x--?"],
        )
        assert shape_of("VALUES (?, 2.5) -- 3 'q'", ("s",)) == (
            "VALUES (?, ?) -- 3 'q'", ["s", 2.5],
        )
        assert shape_of("a = ?") == (None, None)
        assert shape_of("a = ?", ([],)) == (None, None)

    def test_the_oldest_shape_goes_first_when_the_cache_is_full(
        self, parses
    ):
        db = sales_db()
        shapes = [
            f"SELECT id AS c{i} FROM sales WHERE id = 1"
            for i in range(PREPARED_SHAPES + 1)
        ]
        for sql in shapes:
            db.execute(sql)
        del parses[:]
        db.execute(shapes[-1])
        db.execute(shapes[1])
        assert parses == []
        db.execute(shapes[0])
        assert parses == [shapes[0]]

    def test_a_text_that_cannot_keep_a_plan_is_not_looked_up(
        self, parses, monkeypatch
    ):
        db = sales_db()
        lookups = []
        real = db.indexes.prepared
        monkeypatch.setattr(
            db.indexes, "prepared",
            lambda key: lookups.append(key) or real(key),
        )
        del parses[:]
        for sql in (
            "INSERT INTO sales VALUES (1, 'a', 2); "
            "DELETE FROM sales WHERE id = 1",
            "EXPLAIN SELECT * FROM sales WHERE id = 1",
            "CHECK VIEW by_product",
            "-- a note\nSELECT * FROM sales WHERE id = 1",
        ):
            db.execute(sql)
            db.execute(sql)
        assert lookups == []
        assert len(parses) == 8
        db.execute("select * from sales where id = 1;")
        db.execute("select * from sales where id = 2;")
        assert len(lookups) == 2 and len(parses) == 9

    def test_a_syntax_error_is_reported_before_a_parameter_count(self):
        with pytest.raises(ParseError):
            sales_db().execute("SELECT * FROM sales WHERE ? ?")


# ---------------------------------------------------------------------
# one shape never shares a wrong plan
# ---------------------------------------------------------------------

TEMPLATES = [
    "SELECT * FROM one WHERE k = {}",
    "SELECT k, s FROM one WHERE k >= {} AND k < {}",
    "SELECT * FROM one WHERE s = {} OR k = {}",
    "SELECT * FROM two WHERE k1 = {} AND k2 = {}",
    "SELECT * FROM by_a WHERE a = {}",
    "SELECT a, COUNT(*) AS n FROM one WHERE k IN ({}) GROUP BY a",
    "SELECT a, COUNT(*) AS n, SUM(k * {}) AS s FROM one GROUP BY a",
    "UPDATE one SET a = a + {} WHERE k = {}",
    "UPDATE one SET s = {} WHERE k BETWEEN {} AND {}",
    "DELETE FROM one WHERE k = {}",
    "INSERT INTO one (k, a, s) VALUES ({}, {}, {})",
]

edge_values = st.one_of(
    st.integers(-2, 11),
    st.sampled_from([0.5, 2.0, -1.5]),
    st.sampled_from(["a", "b", "x--y", "a;b", "?", "it's", "''"]),
    st.none(),
    st.booleans(),
)


def literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@st.composite
def statements(draw):
    template = draw(st.sampled_from(TEMPLATES))
    n = template.count("{}")
    values = draw(st.lists(edge_values, min_size=n, max_size=n))
    spelled = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sql = template.format(
        *("?" if ask else literal(v) for v, ask in zip(values, spelled))
    )
    return sql, tuple(v for v, ask in zip(values, spelled) if ask)


def attempt(fn):
    try:
        return fn()
    except Exception as exc:  # the class is the outcome
        return type(exc).__name__


def outcome(db, sql, params):
    requests = db.stats()["lock"]["requests"]
    result = attempt(lambda: db.execute(sql, params=params))
    path = None
    if not sql.startswith("INSERT"):
        path = attempt(
            lambda: db.execute(f"EXPLAIN {sql}", params=params).path
        )
    return result, path, db.stats()["lock"]["requests"] - requests


@settings(max_examples=40, deadline=None)
@given(st.lists(statements(), min_size=3, max_size=8))
def test_one_shape_never_shares_a_wrong_plan(program):
    warm, cold = build_db(), build_db()
    for template in TEMPLATES:  # every shape cached with int literals
        sql = template.format(*(str(20 + i) for i in range(template.count("{}"))))
        assert outcome(warm, sql, ()) == outcome(cold, sql, ())
    for sql, params in program:
        expected = outcome(warm, sql, params)
        cold.indexes.replan(())
        assert outcome(cold, sql, params) == expected, sql
    assert log_digest(warm) == log_digest(cold)
    assert warm.check_all_views() == []


# ---------------------------------------------------------------------
# one literal grammar: the lifted values are the parse's slots
# ---------------------------------------------------------------------

FRAGMENTS = [
    "-- a note: ? 'x' 3\n", "''", "'\u00e9'", "\u00e9", "\u00b2",
    "\u0661", "7", "?", " ",
]


@settings(max_examples=200, deadline=None)
@given(statements(), st.lists(
    st.tuples(st.integers(0, 200), st.sampled_from(FRAGMENTS)), max_size=3,
))
def test_the_lifted_values_are_the_slots_of_the_parse(statement, inserts):
    """Whenever ``shape_of`` lifts and ``tokenize`` succeeds on one text,
    the lifted values are the slotted tokens' values, type for type."""
    sql, params = statement
    for at, fragment in inserts:
        at %= len(sql) + 1
        sql = sql[:at] + fragment + sql[at:]
    shape, values = shape_of(sql, params)
    try:
        tokens = tokenize(sql, params)
    except SqlError:
        return
    if shape is None:
        return
    slots = [token.value for token in tokens if token.slot is not None]
    assert [(type(v), v) for v in values] == [(type(v), v) for v in slots]


# ---------------------------------------------------------------------
# counted, and invalidated
# ---------------------------------------------------------------------


def order_statement(orders, rows=4):
    values = ", ".join(
        "({id}, {product}, {customer}, {amount})".format(
            **orders.next_sale_values()
        )
        for _ in range(rows)
    )
    return (
        f"INSERT INTO {SALES} (id, product, customer, amount) VALUES {values}"
    )


def test_a_warm_order_sql_transaction_is_not_parsed(parses):
    db = Database()
    orders = OrderEntryWorkload(db, seed=11).setup().seed_groups()
    session = db.session()
    session.execute(order_statement(orders))
    warm = len(parses)
    for _ in range(20):
        assert session.execute(order_statement(orders)) == 4
    assert len(parses) == warm
    assert db.check_all_views() == []


class TestACachedInsertFollowsTheCatalog:
    SQL = "INSERT INTO sales (id, product, amount) VALUES ({}, {}, {})"

    def run(self, db, n):
        db.execute(self.SQL.format(n, n % 3, n * 10))

    def test_after_each_catalog_change(self, parses):
        db = sales_db()
        del parses[:]
        self.run(db, 1)
        self.run(db, 2)
        assert len(parses) == 1

        db.execute(
            "CREATE UNIQUE INDEXED VIEW by_amount AS SELECT amount, "
            "COUNT(*) AS n FROM sales GROUP BY amount"
        )
        self.run(db, 3)
        assert db.read_committed("by_amount", (30,))["n"] == 1

        db.create_secondary_index("sales", "product", ("product",))
        self.run(db, 4)
        assert [r["id"] for r in db.session().lookup(
            "sales", "product", (1,)
        )] == [1, 4]

        db.quarantine_view("by_product")
        self.run(db, 5)
        db.rebuild_view("by_product")
        self.run(db, 6)
        assert db.read_committed("by_product", (0,))["n"] == 2

        db.simulate_crash_and_recover()
        self.run(db, 7)
        assert db.read_committed("by_product", (1,))["n"] == 3
        assert db.check_all_views() == []
        assert db.check_integrity().clean
        # parsed: the first INSERT, the CREATE, and the INSERT after each
        # replan (the view, the index, recovery); quarantine and rebuild
        # change no plan, so the INSERTs around them hit
        assert len(parses) == 5
