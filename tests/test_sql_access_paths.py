"""Index access paths for SQL (``repro.sql.access``).

A keyed SELECT/UPDATE/DELETE reads the B-tree it names instead of
scanning — and range-locking — the whole index. Four things are pinned:

* **the answer never changes**: a Hypothesis property generates WHERE
  trees over one- and two-column keys, tables and aggregate views, both
  isolation levels, and compares every statement with
  full-scan-then-filter;
* **each shape picks the path it should** (point / range / full);
* **the lock footprint shrinks** to one key or one gap fence, phantom
  protection included, and a keyed reader no longer meets an escrow
  writer of another group;
* **EXPLAIN agrees with the runtime**: the locks a traced statement
  requests lie inside the footprint EXPLAIN predicted.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CatalogError,
    Database,
    LockPolicy,
    LockTimeoutError,
    WouldWait,
)
from repro.catalog.schema import TableSchema
from repro.common.keys import NEG_INF, POS_INF, KeyRange
from repro.sql import parse
from repro.sql.access import FULL, POINT, RANGE, plan_access
from repro.sql.binder import Scope, compile_predicate

# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------

ONE_ROWS = [  # (k, a, s): k has holes at 4 and 8
    (0, 1, "a"), (1, 2, "b"), (2, 1, "c"), (3, 3, "a"), (5, 2, "d"),
    (6, 1, "b"), (7, 3, "e"), (9, 2, "c"),
]
TWO_ROWS = [  # (k1, k2, a): an int then a string key column
    (0, "a", 1), (0, "c", 2), (1, "a", 3), (1, "b", 1), (1, "d", 2),
    (2, "b", 3), (3, "a", 1), (3, "c", 2), (3, "d", 3),
]
COLUMNS = {
    "one": {"k": int, "a": int, "s": str},
    "two": {"k1": int, "k2": str, "a": int},
    "by_a": {"a": int, "n": int, "total": int},
    "by_pair": {"k1": int, "a": int, "n": int},
}
KEYS = {
    "one": ("k",), "two": ("k1", "k2"), "by_a": ("a",),
    "by_pair": ("k1", "a"),
}


def build_db():
    """Two tables, two aggregate views. ``by_a`` ends with a count-0
    group (a = 4: inserted, then deleted — a ghost awaiting cleanup)."""
    db = Database()
    db.execute(
        """
        CREATE TABLE one (k, a, s, PRIMARY KEY (k));
        CREATE TABLE two (k1, k2, a, PRIMARY KEY (k1, k2));
        CREATE UNIQUE INDEXED VIEW by_a AS
            SELECT a, COUNT(*) AS n, SUM(k) AS total FROM one GROUP BY a;
        CREATE UNIQUE INDEXED VIEW by_pair AS
            SELECT k1, a, COUNT(*) AS n FROM two GROUP BY k1, a;
        """
    )
    values = ", ".join(f"({k}, {a}, '{s}')" for k, a, s in ONE_ROWS)
    db.execute(f"INSERT INTO one VALUES {values}, (10, 4, 'z')")
    db.execute("DELETE FROM one WHERE k = 10")
    values = ", ".join(f"({k1}, '{k2}', {a})" for k1, k2, a in TWO_ROWS)
    db.execute(f"INSERT INTO two VALUES {values}")
    return db


def scope_of(db, name):
    catalog = db.catalog
    if catalog.has_view(name):
        view = catalog.view(name)
        schema = TableSchema(name, view.columns, view.key_columns)
    else:
        schema = catalog.table(name)
    return Scope({name: schema}), schema


def where_ast(name, where):
    (stmt,) = parse(f"SELECT * FROM {name} WHERE {where}")
    return stmt.where


def path_of(db, name, where):
    scope, schema = scope_of(db, name)
    return plan_access(
        where_ast(name, where), schema.primary_key, scope.resolve
    )


def full_scan_then_filter(db, txn, name, where):
    """The reference: every row the engine's full scan returns, filtered
    by the compiled predicate. Returns ``TypeError`` (the class) when the
    predicate cannot be evaluated on some row it meets."""
    scope, _schema = scope_of(db, name)
    predicate = compile_predicate(where_ast(name, where), scope)
    try:
        return [row for row in db.scan(txn, name) if predicate(row)]
    except TypeError:
        return TypeError


# ---------------------------------------------------------------------
# each shape picks its path
# ---------------------------------------------------------------------


class TestPathSelection:
    @pytest.mark.parametrize("where, key", [
        ("k = 5", (5,)),
        ("5 = k", (5,)),
        ("k IN (5)", (5,)),
        ("k = 5 AND a > 1", (5,)),
        ("a > 1 AND k = 5 AND s <> 'x'", (5,)),
        ("k = 5 AND (a = 1 OR a = 2)", (5,)),
        ("k = 5 AND NOT a = 1", (5,)),
        ("k = 2.0", (2.0,)),
        ("k = 5 AND k = 6", (5,)),  # first wins; the filter empties it
    ])
    def test_point_on_a_one_column_key(self, where, key):
        path = path_of(build_db(), "one", where)
        assert (path.kind, path.key) == (POINT, key)

    def test_point_needs_every_column_of_a_composite_key(self):
        db = build_db()
        path = path_of(db, "two", "k1 = 1 AND k2 = 'b'")
        assert (path.kind, path.key) == (POINT, (1, "b"))
        path = path_of(db, "two", "k2 = 'b' AND a = 1 AND k1 = 1")
        assert (path.kind, path.key) == (POINT, (1, "b"))
        assert path_of(db, "by_pair", "a = 2 AND k1 = 3").key == (3, 2)

    @pytest.mark.parametrize("where, expected", [
        ("k > 5", KeyRange.at_least((5,), inclusive=False)),
        ("k >= 5", KeyRange.at_least((5,))),
        ("5 < k", KeyRange.at_least((5,), inclusive=False)),
        ("k < 5", KeyRange.at_most((5,), inclusive=False)),
        ("5 >= k", KeyRange.at_most((5,))),
        ("k BETWEEN 2 AND 6", KeyRange.between((2,), (6,))),
        ("k > 2 AND k <= 6 AND a = 1",
         KeyRange.between((2,), (6,), low_inclusive=False)),
        ("k > 2 AND k > 4", KeyRange.at_least((2,), inclusive=False)),
    ])
    def test_range_on_a_one_column_key(self, where, expected):
        path = path_of(build_db(), "one", where)
        assert path.kind == RANGE
        assert path.key_range == expected

    @pytest.mark.parametrize("where, expected", [
        ("k1 = 1", KeyRange.prefix((1,), 2)),
        ("k1 = 1 AND a = 3", KeyRange.prefix((1,), 2)),
        ("k1 = 1 AND k2 > 'b'",
         KeyRange.between((1, "b"), (1, POS_INF), low_inclusive=False)),
        ("k1 = 1 AND k2 <= 'b'", KeyRange.between((1, NEG_INF), (1, "b"))),
        ("k1 >= 2", KeyRange.at_least((2, NEG_INF))),
        ("k1 > 2", KeyRange.at_least((2, POS_INF), inclusive=False)),
        ("k1 < 2", KeyRange.at_most((2, NEG_INF), inclusive=False)),
        ("k1 <= 2 AND k2 = 'a'", KeyRange.at_most((2, POS_INF))),
    ])
    def test_range_on_a_key_prefix(self, where, expected):
        path = path_of(build_db(), "two", where)
        assert path.kind == RANGE
        assert path.key_range == expected

    @pytest.mark.parametrize("name, where", [
        ("one", "a = 1"),                   # not a key column
        ("one", "k = 5 OR k = 6"),          # OR at the top level
        ("one", "NOT k = 5"),               # NOT at the top level
        ("one", "k <> 5"),
        ("one", "k IN (5, 6)"),
        ("one", "k NOT IN (5)"),
        ("one", "k = NULL"),
        ("one", "k BETWEEN NULL AND NULL"),
        ("one", "k = a"),                   # column against column
        ("one", "(k = 5 AND a = 1) OR s = 'a'"),
        ("two", "k2 = 'b'"),                # key, but not a prefix
        ("two", "k2 > 'a' AND a = 1"),
    ])
    def test_everything_else_scans(self, name, where):
        assert path_of(build_db(), name, where).kind == FULL

    def test_no_where_scans(self):
        assert plan_access(None, ("k",), None).kind == FULL


# ---------------------------------------------------------------------
# the answer never changes
# ---------------------------------------------------------------------


def literal_for(kind):
    if kind is int:
        return st.integers(min_value=-1, max_value=11).map(str)
    if kind is float:
        return st.integers(min_value=-1, max_value=10).map(
            lambda n: f"{n}.5"
        )
    if kind is str:
        return st.sampled_from(["a", "b", "c", "d", "e", "zz", ""]).map(
            lambda s: f"'{s}'"
        )
    return st.just("NULL")


def literals(column_kind):
    """Mostly literals of the column's own kind; now and then a float
    against an int column, a mismatched kind, or NULL."""
    own = [literal_for(column_kind)] * 6
    if column_kind is int:
        own.append(literal_for(float))
    other = literal_for(str if column_kind is int else int)
    return st.one_of(*own, other, literal_for(None))


@st.composite
def leaf(draw, name):
    columns = COLUMNS[name]
    # key columns draw three times as often: they are what the planner
    # acts on, the others only ride along in the residual filter
    column = draw(st.sampled_from(sorted(columns) + list(KEYS[name]) * 2))
    lits = literals(columns[column])
    shape = draw(st.sampled_from(
        ["cmp"] * 5 + ["flipped", "between", "in", "not_in"]
    ))
    if shape in ("cmp", "flipped"):
        # equality and ordering weigh the same: both paths get traffic
        op = draw(st.sampled_from(
            ["=", "=", "=", "<", "<=", ">", ">=", "<>"]
        ))
        value = draw(lits)
        return (
            f"{column} {op} {value}" if shape == "cmp"
            else f"{value} {op} {column}"
        )
    if shape == "between":
        return f"{column} BETWEEN {draw(lits)} AND {draw(lits)}"
    values = ", ".join(draw(st.lists(lits, min_size=1, max_size=3)))
    negation = "NOT " if shape == "not_in" else ""
    return f"{column} {negation}IN ({values})"


def where_trees(name):
    """A conjunction of one to three parts — the shape the planner
    splits — each a leaf or an arbitrary AND/OR/NOT subtree."""
    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda lr: f"({lr[0]} AND {lr[1]})"),
            pair.map(lambda lr: f"({lr[0]} OR {lr[1]})"),
            children.map(lambda c: f"NOT ({c})"),
        )

    subtree = st.recursive(leaf(name), extend, max_leaves=4)
    part = st.one_of(leaf(name), leaf(name), leaf(name), subtree)
    return st.lists(part, min_size=1, max_size=3).map(" AND ".join)


@st.composite
def statements(draw, names):
    name = draw(st.sampled_from(names))
    return name, draw(where_trees(name))


class TestAnswerNeverChanges:
    @settings(max_examples=250, deadline=None)
    @given(
        statements(["one", "two", "by_a", "by_pair"]),
        st.sampled_from(["serializable", "snapshot"]),
    )
    def test_select_equals_full_scan_then_filter(self, stmt, isolation):
        name, where = stmt
        db = build_db()
        txn = db.begin(isolation=isolation)
        # A writer commits after the reader began: a snapshot reader
        # must not see it on any path, a serializable one on every path.
        db.execute("INSERT INTO one VALUES (4, 2, 'n')")
        db.execute("INSERT INTO two VALUES (2, 'a', 9)")
        expected = full_scan_then_filter(db, txn, name, where)
        sql = f"SELECT * FROM {name} WHERE {where}"
        if expected is TypeError:
            # No reference answer exists. The planner reads fewer rows,
            # so it may or may not meet the row the predicate chokes on;
            # what it may not do is fail any other way.
            try:
                db.execute(sql, txn=txn)
            except TypeError:
                pass
        else:
            assert db.execute(sql, txn=txn) == expected
        db.commit(txn)

    @settings(max_examples=150, deadline=None)
    @given(
        statements(["one", "two"]),
        st.sampled_from(["UPDATE", "DELETE"]),
        st.sampled_from(["serializable", "snapshot"]),
    )
    def test_update_and_delete_change_exactly_the_matching_rows(
        self, stmt, verb, isolation
    ):
        name, where = stmt
        db = build_db()
        session = db.session(isolation=isolation)
        session.begin()
        txn = session.current_transaction
        matching = full_scan_then_filter(db, txn, name, where)
        before = db.scan(txn, name)
        session.rollback()
        if matching is TypeError:
            return  # no reference answer (see the SELECT property)
        key_of = db.catalog.table(name).key_of
        hit = {key_of(row) for row in matching}
        if verb == "UPDATE":
            sql = f"UPDATE {name} SET a = a + 100 WHERE {where}"
            expected = [
                row.replace(a=row["a"] + 100) if key_of(row) in hit else row
                for row in before
            ]
        else:
            sql = f"DELETE FROM {name} WHERE {where}"
            expected = [row for row in before if key_of(row) not in hit]
        assert session.execute(sql) == len(hit)
        assert db.execute(f"SELECT * FROM {name}") == expected
        assert db.check_all_views() == []

    def test_count_zero_groups_stay_invisible_on_every_path(self):
        db = build_db()
        assert db.index("by_a").get_record((4,), include_ghost=True)
        assert db.execute("SELECT * FROM by_a WHERE a = 4") == []
        assert db.execute("SELECT * FROM by_a WHERE a >= 4") == []
        assert [r["a"] for r in db.execute("SELECT * FROM by_a")] == [1, 2, 3]

    def test_an_unorderable_literal_falls_back_to_the_scan(self):
        db = build_db()
        # equality against the wrong kind: false for every row, no error
        assert db.execute("SELECT * FROM one WHERE k = 'five'") == []
        assert db.execute("DELETE FROM one WHERE k = 'five'") == 0
        assert db.execute(
            "SELECT * FROM two WHERE k1 = 1 AND k2 = 7"
        ) == []
        # ordering against the wrong kind: the predicate's own TypeError
        with pytest.raises(TypeError):
            db.execute("SELECT * FROM one WHERE k < 'five'")

    def test_orderability_is_settled_before_the_engine_is_called(self):
        db = build_db()
        stored = db.index("two").first_key()
        for where, orders in [
            ("k1 = 1 AND k2 = 7", False),  # k2 holds strings
            ("k1 = 1 AND k2 = 'x'", True),
            ("k1 = 'one'", False),
            ("k1 = 1 AND k2 > 3", False),
            ("k1 >= 1.5", True),
        ]:
            path = path_of(db, "two", where)
            assert path.kind != FULL
            assert path.orders_with(stored) is orders, where
            assert path.orders_with(None)  # an empty index: no compare

    def test_an_engine_type_error_is_not_mistaken_for_a_bad_literal(
        self, monkeypatch
    ):
        db = build_db()
        scans = []

        def broken_read(*args, **kwargs):
            raise TypeError("a defect inside the engine")

        monkeypatch.setattr(db, "read", broken_read)
        monkeypatch.setattr(
            db, "scan", lambda *a, **k: scans.append(a) or []
        )
        with pytest.raises(TypeError, match="inside the engine"):
            db.execute("SELECT * FROM one WHERE k = 5")
        assert scans == []

    def test_grouped_select_over_a_keyed_range(self):
        db = build_db()
        keyed = db.execute(
            "SELECT a, COUNT(*) AS n FROM one WHERE k >= 5 GROUP BY a"
        )
        assert [(r["a"], r["n"]) for r in keyed] == [(1, 1), (2, 2), (3, 1)]

    def test_quarantined_view_answers_from_recomputation(self):
        db = build_db()
        record = db.index("by_a").get_record((2,))
        record.current_row = record.current_row.replace(n=99)  # damage
        db.quarantine_view("by_a")
        assert db.execute("SELECT * FROM by_a WHERE a = 2") == [
            row for row in db.execute("SELECT * FROM by_a")
            if row["a"] == 2
        ]
        (row,) = db.execute("SELECT * FROM by_a WHERE a = 2")
        assert row["n"] == 3
        assert db.execute("SELECT a FROM by_a WHERE a > 2") == [
            row.project(["a"]) for row in db.execute("SELECT * FROM by_a")
            if row["a"] > 2
        ]

    def test_view_mid_online_build_refuses_keyed_reads_too(self):
        db = build_db()
        builder = db.begin_online_build(
            "CREATE UNIQUE INDEXED VIEW by_s WITH (online = true) AS "
            "SELECT s, COUNT(*) AS n FROM one GROUP BY s"
        )
        builder.start()
        for where in ("s = 'a'", "s > 'a'", "n = 1"):
            with pytest.raises(CatalogError, match="being built online"):
                db.execute(f"SELECT * FROM by_s WHERE {where}")
        db.execute("INSERT INTO one VALUES (11, 5, 'a')")  # a writer
        builder.finish()
        assert db.execute("SELECT * FROM by_s WHERE s = 'a'")[0]["n"] == 3


# ---------------------------------------------------------------------
# joins: the WHERE narrows the outer table, the inner one is scanned
# ---------------------------------------------------------------------


def join_db():
    db = Database()
    db.execute(
        """
        CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
        CREATE TABLE products (pid, name, PRIMARY KEY (pid));
        INSERT INTO products VALUES (1, 'anvil'), (2, 'piano'), (3, 'tnt');
        INSERT INTO sales VALUES
            (1, 1, 30), (2, 2, 500), (3, 3, 7), (4, 1, 12), (5, 9, 1);
        """
    )
    return db


JOIN = (
    "SELECT id, name, amount FROM sales "
    "JOIN products ON sales.product = products.pid"
)


def key_locks(db, txn, index):
    """The key-level locks (keys and gap fences) ``txn`` holds on
    ``index``, as ``(resource, mode repr)`` pairs."""
    return [
        (resource, repr(mode))
        for resource, mode in db.locks.locks_of(txn.txn_id)
        if resource[0] in ("key", "eof") and resource[1] == index
    ]


class TestJoin:
    def test_keyed_outer_side_reads_one_outer_row(self):
        db = join_db()
        session = db.session()
        session.begin()
        rows = session.execute(f"{JOIN} WHERE id = 4")
        assert [tuple(r.values()) for r in rows] == [(4, "anvil", 12)]
        txn = session.current_transaction
        assert key_locks(db, txn, "sales") == [
            (("key", "sales", (4,)), "Range(NL,S)")
        ]
        # the inner table is still scanned whole: three keys and the fence
        assert len(key_locks(db, txn, "products")) == 4
        session.commit()

    def test_results_match_the_unnarrowed_join(self):
        db = join_db()
        everything = db.execute(JOIN)
        assert len(everything) == 4
        for where, keep in [
            ("id = 2", lambda r: r["id"] == 2),
            ("id = 5", lambda r: False),  # a dangling foreign key
            ("id >= 3", lambda r: r["id"] >= 3),
            ("id BETWEEN 1 AND 4 AND name = 'anvil'",
             lambda r: r["name"] == "anvil"),
        ]:
            assert db.execute(f"{JOIN} WHERE {where}") == [
                r for r in everything if keep(r)
            ]

    def test_explain_reports_the_outer_path_and_the_inner_scan(self):
        db = join_db()
        report = db.execute(f"EXPLAIN {JOIN} WHERE name = 'tnt'")
        assert report.path == "full"
        assert [f.label for f in report.footprints] == [
            "scan sales", "scan products"
        ]
        report = db.execute(f"EXPLAIN {JOIN} WHERE id = 3")
        assert report.path == "point"
        assert [f.label for f in report.footprints] == [
            "read sales", "scan products"
        ]


# ---------------------------------------------------------------------
# the lock footprint
# ---------------------------------------------------------------------


def sales_db(groups=40):
    """A view with ``groups`` even-numbered groups, every one seeded so
    later inserts into it take E (an existing group), not X."""
    db = Database()
    db.execute(
        """
        CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW by_product AS
            SELECT product, COUNT(*) AS n, SUM(amount) AS total
            FROM sales GROUP BY product;
        """
    )
    values = ", ".join(f"({i}, {2 * i}, 10)" for i in range(1, groups + 1))
    db.execute(f"INSERT INTO sales VALUES {values}")
    return db


KEYED = "SELECT product, n, total FROM by_product WHERE product = {}"

SALES_INDEXES = {"sales#by_code", "sales#by_product"}


def indexed_sales_db():
    """``sales`` with a unique and a non-unique secondary index."""
    db = Database()
    db.execute("CREATE TABLE sales (id, product, code, amount, PRIMARY KEY (id))")
    db.create_secondary_index("sales", "by_code", ("code",), unique=True)
    db.create_secondary_index("sales", "by_product", ("product",))
    values = ", ".join(f"({i}, {i % 4}, 'c{i}', 10)" for i in range(1, 11))
    db.execute(f"INSERT INTO sales VALUES {values}")
    return db


class TestLockFootprint:
    def test_present_key_holds_exactly_one_key_lock(self):
        db = sales_db()
        session = db.session()
        session.begin()
        (row,) = session.execute(KEYED.format(8))
        assert row["n"] == 1
        txn = session.current_transaction
        assert key_locks(db, txn, "by_product") == [
            (("key", "by_product", (8,)), "Range(NL,S)")
        ]
        session.commit()

    def test_lock_requests_do_not_grow_with_the_view(self):
        def requests(db, sql):
            before = db.stats()["lock"]["requests"]
            db.execute(sql)
            return db.stats()["lock"]["requests"] - before

        for groups in (10, 200):
            db = sales_db(groups)
            # the key and its table IS — however large the view
            assert requests(db, KEYED.format(8)) == 2
            assert requests(
                db, "SELECT product, n, total FROM by_product"
            ) > groups

    def test_absent_key_holds_one_gap_fence_and_blocks_its_insert(self):
        db = sales_db()
        reader = db.session()
        reader.begin()
        assert reader.execute(KEYED.format(7)) == []
        assert key_locks(db, reader.current_transaction, "by_product") == [
            (("key", "by_product", (8,)), "Range(S,NL)")
        ]
        # phantom protection: creating group 7 must wait for the reader
        writer = db.session(policy=LockPolicy.COOPERATIVE)
        writer.begin()
        with pytest.raises(WouldWait):
            writer.execute("INSERT INTO sales VALUES (900, 7, 1)")
        # a group in another gap is nobody's business
        other = db.session(policy=LockPolicy.COOPERATIVE)
        other.begin()
        other.execute("INSERT INTO sales VALUES (901, 21, 1)")
        other.commit()
        reader.commit()
        writer.execute("INSERT INTO sales VALUES (900, 7, 1)")
        writer.commit()
        assert db.execute(KEYED.format(7))[0]["n"] == 1
        assert db.check_all_views() == []

    def test_keyed_reader_does_not_meet_an_escrow_writer_elsewhere(self):
        db = sales_db()
        writer = db.session()
        writer.begin()
        writer.execute("INSERT INTO sales VALUES (900, 4, 5)")
        held = db.locks.held_mode(
            writer.current_transaction.txn_id, ("key", "by_product", (4,))
        )
        assert repr(held) == "Range(NL,E)"  # an uncommitted escrow delta

        reader = db.session(policy=LockPolicy.COOPERATIVE)
        reader.begin()
        (row,) = reader.execute(KEYED.format(8))  # another group: no wait
        assert row["total"] == 10
        with pytest.raises(WouldWait):  # the writer's own group waits
            reader.execute(KEYED.format(4))
        reader.rollback()

        unkeyed = db.session(policy=LockPolicy.COOPERATIVE)
        unkeyed.begin()
        with pytest.raises(WouldWait):  # the scan still meets the writer
            unkeyed.execute("SELECT product, n, total FROM by_product")
        unkeyed.rollback()

        nowait = db.session()
        assert nowait.execute(KEYED.format(8))[0]["n"] == 1
        with pytest.raises(LockTimeoutError):
            nowait.execute("SELECT product, n, total FROM by_product")
        writer.commit()

    def test_keyed_update_and_delete_lock_only_their_row(self):
        db = sales_db()
        holder = db.session()
        holder.begin()
        holder.execute("UPDATE sales SET amount = 11 WHERE id = 3")
        txn = holder.current_transaction
        assert key_locks(db, txn, "sales") == [
            (("key", "sales", (3,)), "Range(NL,X)")
        ]
        # another session changes other rows meanwhile — impossible when
        # every UPDATE range-locked the whole table first
        other = db.session()
        assert other.execute("UPDATE sales SET amount = 12 WHERE id = 5") == 1
        assert other.execute("DELETE FROM sales WHERE id = 6") == 1
        with pytest.raises(LockTimeoutError):
            other.execute("DELETE FROM sales WHERE id = 3")
        holder.commit()
        assert db.check_all_views() == []

    def test_snapshot_reader_takes_no_locks_on_any_path(self):
        db = sales_db()
        session = db.session(isolation="snapshot")
        session.begin()
        assert session.execute(KEYED.format(8))[0]["n"] == 1
        session.execute("SELECT product FROM by_product WHERE product > 70")
        assert db.locks.locks_of(session.current_transaction.txn_id) == []
        session.commit()


# ---------------------------------------------------------------------
# EXPLAIN agrees with the runtime
# ---------------------------------------------------------------------

_MODE = re.compile(r"Range\((\w+),(\w+)\)")


def requested_locks(db, sql):
    """Run ``sql`` in its own traced transaction; return the symbolic
    ``(index, resource kind, mode)`` of every lock it requested."""
    db.tracer.enable()
    db.tracer.clear()
    session = db.session()
    session.begin()
    session.execute(sql)
    events = [
        e["fields"] for e in db.tracer.as_dicts()
        if e["name"] == "lock_acquire"
    ]
    session.rollback()
    db.tracer.disable()
    return lock_triples(events)


def lock_triples(events):
    """The symbolic ``(index, resource kind, mode)`` of each traced
    ``lock_acquire`` event's ``fields``, in order. A conversion traces
    the supremum of what was held and what was asked: where ``events``
    hold the earlier grant on the same key, its triple is the part the
    conversion added (a key S and then a fence on that key trace one
    RangeS-S, whose request was the fence)."""
    out, granted = [], {}
    for fields in events:
        resource, mode = fields["resource"], fields["mode"]
        if resource[0] == "table":
            out.append((resource[1], "table", mode.split(".")[1]))
            continue
        gap, key = _MODE.match(mode).groups()
        before = granted.get(repr(resource))
        granted[repr(resource)] = (gap, key)
        if fields["conversion"] and before is not None:
            gap = "NL" if gap == before[0] else gap
            key = "NL" if key == before[1] else key
            if gap == key == "NL":
                continue
        if gap == "S" and key == "S":
            out.append((resource[1], "range", "RangeS-S"))
        elif gap == "S":
            out.append((resource[1], "fence", "RangeS-S"))
        elif gap == "I":
            out.append((resource[1], "gap", "RangeI-N"))
        else:
            out.append((resource[1], "key", key))
    return out


def predicted_locks(report):
    """What a footprint allows: its steps, the gap fence a range step
    includes, and the table intention lock every key lock implies."""
    allowed = set()
    for footprint in report.footprints:
        for step in footprint.steps:
            kind = step.resource.split()[0]
            allowed.add((step.index, kind, step.mode))
            if kind == "range":
                allowed.add((step.index, "fence", step.mode))
            if kind == "gap" and step.mode == "RangeS-S":
                allowed.add((step.index, "fence", step.mode))
            if kind != "table":
                intent = "IS" if step.mode in ("S", "U", "RangeS-S") else "IX"
                allowed.add((step.index, "table", intent))
    return allowed


class TestExplainAgreesWithRuntime:
    @pytest.mark.parametrize("sql, path, max_key_locks", [
        (KEYED.format(8), "point", 1),
        (KEYED.format(7), "point", 1),
        ("SELECT * FROM by_product WHERE product BETWEEN 8 AND 14",
         "range", 5),
        ("SELECT * FROM by_product WHERE product > 70", "range", 6),
        ("SELECT * FROM by_product WHERE n = 1", "full", None),
        ("SELECT * FROM by_product", "full", None),
        ("SELECT * FROM sales WHERE id = 3", "point", 1),
        ("SELECT * FROM sales WHERE id < 4 AND amount = 10", "range", 4),
        ("SELECT * FROM sales WHERE amount = 10", "full", None),
        ("UPDATE sales SET amount = 11 WHERE id = 3", "point", None),
        ("UPDATE sales SET amount = 11 WHERE id = 300", "point", None),
        ("UPDATE sales SET amount = 11 WHERE id <= 2", "range", None),
        ("DELETE FROM sales WHERE id = 3", "point", None),
        ("DELETE FROM sales WHERE amount = 11", "full", None),
    ])
    def test_requested_locks_lie_inside_the_prediction(
        self, sql, path, max_key_locks
    ):
        db = sales_db()
        report = db.execute(f"EXPLAIN {sql}")
        assert report.path == path
        assert f"  path: {path}" in report.render_lines()
        requested = requested_locks(db, sql)
        assert requested, "the statement took no locks at all"
        assert set(requested) <= predicted_locks(report)
        if max_key_locks is not None:
            key_level = [r for r in requested if r[1] != "table"]
            assert len(key_level) <= max_key_locks

    @pytest.mark.parametrize("sql, touched", [
        ("INSERT INTO sales VALUES (50, 2, 'c50', 10)", True),
        ("UPDATE sales SET product = 0, code = 'moved' WHERE id = 3", True),
        ("UPDATE sales SET amount = 11 WHERE id = 3", False),
        ("DELETE FROM sales WHERE id = 3", True),
    ])
    def test_secondary_index_maintenance_lies_inside_the_prediction(
        self, sql, touched
    ):
        """A secondary index is a view in the catalog, so EXPLAIN lists
        its maintenance — worst case, an UPDATE moving its entry — and
        the locks the statement requests on it lie inside that."""
        db = indexed_sales_db()
        report = db.execute(f"EXPLAIN {sql}")
        predicted_indexes = {
            step.index for footprint in report.footprints
            for step in footprint.steps
        }
        assert SALES_INDEXES <= predicted_indexes
        requested = requested_locks(db, sql)
        assert set(requested) <= predicted_locks(report)
        requested_indexes = {index for index, _, _ in requested}
        assert (SALES_INDEXES <= requested_indexes) is touched

    def test_point_footprint_of_a_view_read(self):
        db = sales_db()
        report = db.execute(f"EXPLAIN {KEYED.format(8)}")
        (footprint,) = report.footprints
        assert footprint.label == "read by_product"
        assert [(s.resource, s.mode) for s in footprint.steps] == [
            ("key <view key>", "S"), ("gap <view key>", "RangeS-S"),
        ]

    def test_explain_never_runs_the_statement(self):
        db = sales_db()
        db.execute("EXPLAIN DELETE FROM sales WHERE id = 3")
        assert db.execute("SELECT * FROM sales WHERE id = 3") != []

    def test_shape_only_explain_still_assumes_the_scan(self):
        from repro.analysis.static import StaticAnalyzer

        db = sales_db()
        report = StaticAnalyzer(db.catalog).explain("select", "by_product")
        assert report.path == "full"
        report = StaticAnalyzer(db.catalog).explain("update", "sales")
        assert report.path is None and len(report.footprints) == 1

    def test_explain_keeps_its_catalog_error_for_unknown_tables(self):
        db = sales_db()
        for sql in ("UPDATE ghosts SET v = 1 WHERE id = 1",
                    "DELETE FROM ghosts WHERE id = 1"):
            with pytest.raises(CatalogError, match="no base table"):
                db.execute(f"EXPLAIN {sql}")
