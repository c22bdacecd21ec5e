"""The static view-program analyzer (docs/ANALYSIS.md §5): lock
footprints, the lock-order graph, the SA diagnostic surface through
``CHECK VIEW`` / ``EXPLAIN``, the sharded DDL gate, and the promise
that matters most — a statically flagged deadlock-prone view pair
really deadlocks at runtime, while escrow-only schemas stay acyclic.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static import (
    LockOrderGraph,
    StaticAnalyzer,
    check_copartition,
    check_view,
)
from repro.analysis.static.footprint import (
    index_read_footprint,
    statement_footprint,
)
from repro.common import CatalogError, DeadlockError, ReproError, WouldWait
from repro.core import Database, EngineConfig
from repro.dist import ShardedDatabase
from repro.obs import validate_static_report
from repro.query import AggregateSpec
from repro.query.predicates import Predicate
from repro.txn import LockPolicy
from repro.views import AggregateView, ProjectionView
from tests.test_sql_access_paths import lock_triples, predicted_locks


def escrow_db():
    """A banking-style escrow-only schema (the paper's sweet spot)."""
    db = Database()
    db.execute(
        """
        CREATE TABLE accounts (id, branch, balance, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW branch_totals AS
            SELECT branch, COUNT(*) AS n, SUM(balance) AS total
            FROM accounts GROUP BY branch;
        """
    )
    return db


def extreme_db():
    """A MIN view: escrow-ineligible, rescans on delete."""
    db = Database()
    db.execute(
        """
        CREATE TABLE bids (id, item, price, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW best_bid AS
            SELECT item, COUNT(*) AS n, MIN(price) AS lowest
            FROM bids GROUP BY item;
        """
    )
    return db


def deadlock_pair_db():
    """The seeded deadlock-prone pair: two join views over the same two
    tables with *opposite* left/right roles, so their maintenance reads
    cross in opposite orders."""
    db = Database()
    db.execute(
        """
        CREATE TABLE a (aid, bref, x, PRIMARY KEY (aid));
        CREATE TABLE b (bid, aref, y, PRIMARY KEY (bid));
        CREATE UNIQUE INDEXED VIEW va AS
            SELECT aid, bid, x, y FROM a JOIN b ON a.bref = b.bid;
        CREATE UNIQUE INDEXED VIEW vb AS
            SELECT bid, aid, y, x FROM b JOIN a ON b.aref = a.aid;
        """
    )
    return db


# -- footprints ------------------------------------------------------------


class TestFootprints:
    def test_xlock_strategy_downgrades_escrow_to_exclusive(self):
        db = escrow_db()
        footprint = statement_footprint(
            db.catalog, "accounts", "insert", strategy="xlock"
        )
        modes = {
            s.mode for s in footprint.steps
            if s.index == "branch_totals" and s.resource == "key <group>"
        }
        assert "E" not in modes and "X" in modes

    @pytest.mark.parametrize("make, base, view", [
        (escrow_db, "accounts", "branch_totals"),
        (extreme_db, "bids", "best_bid"),
    ])
    def test_aggregate_delete_never_returns_to_the_base(self, make, base,
                                                        view):
        """A MIN/MAX delete's rescan reads the base rows without a lock,
        so an extreme view orders its locks like an escrow one."""
        footprint = statement_footprint(make().catalog, base, "delete")
        assert footprint.indexes_in_order() == (base, view)
        assert footprint.steps[-1].index == view

    def test_steps_name_the_view_whose_binding_takes_them(self):
        db = deadlock_pair_db()
        footprint = statement_footprint(db.catalog, "a", "insert")
        assert {(s.index, s.view) for s in footprint.steps} == {
            ("a", None),  # the table intent and the new key
            ("b", "va"), ("b", "vb"),  # va's fk read, vb's referencing rows
            ("va", "va"), ("vb", "vb"),
        }

    def test_insert_reads_before_any_write(self):
        db = deadlock_pair_db()
        footprint = statement_footprint(db.catalog, "a", "insert")
        order = [s.index for s in footprint.steps]
        assert order[0] == "a"  # the table intent
        first_write = order.index("a", 1)  # the new key's gap fence
        assert set(order[1:first_write]) == {"b"}  # the compile reads
        assert "b" not in order[first_write:]

    def test_insert_is_range_fenced_only_when_serializable(self):
        db = escrow_db()
        fenced = statement_footprint(
            db.catalog, "accounts", "insert", serializable=True
        )
        unfenced = statement_footprint(
            db.catalog, "accounts", "insert", serializable=False
        )
        assert any(s.mode == "RangeI-N" for s in fenced.steps)
        base_gaps = [
            s for s in unfenced.steps
            if s.index == "accounts" and s.mode == "RangeI-N"
        ]
        assert base_gaps == []

    def test_index_read_footprint_point_vs_scan(self):
        point = index_read_footprint("branch_totals", "<view key>", "point")
        scan = index_read_footprint("branch_totals", "<view key>")
        assert point.steps[0].mode == "S"
        assert scan.steps[0].mode == "RangeS-S"
        assert {s.index for s in point.steps + scan.steps} == {
            "branch_totals"
        }

    def test_unknown_statement_shape_is_a_catalog_error(self):
        db = escrow_db()
        with pytest.raises(CatalogError, match="unknown statement shape"):
            statement_footprint(db.catalog, "accounts", "merge")


# -- the lock-order graph --------------------------------------------------


class TestLockOrderGraph:
    @pytest.mark.parametrize("make", [escrow_db, extreme_db])
    def test_aggregate_schemas_are_acyclic(self, make):
        graph = LockOrderGraph.from_catalog(make().catalog)
        assert graph.deadlock_components() == []

    def test_join_pair_forms_a_cross_table_cycle(self):
        db = deadlock_pair_db()
        graph = LockOrderGraph.from_catalog(db.catalog)
        (component,) = graph.deadlock_components()
        assert component == ("a", "b")
        (edges,) = graph.component_edge_map([component]).values()
        assert graph.views_inducing(edges) == ("va", "vb")

    def test_edges_carry_their_inducing_statements(self):
        db = extreme_db()
        graph = LockOrderGraph.from_catalog(db.catalog)
        assert set(graph.edges) == {("bids", "best_bid")}
        assert "delete bids" in graph.edges[("bids", "best_bid")]

    def test_render_lines_name_every_edge(self):
        db = escrow_db()
        graph = LockOrderGraph.from_catalog(db.catalog)
        lines = graph.render_lines()
        assert "lock-order graph" in lines[0]
        assert any("accounts -> branch_totals" in line for line in lines)


# -- the runtime agrees with the analyzer ----------------------------------


def _builders():
    from tests.test_sql_access_paths import indexed_sales_db
    from tests.test_static_golden import CATALOGS

    return {
        **CATALOGS,
        "best_bid": extreme_db,
        "deadlock_pair": deadlock_pair_db,
        "indexed_sales": indexed_sales_db,
    }


BUILDERS = _builders()


def _domains(db, schema):
    """Values to draw for each column of ``schema``: the ones its rows
    hold, plus small integers (and one past the views' thresholds) unless
    it holds another type."""
    rows = [row for _, row in db.scan_committed(schema.name)]
    out = {}
    for column in schema.columns:
        held = {row[column] for row in rows}
        if all(isinstance(value, int) for value in held):
            held |= {0, 1, 2, 3, 150}
        out[column] = sorted(held)
    return out


class TestRuntimeAgreesWithAnalyzer:
    """One-row DML on generated states of every shipped schema (and the
    MIN view, the deadlock pair and both kinds of secondary index): each
    lock a statement requests lies inside its EXPLAIN footprint, and each
    ordered pair of distinct indexes it locks is a lock-order edge."""

    @settings(max_examples=100, deadline=None)
    @given(label=st.sampled_from(sorted(BUILDERS)), data=st.data())
    def test_requested_locks_lie_inside_the_footprint(self, label, data):
        db = BUILDERS[label]()
        analyzer = StaticAnalyzer.configured(db.catalog, db.config)
        edges = set(analyzer.lock_order_graph().edges)
        events = []
        db.tracer.enable()
        db.tracer.listeners.append(
            lambda e: e.name == "lock_acquire"
            and events.append(e.as_dict()["fields"])
        )
        tables = sorted(schema.name for schema in db.catalog.tables())
        for _ in range(data.draw(st.integers(1, 8), label="statements")):
            schema = db.catalog.table(data.draw(st.sampled_from(tables)))
            op = data.draw(st.sampled_from(("insert", "update", "delete")))
            row = {
                column: data.draw(st.sampled_from(values), label=column)
                for column, values in _domains(db, schema).items()
            }
            key = tuple(row[c] for c in schema.primary_key)
            changed = data.draw(st.sets(st.sampled_from([
                c for c in schema.columns if c not in schema.primary_key
            ]), min_size=1), label="changed")
            events.clear()
            txn = db.begin()
            try:
                if op == "insert":
                    db.insert(txn, schema.name, row)
                elif op == "update":
                    db.update(txn, schema.name, key,
                              {c: row[c] for c in changed})
                else:
                    db.delete(txn, schema.name, key)
                db.commit(txn)
            except ReproError:
                db.abort(txn)
            requested = lock_triples(events)
            report = analyzer.explain(op, schema.name)
            assert set(requested) <= predicted_locks(report), (op, schema.name)
            order = [index for index, _, _ in requested]
            pairs = {
                (u, v) for i, u in enumerate(order) for v in order[i + 1:]
                if u != v
            }
            assert pairs <= edges, (op, schema.name, pairs - edges)

    def test_a_key_s_then_a_fence_on_that_key_is_the_predicted_fence(self):
        """Inserting ``b`` row 0 when ``a`` holds only row 1 reads ``a``
        row 1 by key (for ``va``), then fences the gap below it (for
        ``vb``): one RangeS-S conversion, whose request was the predicted
        fence. An unpredicted range lock on another key still fails."""
        db = deadlock_pair_db()
        report = StaticAnalyzer.configured(db.catalog, db.config).explain(
            "insert", "b"
        )
        txn = db.begin()
        db.insert(txn, "a", {"aid": 1, "bref": 0, "x": 0})
        db.commit(txn)
        events = []
        db.tracer.enable()
        db.tracer.listeners.append(
            lambda e: e.name == "lock_acquire"
            and events.append(e.as_dict()["fields"])
        )
        with db.session() as session:
            db.insert(session.current_transaction, "b",
                      {"bid": 0, "aref": 0, "y": 0})
        key_s, range_s = events[2], events[3]
        assert (key_s["mode"], range_s["mode"]) == ("Range(NL,S)", "Range(S,S)")
        assert range_s["conversion"] and range_s["resource"] == ["key", "a", [1]]
        assert set(lock_triples(events)) <= predicted_locks(report)
        elsewhere = {**range_s, "resource": ["key", "a", [2]]}
        assert ("a", "range", "RangeS-S") in lock_triples([key_s, elsewhere])
        assert not set(lock_triples([key_s, elsewhere])) <= predicted_locks(report)


# -- CHECK VIEW / EXPLAIN through the SQL surface --------------------------


class TestCheckViewSurface:
    def test_check_view_pins_sa001_for_an_extreme_view(self):
        db = extreme_db()
        report = db.execute("CHECK VIEW best_bid")
        (diag,) = [d for d in report.diagnostics if d.code == "SA001"]
        assert diag.severity == "warning"
        assert "not invertible" in diag.message
        assert "lowest" in diag.message
        assert any("counterexample" in line for line in diag.evidence)

    def test_check_view_flags_the_deadlock_cycle_it_belongs_to(self):
        db = deadlock_pair_db()
        report = db.execute("CHECK VIEW va")
        (diag,) = [d for d in report.diagnostics if d.code == "SA010"]
        assert "deadlock" in diag.message

    def test_an_extreme_view_is_not_deadlock_prone(self):
        report = extreme_db().execute("CHECK VIEW best_bid")
        assert [d.code for d in report.diagnostics] == ["SA001"]

    def test_clean_view_reports_no_diagnostics(self):
        db = escrow_db()
        report = db.execute("CHECK VIEW branch_totals")
        assert report.ok
        assert report.diagnostics == []
        assert any(
            "diagnostics: none" in line for line in report.render_lines()
        )

    def test_check_view_shows_proofs_and_footprints(self):
        db = escrow_db()
        lines = db.execute("CHECK VIEW branch_totals").render_lines()
        text = "\n".join(lines)
        assert "column n: escrow [count-unit]" in text
        assert "column total: escrow [sum-linear]" in text
        assert "footprint insert accounts" in text

    def test_opaque_predicate_reports_sa003(self):
        db = Database()
        db.create_table("t", ("id", "flag"), ("id",))
        db.create_view(ProjectionView(
            "odd",
            "t",
            ("id", "flag"),
            where=Predicate(lambda row: row["id"] % 2 == 1, "id % 2 = 1"),
        ))
        report = check_view(db, "odd")
        (diag,) = [d for d in report.diagnostics if d.code == "SA003"]
        assert diag.severity == "info"
        assert "id % 2 = 1" in diag.message

    def test_fanout_reports_sa011_once_past_two_indexes(self):
        db = escrow_db()
        db.execute(
            "CREATE UNIQUE INDEXED VIEW rich AS "
            "SELECT id, balance FROM accounts WHERE balance >= 1000;"
        )
        report = db.execute("CHECK VIEW rich")
        (diag,) = [d for d in report.diagnostics if d.code == "SA011"]
        assert diag.subject == "insert accounts"
        assert "2 extra indexes" in diag.message

    def test_explain_insert_renders_the_footprint(self):
        db = escrow_db()
        report = db.execute("EXPLAIN INSERT INTO accounts "
                            "(id, branch, balance) VALUES (1, 'b', 10)")
        text = "\n".join(report.render_lines())
        assert "EXPLAIN insert accounts" in text
        assert "branch_totals/key <group>: E -- branch_totals: escrow" in text

    def test_fanout_is_the_statement_s_own(self):
        """SA011 counts the indexes one op locks: a join's left-side
        DELETE ghosts its view rows and reads nothing."""
        db = Database()
        db.execute(
            """
            CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
            CREATE TABLE products (pid, name, PRIMARY KEY (pid));
            CREATE UNIQUE INDEXED VIEW named AS
                SELECT id, pid, name, amount FROM sales
                JOIN products ON sales.product = products.pid;
            """
        )
        report = db.execute("EXPLAIN DELETE FROM sales WHERE id = 1")
        assert report.footprints[-1].indexes_in_order() == ("sales", "named")
        assert report.diagnostics == []
        report = db.execute("EXPLAIN INSERT INTO sales VALUES (1, 1, 5)")
        (diag,) = report.diagnostics
        assert diag.code == "SA011"
        assert "2 extra indexes beyond the base: products, named" in (
            diag.message
        )

    def test_explain_select_scans_without_maintenance_locks(self):
        db = escrow_db()
        report = db.execute("EXPLAIN SELECT * FROM branch_totals")
        (footprint,) = report.footprints
        assert [s.index for s in footprint.steps] == ["branch_totals"]

    def test_explain_create_view_does_not_register_it(self):
        db = escrow_db()
        report = db.execute(
            "EXPLAIN CREATE UNIQUE INDEXED VIEW lows AS "
            "SELECT branch, COUNT(*) AS n, MIN(balance) AS lo "
            "FROM accounts GROUP BY branch"
        )
        assert not db.catalog.has_view("lows")
        text = "\n".join(report.render_lines())
        assert "SA001" in text  # the would-be view is escrow-ineligible

    def test_explain_unknown_table_is_a_catalog_error(self):
        db = escrow_db()
        with pytest.raises(CatalogError, match="no base table"):
            db.execute("EXPLAIN INSERT INTO ghosts (id) VALUES (1)")

    def test_shell_prints_check_view_reports(self):
        from repro.sql.shell import main

        db = extreme_db()
        out = io.StringIO()
        main(io.StringIO("CHECK VIEW best_bid;\n.quit\n"), out, db)
        assert "CHECK VIEW best_bid (aggregate):" in out.getvalue()
        assert "SA001" in out.getvalue()

    def test_check_view_emits_a_static_check_event(self):
        db = extreme_db()
        db.tracer.enable()
        db.execute("CHECK VIEW best_bid")
        (event,) = db.tracer.events(name="static_check")
        assert event.fields["subject"] == "best_bid"
        assert event.fields["kind"] == "check_view"
        assert event.fields["warnings"] >= 1
        assert event.fields["errors"] == 0


# -- check_all and the report document -------------------------------------


class TestCheckAll:
    def test_report_document_is_schema_valid(self):
        db = deadlock_pair_db()
        report = StaticAnalyzer(db.catalog).check_all()
        doc = report.to_doc()
        assert validate_static_report(doc) == []
        assert doc["views_checked"] == ["va", "vb"]
        assert doc["deadlock_components"]

    def test_counts_tally_the_diagnostics(self):
        db = extreme_db()
        report = StaticAnalyzer(db.catalog).check_all()
        counts = report.counts()
        assert counts["warning"] == 1  # SA001; the rescan takes no lock
        assert sum(counts.values()) == len(report.diagnostics)
        assert report.ok  # warnings never fail the gate

    @pytest.mark.parametrize("n_tables", [2, 4, 8])
    def test_diagnostics_scale_linearly_with_the_catalog(self, n_tables):
        """N independent tables, each with a MIN view (SA001) and a
        projection (fan-out past two indexes, SA011): two diagnostics per
        table, and no deadlock cycle."""
        db = Database()
        for i in range(n_tables):
            db.execute(
                f"CREATE TABLE t{i} (id, grp, amount, PRIMARY KEY (id));"
                f"CREATE UNIQUE INDEXED VIEW low{i} AS SELECT grp, "
                f"COUNT(*) AS n, MIN(amount) AS lo FROM t{i} GROUP BY grp;"
                f"CREATE UNIQUE INDEXED VIEW flat{i} AS "
                f"SELECT id, amount FROM t{i} WHERE amount >= 0;"
            )
        report = StaticAnalyzer(db.catalog).check_all()
        assert sorted((d.code, d.subject) for d in report.diagnostics) == (
            sorted([("SA001", f"low{i}") for i in range(n_tables)]
                   + [("SA011", f"insert t{i}") for i in range(n_tables)])
        )
        assert report.graph.deadlock_components() == []

    def test_cli_runs_clean_over_the_demo_catalogs(self):
        from repro.analysis.check import main

        out = io.StringIO()
        assert main([], out=out) == 0
        text = out.getvalue()
        assert "order-entry workload" in text
        assert "banking workload" in text

    def test_cli_json_documents_validate(self):
        import json

        from repro.analysis.check import main

        out = io.StringIO()
        assert main(["--json"], out=out) == 0
        docs = json.loads(out.getvalue())
        for label, doc in docs.items():
            assert validate_static_report(doc, label=label) == []


# -- the sharded DDL gate --------------------------------------------------


class TestShardGate:
    BOUNDS = (100, 200)

    def fleet(self):
        db = ShardedDatabase(
            self.BOUNDS, EngineConfig(aggregate_strategy="escrow")
        )
        db.create_table("accounts", ("id", "region", "amount"), ("id",))
        return db

    def test_non_copartitioned_view_warns_sa020_and_proceeds(self):
        db = self.fleet()
        db.create_view(AggregateView(
            "totals",
            "accounts",
            ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
        ))
        (diag,) = db.copartition_warnings
        assert diag.code == "SA020" and diag.severity == "warning"
        assert "scatter-gather" in diag.message
        assert "3 partitions" in diag.message

    def test_copartitioned_projection_is_silent(self):
        db = self.fleet()
        db.create_view(ProjectionView("flat", "accounts", ("id", "amount")))
        assert db.copartition_warnings == []

    def test_join_view_is_refused_with_sa021(self):
        db = self.fleet()
        db.create_table("branches", ("region", "city"), ("region",))
        with pytest.raises(CatalogError, match=r"\[SA021\]") as info:
            db.create_view(
                "CREATE UNIQUE INDEXED VIEW named AS "
                "SELECT id, accounts.region, amount, city "
                "FROM accounts JOIN branches "
                "ON accounts.region = branches.region"
            )
        message = str(info.value)
        assert message.startswith(
            "join views are not supported in dist mode"
        )
        assert "route independently" in message

    def test_check_view_reports_the_copartition_verdict(self):
        db = self.fleet()
        db.create_view(AggregateView(
            "totals",
            "accounts",
            ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
        ))
        report = db.check_view("totals")
        assert any(d.code == "SA020" for d in report.diagnostics)

    def test_ddl_checks_emit_static_check_events(self):
        db = self.fleet()
        db.tracer.enable()
        db.create_view(AggregateView(
            "totals",
            "accounts",
            ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
        ))
        (event,) = db.tracer.events(name="static_check")
        assert event.fields["subject"] == "totals"
        assert event.fields["warnings"] == 1

    def test_copartition_check_is_schema_only(self):
        db = escrow_db()
        view = db.catalog.view("branch_totals")
        diagnostics = check_copartition(db.catalog, view)
        (diag,) = diagnostics
        assert diag.code == "SA020"
        assert "all partitions" in diag.message


# -- the acceptance story: static flag, runtime confirmation ---------------


class TestSeededDeadlock:
    def test_analyzer_flags_the_pair_statically(self):
        db = deadlock_pair_db()
        report = StaticAnalyzer(db.catalog).check_all()
        (diag,) = [d for d in report.diagnostics if d.code == "SA010"]
        assert "va" in diag.subject and "vb" in diag.subject
        assert any("a -> b" in line for line in diag.evidence)
        assert any("b -> a" in line for line in diag.evidence)

    def test_runtime_deadlock_detector_confirms_the_flag(self):
        db = deadlock_pair_db()
        db.execute("INSERT INTO a (aid, bref, x) VALUES (1, 1, 10)")
        db.execute("INSERT INTO b (bid, aref, y) VALUES (1, 1, 20)")

        t1 = db.begin(policy=LockPolicy.COOPERATIVE)
        t2 = db.begin(policy=LockPolicy.COOPERATIVE)
        # t1's a-row update holds the shared view row; t2's b-row
        # update needs it while holding its base row; t1's insert then
        # needs t2's base row — the crossed order SA010 described.
        # Cooperative retries build the cycle; the youngest (t2) is the
        # victim on its retry.
        db.update(t1, "a", (1,), {"x": 11})
        with pytest.raises(WouldWait):
            db.update(t2, "b", (1,), {"y": 21})
        with pytest.raises(WouldWait):
            db.insert(t1, "a", {"aid": 2, "bref": 1, "x": 1})
        with pytest.raises(DeadlockError):
            db.update(t2, "b", (1,), {"y": 21})
        assert db.locks.stats.deadlocks >= 1
        db.abort(t2)
        db.abort(t1)

    def test_escrow_only_control_never_waits(self):
        db = escrow_db()
        db.execute(
            "INSERT INTO accounts (id, branch, balance) VALUES "
            "(1, 'k', 100), (2, 'k', 50)"
        )
        assert StaticAnalyzer(db.catalog).check_all().to_doc()[
            "deadlock_components"
        ] == []
        t1 = db.begin(policy=LockPolicy.COOPERATIVE)
        t2 = db.begin(policy=LockPolicy.COOPERATIVE)
        db.insert(t1, "accounts", {"id": 3, "branch": "k", "balance": 7})
        db.insert(t2, "accounts", {"id": 4, "branch": "k", "balance": 9})
        assert db.commit(t1) and db.commit(t2)
