"""The analyzer proper: compose prover, footprints, lock graph and
shard checks into reports.

Three entry points:

* :meth:`StaticAnalyzer.check_view` — everything the analyzer knows
  about one registered view (``CHECK VIEW name`` in the shell);
* :meth:`StaticAnalyzer.explain` — the inferred lock footprint of one
  statement shape (``EXPLAIN <stmt>``);
* :meth:`StaticAnalyzer.check_all` — the whole catalog: per-view
  diagnostics plus the global lock-order verdict (``make analyze``,
  ``python -m repro.analysis.check``).

:meth:`StaticAnalyzer.configured` builds the analyzer for an engine's
configuration; :func:`check_view` and :func:`explain` run the first two
against a live engine — the dialect's ``CHECK VIEW`` and ``EXPLAIN``.

Reports are plain objects with ``diagnostics`` (a list of
:class:`~repro.analysis.static.diagnostics.Diagnostic`, sorted most
severe first) and ``render_lines()`` for human output; ``to_doc()``
produces the dict shape validated by
:func:`repro.obs.schema.validate_static_report`.
"""

from repro.analysis.static.diagnostics import Diagnostic, trace_static_check
from repro.analysis.static.footprint import (
    index_read_footprint,
    is_opaque,
    statement_footprint,
)
from repro.analysis.static.lockgraph import LockOrderGraph
from repro.analysis.static.shard import check_copartition
from repro.common import CatalogError, UnsupportedSqlError


def _sorted_diagnostics(diagnostics):
    return sorted(diagnostics, key=lambda d: d.sort_key())


class ViewCheckReport:
    """``CHECK VIEW`` output: proofs, footprints, diagnostics."""

    def __init__(self, view, proofs, footprints, diagnostics):
        self.view = view
        self.proofs = tuple(proofs)  # (column, Proof) pairs
        self.footprints = tuple(footprints)
        self.diagnostics = _sorted_diagnostics(diagnostics)

    @property
    def ok(self):
        return not any(d.severity == "error" for d in self.diagnostics)

    def render_lines(self):
        lines = [f"CHECK VIEW {self.view.name} ({self.view.kind}):"]
        for column, proof in self.proofs:
            verdict = "escrow" if proof.eligible else "exclusive"
            lines.append(
                f"  column {column}: {verdict} [{proof.rule}] — "
                f"{proof.reason}"
            )
        for footprint in self.footprints:
            lines.extend("  " + line for line in footprint.render_lines())
        if self.diagnostics:
            lines.append("  diagnostics:")
            lines.extend(
                f"    {d.render()}" for d in self.diagnostics
            )
        else:
            lines.append("  diagnostics: none")
        return lines

    def __repr__(self):
        return (
            f"ViewCheckReport({self.view.name!r}, "
            f"{len(self.diagnostics)} diagnostics)"
        )


class ExplainReport:
    """``EXPLAIN`` output: one statement's inferred footprint, and —
    for a statement that reads by a WHERE — the access path it takes
    (``point``, ``range`` or ``full``; ``None`` for shapes that do not
    read)."""

    def __init__(self, label, footprints, diagnostics=(), path=None):
        self.label = label
        self.footprints = tuple(footprints)
        self.diagnostics = _sorted_diagnostics(diagnostics)
        self.path = path

    def render_lines(self):
        lines = [f"EXPLAIN {self.label}:"]
        if self.path is not None:
            lines.append(f"  path: {self.path}")
        for footprint in self.footprints:
            lines.extend("  " + line for line in footprint.render_lines())
        if self.diagnostics:
            lines.append("  diagnostics:")
            lines.extend(f"    {d.render()}" for d in self.diagnostics)
        return lines

    def __repr__(self):
        return f"ExplainReport({self.label!r})"


class StaticReport:
    """``check_all`` output over a whole catalog."""

    def __init__(self, views_checked, diagnostics, graph):
        self.views_checked = tuple(views_checked)
        self.diagnostics = _sorted_diagnostics(diagnostics)
        self.graph = graph

    @property
    def ok(self):
        return not any(d.severity == "error" for d in self.diagnostics)

    def counts(self):
        out = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity] += 1
        return out

    def render_lines(self):
        counts = self.counts()
        lines = [
            f"static analysis: {len(self.views_checked)} views, "
            f"{counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} notes"
        ]
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        lines.extend(self.graph.render_lines())
        return lines

    def to_doc(self):
        return {
            "views_checked": list(self.views_checked),
            "counts": self.counts(),
            "diagnostics": [d.to_doc() for d in self.diagnostics],
            "graph_nodes": len(self.graph.nodes),
            "graph_edges": len(self.graph.edges),
            "deadlock_components": [
                list(scc) for scc in self.graph.deadlock_components()
            ],
        }


class StaticAnalyzer:
    """Analyze the views registered in one catalog.

    ``strategy`` and ``serializable`` mirror the engine configuration
    the footprints should model; ``partitioner`` switches on the shard
    co-partitioning checks (the sharded engine passes its own).
    """

    def __init__(self, catalog, strategy="escrow", serializable=True,
                 partitioner=None):
        self.catalog = catalog
        self.strategy = strategy
        self.serializable = serializable
        self.partitioner = partitioner

    @classmethod
    def configured(cls, catalog, config, partitioner=None):
        """The analyzer modelling an engine run with ``config`` (an
        :class:`~repro.core.config.EngineConfig`)."""
        return cls(
            catalog, strategy=config.aggregate_strategy,
            serializable=config.serializable, partitioner=partitioner,
        )

    # -- building blocks ----------------------------------------------

    def lock_order_graph(self):
        return LockOrderGraph.from_catalog(
            self.catalog, self.strategy, self.serializable
        )

    def proof_diagnostics(self, view):
        """SA001 per non-escrow aggregate column, with the proof's
        reasoning as evidence."""
        out = []
        for spec in getattr(view, "aggregates", ()):
            if not spec.proof.eligible:
                out.append(
                    Diagnostic(
                        "SA001",
                        view.name,
                        f"column {spec.out!r} ({spec.func.name}"
                        f"({spec.source})): {spec.proof.reason}",
                        evidence=spec.proof.evidence,
                    )
                )
        return out

    def predicate_diagnostics(self, view):
        if is_opaque(view):
            return [
                Diagnostic(
                    "SA003",
                    view.name,
                    f"predicate ({view.where.description}) is a "
                    f"hand-written closure with no AST; the analyzer "
                    f"assumes every base row is relevant",
                )
            ]
        return []

    def footprint(self, table, op):
        """The write footprint of one row's ``op`` on ``table``."""
        return statement_footprint(
            self.catalog, table, op, self.strategy, self.serializable
        )

    def fanout_diagnostics(self, table, footprint):
        """SA011 when ``footprint`` (a statement's on ``table``) locks
        more than one index beyond the base; ``[]`` otherwise."""
        fanout = [n for n in footprint.indexes_in_order() if n != table]
        if len(fanout) <= 1:
            return []
        return [
            Diagnostic(
                "SA011",
                footprint.label,
                f"one statement locks {len(fanout)} extra "
                f"indexes beyond the base: {', '.join(fanout)}",
            )
        ]

    def deadlock_diagnostics(self, graph=None, only_view=None):
        """SA010 per deadlock-prone SCC, naming the views involved and
        the statement shapes inducing each internal edge."""
        graph = graph or self.lock_order_graph()
        out = []
        components = graph.deadlock_components()
        edge_map = graph.component_edge_map(components)
        for i, component in enumerate(components):
            edges = edge_map[i]
            views = graph.views_inducing(edges)
            if only_view is not None and only_view not in views:
                continue
            edge_text = "; ".join(
                f"{u} -> {v} ({', '.join(labels)})"
                for u, v, labels in edges
            )
            out.append(
                Diagnostic(
                    "SA010",
                    ", ".join(views) if views else ", ".join(component),
                    f"locks on {{{', '.join(component)}}} can be "
                    f"requested in conflicting orders: {edge_text} — "
                    f"concurrent statements from these shapes can "
                    f"deadlock",
                    evidence=tuple(
                        f"{u} -> {v} via {label}"
                        for u, v, labels in edges
                        for label in labels
                    ),
                )
            )
        return out

    def shard_diagnostics(self, view):
        if self.partitioner is None:
            return []
        return check_copartition(self.catalog, view, self.partitioner)

    # -- entry points -------------------------------------------------

    def check_view(self, name):
        view = self.catalog.view(name)
        proofs = [
            (spec.out, spec.proof)
            for spec in getattr(view, "aggregates", ())
        ]
        footprints, fanout = [], []
        for table in view.base_tables():
            inserts = self.footprint(table, "insert")
            footprints += [inserts, self.footprint(table, "delete")]
            fanout += self.fanout_diagnostics(table, inserts)
        footprints.append(
            index_read_footprint(view.name, "<view key>", "point")
        )
        diagnostics = (
            self.proof_diagnostics(view)
            + self.predicate_diagnostics(view)
            + fanout
            + self.deadlock_diagnostics(only_view=name)
            + self.shard_diagnostics(view)
        )
        return ViewCheckReport(view, proofs, footprints, diagnostics)

    def explain(self, op, target, statement=None):
        """Footprint of one statement shape: ``op`` in insert/update/
        delete against a base table, or select against any index.

        ``statement`` (the parsed AST) lets the report follow the access
        path the SQL planner picks from the WHERE clause: a keyed
        SELECT shrinks from the whole-index scan to one key (or one
        range), and an UPDATE/DELETE gains the locate step that reads
        its rows. Without it the shape is analyzed at its worst case.
        """
        if op in ("insert", "update", "delete"):
            if not self.catalog.has_table(target):
                raise CatalogError(
                    f"EXPLAIN: no base table named {target!r}"
                )
            footprints = [self.footprint(target, op)]
            path = None
            if op != "insert":
                path = self._access_path(statement)
            if path is not None:
                footprints.insert(0, index_read_footprint(
                    target, f"<pk({target})>", path, for_update=True
                ))
            return ExplainReport(
                f"{op} {target}", footprints,
                self.fanout_diagnostics(target, footprints[-1]), path=path,
            )
        if op == "select":
            if self.catalog.has_view(target):
                key_sym = "<view key>"
            else:
                self.catalog.table(target)  # CatalogError when unknown
                key_sym = f"<pk({target})>"
            path = self._access_path(statement) or "full"
            footprints = [index_read_footprint(target, key_sym, path)]
            join = getattr(statement, "join", None)
            if join is not None:  # the inner table is scanned whole
                inner = join.table.name
                footprints.append(
                    index_read_footprint(inner, f"<pk({inner})>")
                )
            return ExplainReport(f"select {target}", footprints, path=path)
        raise CatalogError(f"EXPLAIN: unknown statement shape {op!r}")

    def _access_path(self, statement):
        """The path kind the SQL planner picks for ``statement``;
        ``None`` without one."""
        if statement is None:
            return None
        from repro.sql.compiler import access_path

        return access_path(self.catalog, statement).kind

    def check_all(self):
        graph = self.lock_order_graph()
        diagnostics = []
        names = []
        for view in self.catalog.views():
            names.append(view.name)
            diagnostics.extend(self.proof_diagnostics(view))
            diagnostics.extend(self.predicate_diagnostics(view))
            diagnostics.extend(self.shard_diagnostics(view))
        diagnostics.extend(self.deadlock_diagnostics(graph))
        # fan-out is per-table, not per-view: report once per table
        for schema in self.catalog.tables():
            diagnostics.extend(self.fanout_diagnostics(
                schema.name, self.footprint(schema.name, "insert")
            ))
        return StaticReport(sorted(names), diagnostics, graph)


def check_view(db, name):
    """``CHECK VIEW name`` against a live engine (traced as a
    ``static_check`` event); touches no data."""
    report = StaticAnalyzer.configured(db.catalog, db.config).check_view(name)
    trace_static_check(db.tracer, name, "check_view", report.diagnostics)
    return report


def explain(db, statement):
    """``EXPLAIN <stmt>`` against a live engine: the parsed
    ``statement``'s lock footprint and access path, without executing
    it; ``EXPLAIN CREATE ... VIEW`` analyzes the would-be view against a
    copy of the catalog."""
    from repro.sql import ast as sql_ast
    from repro.sql import compile_view

    analyzer = StaticAnalyzer.configured(db.catalog, db.config)
    if isinstance(statement, sql_ast.Insert):
        report = analyzer.explain("insert", statement.table)
    elif isinstance(statement, (sql_ast.Update, sql_ast.Delete)):
        op = "update" if isinstance(statement, sql_ast.Update) else "delete"
        report = analyzer.explain(op, statement.table, statement)
    elif isinstance(statement, sql_ast.Select):
        report = analyzer.explain("select", statement.table.name, statement)
    elif isinstance(statement, sql_ast.CreateView):
        definition = compile_view(statement, db.catalog)
        scratch = db.catalog.copy()
        scratch.add_view(definition)
        check = StaticAnalyzer.configured(scratch, db.config).check_view(
            definition.name
        )
        report = ExplainReport(
            f"create view {definition.name}", check.footprints,
            check.diagnostics,
        )
    else:
        raise UnsupportedSqlError(
            f"EXPLAIN has no plan for {type(statement).__name__} statements"
        )
    trace_static_check(db.tracer, report.label, "explain", report.diagnostics)
    return report
