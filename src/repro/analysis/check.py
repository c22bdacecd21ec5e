"""Command-line entry point for the static view-program analyzer.

Run as ``python -m repro.analysis.check [script.sql ...]`` or via
``make analyze``. With SQL script arguments, the scripts (DDL plus any
seed DML) are executed against a scratch in-memory engine and the
resulting catalog is analyzed; with no arguments, the built-in demo
catalogs (the order-entry and banking workloads — the schemas every
benchmark runs) are analyzed instead.

Output is each catalog's :class:`~repro.analysis.static.analyzer.StaticReport`
(``--view NAME`` narrows to one ``CHECK VIEW`` report; ``--json`` emits
the machine-readable document validated by
:func:`repro.obs.schema.validate_static_report`). Exit status 1 when
any catalog reports an error-severity diagnostic, 0 otherwise —
warnings and notes never fail the gate, mirroring the severity
contract in ``docs/ANALYSIS.md``.
"""

import argparse
import json
import pathlib
import sys

from repro.analysis.static import StaticAnalyzer


def _demo_catalogs():
    """The built-in schemas: every view shape the repo ships."""
    from repro.core.database import Database
    from repro.workload.banking import BankingWorkload
    from repro.workload.orders import OrderEntryWorkload

    orders = Database()
    OrderEntryWorkload(
        orders, n_products=4, with_join_view=True, with_category_view=True
    ).setup()
    banking = Database()
    BankingWorkload(banking, n_branches=2, accounts_per_branch=2).setup()
    return [("order-entry workload", orders), ("banking workload", banking)]


def _script_catalog(paths):
    from repro.core.database import Database

    db = Database()
    for path in paths:
        db.execute(pathlib.Path(path).read_text())
    return [(" ".join(str(p) for p in paths), db)]


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.check",
        description="static view-program analysis: escrow proofs, lock "
        "footprints, deadlock-order and shard checks (docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "scripts", nargs="*",
        help="SQL scripts to build the catalog from (default: the "
        "built-in workload schemas)",
    )
    parser.add_argument(
        "--view", help="report on one view (CHECK VIEW) instead of the "
        "whole catalog",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report document(s)",
    )
    args = parser.parse_args(argv)

    catalogs = (
        _script_catalog(args.scripts) if args.scripts else _demo_catalogs()
    )
    failed = False
    docs = {}
    for label, db in catalogs:
        analyzer = StaticAnalyzer.configured(db.catalog, db.config)
        if args.view is not None:
            if not db.catalog.has_view(args.view):
                continue
            report = analyzer.check_view(args.view)
            ok = report.ok
            docs[label] = [d.to_doc() for d in report.diagnostics]
        else:
            report = analyzer.check_all()
            ok = report.ok
            docs[label] = report.to_doc()
        if not args.as_json:
            out.write(f"== {label} ==\n")
            for line in report.render_lines():
                out.write(line + "\n")
        failed = failed or not ok
    if args.view is not None and not docs:
        parser.error(f"no catalog registers a view named {args.view!r}")
    if args.as_json:
        out.write(json.dumps(docs, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
