"""The golden static-analysis report: run the analyzer over every view
the repo ships — the examples' schemas, both workloads, and the SQL
fixture below — and pin the result against
``tests/golden/static_analysis.json``.

Diagnostic *codes and subjects* are the contract (messages are free to
improve, docs/ANALYSIS.md), so the golden stores the reduced report:
views checked, per-severity counts, ``(code, severity, subject)``
triples, graph size, and the deadlock components. A new diagnostic on
any shipped schema — or one silently disappearing — fails here.

To regenerate after an intentional analyzer change::

    PYTHONPATH=src python tests/test_static_golden.py --regenerate
"""

import importlib.util
import json
import pathlib
import sys

from repro.analysis.static import StaticAnalyzer
from repro.core.database import Database
from repro.obs import validate_static_report
from repro.workload.banking import BankingWorkload
from repro.workload.orders import OrderEntryWorkload

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / (
    "static_analysis.json"
)

#: three view shapes over two tables, created through SQL
SQL_FIXTURE = """
    CREATE TABLE sales (id, product, region, amount, PRIMARY KEY (id));
    CREATE TABLE products (product, category, PRIMARY KEY (product));
    CREATE UNIQUE INDEXED VIEW by_product AS
        SELECT product, COUNT(*) AS n, SUM(amount) AS rev
        FROM sales GROUP BY product;
    CREATE UNIQUE INDEXED VIEW named_sales AS
        SELECT id, sales.product, amount, category
        FROM sales JOIN products ON sales.product = products.product;
    CREATE UNIQUE INDEXED VIEW big_sales AS
        SELECT id, product, amount FROM sales WHERE amount >= 50;
"""


def _load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sql_fixture():
    db = Database()
    db.execute(SQL_FIXTURE)
    return db


def _orders():
    db = Database()
    OrderEntryWorkload(
        db, n_products=4, with_join_view=True, with_category_view=True
    ).setup()
    return db


def _banking():
    db = Database()
    BankingWorkload(db, n_branches=2, accounts_per_branch=2).setup()
    return db


#: a fresh engine over every shipped schema, by stable label
CATALOGS = {
    "examples/order_fulfillment": lambda: _load_module(
        REPO / "examples" / "order_fulfillment.py"
    ).build(),
    "sql/three_views": _sql_fixture,
    "workload/orders": _orders,
    "workload/banking": _banking,
}


def _catalogs():
    """Every shipped schema, by stable label."""
    return {label: build() for label, build in CATALOGS.items()}


def _reduced_report(db):
    report = StaticAnalyzer(
        db.catalog,
        strategy=db.config.aggregate_strategy,
        serializable=db.config.serializable,
    ).check_all()
    doc = report.to_doc()
    assert validate_static_report(doc) == []
    return {
        "views_checked": doc["views_checked"],
        "counts": doc["counts"],
        "diagnostics": sorted(
            [d["code"], d["severity"], d["subject"]]
            for d in doc["diagnostics"]
        ),
        "graph_nodes": doc["graph_nodes"],
        "graph_edges": doc["graph_edges"],
        "deadlock_components": doc["deadlock_components"],
    }


def _actual():
    return {
        label: _reduced_report(db) for label, db in _catalogs().items()
    }


def test_shipped_schemas_match_the_golden_report():
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = _actual()
    assert set(actual) == set(golden), "catalog set changed"
    for label in sorted(golden):
        assert actual[label] == golden[label], (
            f"unexpected static-analysis diagnostics for {label}; if the "
            f"change is intentional, regenerate with: PYTHONPATH=src "
            f"python tests/test_static_golden.py --regenerate"
        )


def test_no_shipped_schema_has_error_diagnostics():
    for label, report in _actual().items():
        assert report["counts"]["error"] == 0, (label, report)


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_actual(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
