#!/usr/bin/env python
"""Quickstart: indexed views maintained inside your transactions.

Creates a sales table with an aggregate indexed view — in SQL — runs a
few transactions (including a rollback), and shows that the view always
matches the base data — and survives a crash.

Run:  python examples/quickstart.py
"""

from repro.api import Database


def main():
    db = Database()
    db.execute(
        """
        CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW sales_by_product AS
            SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue
            FROM sales GROUP BY product;
        """
    )

    # ``?`` placeholders take the values; the statement is parsed and
    # bound once and every later execution reuses that plan
    insert = "INSERT INTO sales (id, product, amount) VALUES (?, ?, ?)"

    print("== insert three sales in one transaction ==")
    with db.session() as session:
        for sale in [(1, "anvil", 30), (2, "anvil", 12), (3, "rocket", 99)]:
            session.execute(insert, sale)
    print("anvil :", db.read_committed("sales_by_product", ("anvil",)))
    print("rocket:", db.read_committed("sales_by_product", ("rocket",)))

    print("\n== a rolled-back transaction leaves no trace ==")
    session = db.session()
    session.begin()
    session.execute(insert, (4, "anvil", 1000))
    txn = session.current_transaction
    print("inside txn (exact):", db.read_exact(txn, "sales_by_product", ("anvil",)))
    session.rollback()
    print("after abort       :", db.read_committed("sales_by_product", ("anvil",)))

    print("\n== deleting the last rocket sale removes its group ==")
    db.execute("DELETE FROM sales WHERE id = ?", params=(3,))
    print("rocket:", db.read_committed("sales_by_product", ("rocket",)))
    removed = db.run_ghost_cleanup()
    print(f"ghost cleaner reclaimed {removed} index entries")

    print("\n== crash and recover from the write-ahead log ==")
    report = db.simulate_crash_and_recover()
    print("recovery:", report.as_dict())
    print("anvil :", db.read_committed("sales_by_product", ("anvil",)))

    problems = db.check_all_views()
    print("\nview consistency check:", "OK" if not problems else problems)


if __name__ == "__main__":
    main()
