"""The order-entry workload: the hot-aggregate pattern the paper targets.

Schema::

    sales(id, product, customer, amount)        -- base table
    sales_by_product  = SELECT product, COUNT(*), SUM(amount)
                        FROM sales GROUP BY product   -- hot aggregate view
    sales_with_names  = sales JOIN products            -- optional join view

Products are drawn from a Zipf distribution: with skew, a handful of
products receive most sales, so their view rows become contention hot
spots. This is precisely the scenario where exclusive view-row locking
collapses and escrow locking shines.

Program factories return zero-argument callables suitable for
:meth:`repro.sim.scheduler.Scheduler.add_session`.
"""

from repro.common import DeterministicRng, ZipfGenerator

SALES = "sales"
PRODUCTS = "products"
BY_PRODUCT = "sales_by_product"
SALES_NAMED = "sales_with_names"
BY_CATEGORY = "revenue_by_category"


class OrderEntryWorkload:
    """Builds the schema and hands out transaction programs."""

    def __init__(self, db, n_products=100, zipf_theta=0.0, seed=42,
                 with_join_view=False, with_category_view=False):
        self.db = db
        self.n_products = n_products
        self.zipf = ZipfGenerator(n_products, zipf_theta, seed=seed)
        self.rng = DeterministicRng(seed + 1)
        self.with_join_view = with_join_view
        self.with_category_view = with_category_view
        self._next_sale_id = 1
        self._live_sales = []  # (sale_id, product) pairs for cancels

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------

    def setup(self):
        db = self.db
        db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
        db.create_table(PRODUCTS, ("product", "name", "category"), ("product",))
        # products are reference data, loaded before the views exist
        txn = db.begin_system()
        for p in range(self.n_products):
            db.insert(
                txn,
                PRODUCTS,
                {
                    "product": p,
                    "name": f"product-{p}",
                    "category": p % 10,
                },
            )
        db.commit(txn)
        db.create_view(
            f"CREATE UNIQUE INDEXED VIEW {BY_PRODUCT} AS "
            f"SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
            f"FROM {SALES} GROUP BY product"
        )
        if self.with_join_view:
            db.create_view(
                f"CREATE UNIQUE INDEXED VIEW {SALES_NAMED} AS "
                f"SELECT id, product, customer, amount, name "
                f"FROM {SALES} JOIN {PRODUCTS} ON {SALES}.product = {PRODUCTS}.product"
            )
        if self.with_category_view:
            db.create_view(
                f"CREATE UNIQUE INDEXED VIEW {BY_CATEGORY} AS "
                f"SELECT category, COUNT(*) AS n_sales, "
                f"SUM(amount) AS revenue "
                f"FROM {SALES} JOIN {PRODUCTS} ON {SALES}.product = {PRODUCTS}.product "
                f"GROUP BY category"
            )
        # Seed/reference data must not sit in an open commit group when
        # the caller starts injecting faults: a retracted setup
        # transaction has no retry loop.
        self.db.group_commit.flush_pending()
        return self

    def preload_sales(self, count):
        """Seed the base table so deletes/updates have targets."""
        txn = self.db.begin_system()
        for _ in range(count):
            self._insert_sale(txn)
        self.db.commit(txn)
        self.db.group_commit.flush_pending()
        return self

    def seed_groups(self):
        """Insert one sale per product so every view group pre-exists.

        Steady-state benchmarks want this: group *creation* legitimately
        takes X locks under any strategy; the escrow claims concern
        updates to existing groups.
        """
        txn = self.db.begin_system()
        for product in range(self.n_products):
            sale_id = self._next_sale_id
            self._next_sale_id += 1
            self.db.insert(
                txn,
                SALES,
                {
                    "id": sale_id,
                    "product": product,
                    "customer": self.rng.randint(1, 1000),
                    "amount": self.rng.randint(1, 100),
                },
            )
            self._live_sales.append((sale_id, product))
        self.db.commit(txn)
        self.db.group_commit.flush_pending()
        return self

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------

    def next_sale_values(self):
        sale_id = self._next_sale_id
        self._next_sale_id += 1
        product = self.zipf.draw()
        values = {
            "id": sale_id,
            "product": product,
            "customer": self.rng.randint(1, 1000),
            "amount": self.rng.randint(1, 100),
        }
        self._live_sales.append((sale_id, product))
        return values

    def _insert_sale(self, txn):
        self.db.insert(txn, SALES, self.next_sale_values())

    def pick_live_sale(self):
        """A random existing sale id (None if the table is empty)."""
        while self._live_sales:
            idx = self.rng.randint(0, len(self._live_sales) - 1)
            entry = self._live_sales[idx]
            if entry is not None:
                return idx, entry
            self._live_sales.pop(idx)
        return None, None

    # ------------------------------------------------------------------
    # program factories (for the simulator)
    # ------------------------------------------------------------------

    def new_sale_program(self, items=1, think=0):
        """A transaction inserting ``items`` sales (Zipf-hot products)."""

        def program():
            for _ in range(items):
                yield ("insert", SALES, self.next_sale_values())
                if think:
                    yield ("think", think)

        return program

    def cancel_program(self):
        """Delete one existing sale (a decrement on its group)."""

        def program():
            idx, entry = self.pick_live_sale()
            if entry is None:
                return
            sale_id, _product = entry
            self._live_sales[idx] = None
            yield ("delete", SALES, (sale_id,))

        return program

    def repricing_program(self):
        """Update one sale's amount (same-group delta on the view)."""

        def program():
            _idx, entry = self.pick_live_sale()
            if entry is None:
                return
            sale_id, _product = entry
            yield (
                "update",
                SALES,
                (sale_id,),
                {"amount": self.rng.randint(1, 100)},
            )

        return program

    def hot_reader_program(self, top_k=3):
        """Point-read the hottest view rows (the dashboard query)."""

        def program():
            for product in range(min(top_k, self.n_products)):
                yield ("read", BY_PRODUCT, (product,))

        return program

    def range_reader_program(self):
        """Serializable scan over the whole aggregate view."""

        def program():
            yield ("scan", BY_PRODUCT)

        return program

    def mixed_program(self, sale_weight=6, cancel_weight=2, update_weight=2):
        """The canonical mixed update workload."""
        total = sale_weight + cancel_weight + update_weight

        def program():
            roll = self.rng.randint(1, total)
            if roll <= sale_weight:
                yield ("insert", SALES, self.next_sale_values())
            elif roll <= sale_weight + cancel_weight:
                idx, entry = self.pick_live_sale()
                if entry is not None:
                    self._live_sales[idx] = None
                    yield ("delete", SALES, (entry[0],))
            else:
                _idx, entry = self.pick_live_sale()
                if entry is not None:
                    yield (
                        "update",
                        SALES,
                        (entry[0],),
                        {"amount": self.rng.randint(1, 100)},
                    )

        return program
