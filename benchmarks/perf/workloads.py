"""The six workloads: what they build, what one operation is, and the
oracles that judge them. ``README.md`` says why each one exists.

Every workload follows the same repetition: build fresh state from the
seed (timed as ``setup_s``), generate its inputs, run a warm-up, run the
timed operations, top the read/scan/select samples up with a probe
against the final state, check the oracles, then crash, recover (timed
as ``recover_s``) and check the oracles again. Inputs are generated
before the clock starts; the engine receives only the generated values.
A calibration kernel runs between the operations all the while, so that
each timing can be reported at the machine's nominal speed.
"""

import bisect
import gc
import json
import pathlib
import shutil
import statistics
from time import perf_counter

from repro.api import (
    BRANCH_TOTALS,
    BY_PRODUCT,
    PRODUCTS,
    SALES,
    BankingWorkload,
    Database,
    DeterministicRng,
    EngineConfig,
    KeyRange,
    OrderEntryWorkload,
    ReproError,
    Scheduler,
    Session,
    ShardedDatabase,
    ZipfGenerator,
    check_conservation,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: samples of each read class a repetition ends with: two windows' worth
#: (a p99 window is 1000 samples, a p95 window 200, the SELECT's p50 20)
PROBE_SAMPLES = {"read": 2000, "scan": 400, "select": 40}
QUICK_PROBE_SAMPLES = {"read": 60, "scan": 20, "select": 5}

#: set-up is timed again until this much time is sampled (or this many
#: samples), so that a cheap set-up is not a single short reading
SETUP_SECONDS = 0.3
SETUP_SAMPLES = 8

SCAN_WIDTH = 50


# ----------------------------------------------------------------------
# calibration: how fast is the machine right now?
# ----------------------------------------------------------------------

class _Cell:
    __slots__ = ("count", "last")

    def __init__(self):
        self.count = 0
        self.last = ()

    def bump(self, key):
        self.count += 1
        self.last = (key, self.count)
        return self.count


def _kernel():
    """A fixed piece of pure-Python work in the engine's own diet: dict
    and tuple traffic, attribute updates, method calls, a sort now and
    then, and some ``json.dumps``. It touches no engine code, so a change
    to the engine cannot move it."""
    cells, picked, texts = {}, [], {}
    for i in range(60):
        texts[i & 15] = json.dumps({"i": i, "k": [i, str(i)]})
    for i in range(500):
        key = ("key", i % 97, i & 7)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell()
        if cell.bump(i) % 5 == 0:
            picked.append(sorted(cells)[:2])
    return picked


KERNEL_OPS = 560
#: what the kernel takes on this sandbox when its neighbours are quiet:
#: in a loop of its own, and (a third more, the engine having used the
#: caches in between) when run between engine operations. Only a scale:
#: every timing is reported as if the kernel took this long throughout.
NOMINAL_LOOP_S = 345e-6
NOMINAL_BETWEEN_OPS_S = 500e-6


class Calibration:
    """Runs the kernel every few milliseconds between operations and
    says, for any stretch of the run, how much slower than nominal the
    machine was (README, "Steadiness"). Its clock stops while the kernel
    runs, so the kernel's own time is in no latency and no rate."""

    interval = 0.010
    fewest = 5  # kernel samples behind one window's slowdown
    burst = 9  # back-to-back runs before and after one long operation

    def __init__(self):
        self.paused = 0.0
        self.stamps = []  # on this object's clock
        self.durations = []
        self._due = 0.0

    def clock(self):
        return perf_counter() - self.paused

    def sample(self):
        """Run the kernel once with the clock stopped; returns how long
        it took."""
        start = perf_counter()
        _kernel()
        spent = perf_counter() - start
        self.paused += spent
        return spent

    def poll(self, now):
        """Between two operations: sample if one is due."""
        if now >= self._due:
            self.stamps.append(now)
            self.durations.append(self.sample())
            self._due = now + self.interval

    def slowdown(self, start, end):
        """Median kernel time between two moments of this clock (widened
        to the nearest samples when too few fall inside), over nominal."""
        low = bisect.bisect_left(self.stamps, start)
        high = bisect.bisect_right(self.stamps, end)
        missing = self.fewest - (high - low)
        if missing > 0:
            low = max(0, low - (missing + 1) // 2)
            high = min(len(self.stamps), high + (missing + 1) // 2)
        return (
            statistics.median(self.durations[low:high]) / NOMINAL_BETWEEN_OPS_S
        )

    def timed(self, action):
        """Time one long operation that cannot be interrupted, with a
        burst of kernel runs before and after it (the first of each
        burst warms the caches and is dropped). Returns ``(result,
        seconds at nominal speed)``."""
        around = [self.sample() for _ in range(self.burst)][1:]
        start = perf_counter()
        result = action()
        spent = perf_counter() - start
        around += [self.sample() for _ in range(self.burst)][1:]
        return result, spent * NOMINAL_LOOP_S / statistics.median(around)


class Repetition:
    """What one repetition measured. Times are seconds on the
    calibration's clock; ``*_s`` fields are already at nominal speed."""

    def __init__(self, calibration=None):
        self.calibration = calibration or Calibration()
        self.setup_s = 0.0
        self.wall_s = 0.0  # the timed operations, start to end
        self.started = 0.0  # when the timed operations began
        #: when each timed operation completed, in completion order
        self.ends = []
        #: the timed region is one unit (a ``Scheduler.run()``) whose
        #: contention comes in bursts, so no block of it stands for it
        self.indivisible = False
        self.recover_s = 0.0
        #: per-operation latencies in seconds, by operation class, and
        #: when each of those operations completed
        self.latencies = {"txn": [], "read": [], "scan": [], "select": []}
        self.stamps = {"txn": [], "read": [], "scan": [], "select": []}
        self.commits = 0  # transactions committed in the timed region
        self.begun = 0  # transactions begun for them (commits + retries)
        self.attempted = 0  # every operation tried, probe included
        self.failed = 0  # operations that raised or gave up
        self.problems = []  # oracle findings; any one fails the run
        self.counters = {}  # engine counters, timed region only
        self.recovery = {}  # summed RecoveryReport counts
        self.segments = {}  # storage_recover's segment round trip
        self.span_region = (0, 0)  # recorder marks around the timed region


class NoRecorder:
    """Stands in for the span recorder on untraced repetitions."""

    request = None

    def mark(self):
        return 0


def run_ops(ops, rep, recorder):
    """The closed loop: one client, next operation only after the last
    returned. ``ops`` is a list of ``(class, callable)``."""
    latencies, stamps, ends = rep.latencies, rep.stamps, rep.ends
    clock, poll = rep.calibration.clock, rep.calibration.poll
    for i, (kind, op) in enumerate(ops):
        recorder.request = i
        start = clock()
        try:
            op()
        except ReproError:
            rep.failed += 1
        else:
            rep.commits += 1
        end = clock()
        ends.append(end)
        if kind is not None:
            latencies[kind].append(end - start)
            stamps[kind].append(end)
        poll(end)
    recorder.request = None
    rep.begun += len(ops)
    rep.attempted += len(ops)


def _engine_counters(engines):
    totals = {}
    for engine in engines:
        stats = engine.stats()
        flat = {
            "wal_records": stats["wal"]["records"],
            "wal_bytes": stats["wal"]["bytes"],
            "wal_flushes": stats["wal"]["flushes"],
            "store_writes": stats["storage"]["store_writes"],
        }
        for key in ("hits", "misses", "evictions", "dirty_evictions",
                    "forced_wal_flushes"):
            flat["pool_" + key] = stats["storage"]["pool"][key]
        for key in ("requests", "immediate_grants", "waits", "deadlocks"):
            flat["lock_" + key] = stats["lock"][key]
        for key, value in flat.items():
            totals[key] = totals.get(key, 0) + value
    return totals


class Workload:
    """Template for one workload; subclasses fill in the pieces."""

    name = None
    size = 0  # N: timed operations (transactions) per repetition

    def __init__(self, seed, quick=False, index=0):
        self.seed = seed
        self.quick = quick
        self.index = index  # which repetition of the run this is
        self.n = max(100, self.size // 20) if quick else self.size
        self.probe_samples = QUICK_PROBE_SAMPLES if quick else PROBE_SAMPLES

    # -- pieces -----------------------------------------------------------

    def setup(self):
        """Schema plus load. Sets ``self.facade`` and ``self.engines``."""
        raise NotImplementedError

    def make_ops(self, count):
        """The next ``count`` operations of the seeded input stream."""
        raise NotImplementedError

    def probe_op(self, kind, i):
        """The ``i``-th probe operation of class ``kind``, as a callable."""
        raise NotImplementedError

    def check(self):
        """Oracle findings on the current state (empty = correct)."""
        problems = []
        for engine in self.engines:
            problems.extend(str(p) for p in engine.check_all_views())
        return problems

    def counters(self):
        """Cumulative engine counters; the repetition reports their
        change over the timed region."""
        totals = _engine_counters(self.engines)
        totals["ticks"] = self.facade.clock.now()
        return totals

    def before_crash(self):
        """Untimed last step before the crash."""

    def recover(self):
        """Crash and recover; returns the recovery reports."""
        return [self.facade.simulate_crash_and_recover()]

    def check_recovered(self, rep):
        """Findings only a recovered state can have."""
        return []

    # -- the repetition ---------------------------------------------------

    def warm_up(self, recorder):
        run_ops(self.make_ops(self.n // 10), Repetition(), recorder)

    def timed_region(self, rep, recorder):
        """Generate the inputs, then time the operations."""
        ops = self.make_ops(self.n)
        rep.started = rep.calibration.clock()
        run_ops(ops, rep, recorder)
        rep.wall_s = rep.calibration.clock() - rep.started

    def repetition(self, recorder=None, instrument=None):
        """One full repetition; ``instrument(workload)`` runs after
        set-up (to switch a tracer on or install span wrappers)."""
        recorder = recorder or NoRecorder()
        rep = Repetition()
        gc.collect()
        timed = rep.calibration.timed
        setups = []
        samples = 1 if self.quick else SETUP_SAMPLES
        while sum(setups) < SETUP_SECONDS and len(setups) < samples:
            setups.append(timed(self.setup)[1])
        rep.setup_s = statistics.median(setups)
        if instrument is not None:
            instrument(self)
        self.warm_up(recorder)
        before = self.counters()
        first = recorder.mark()
        self.timed_region(rep, recorder)
        rep.span_region = (first, recorder.mark())
        after = self.counters()
        rep.counters = {k: after[k] - before[k] for k in after}
        self.probe(rep)
        rep.problems.extend(self.check())
        self.before_crash()
        reports, rep.recover_s = timed(self.recover)
        for field in ("analyzed_records", "redo_count", "pages_loaded"):
            rep.recovery[field] = sum(getattr(r, field) for r in reports)
        rep.problems.extend(self.check())
        rep.problems.extend(self.check_recovered(rep))
        return rep

    def probe(self, rep):
        """Bring each read class up to its sample count against the
        final state, so every workload reports the same read metrics."""
        for kind, wanted in self.probe_samples.items():
            have = len(rep.latencies[kind])
            ops = [(kind, self.probe_op(kind, i)) for i in range(have, wanted)]
            probe_rep = Repetition(rep.calibration)
            probe_rep.latencies, probe_rep.stamps = rep.latencies, rep.stamps
            run_ops(ops, probe_rep, NoRecorder())
            rep.attempted += probe_rep.attempted
            rep.failed += probe_rep.failed


# ----------------------------------------------------------------------
# the order-entry family: one engine, sales + sales_by_product
# ----------------------------------------------------------------------

_SELECT = f"SELECT product, n_sales, revenue FROM {BY_PRODUCT} WHERE product = {{}}"


class OrderWorkload(Workload):
    n_products = 100
    zipf_theta = 1.0
    preload = 0
    config = {}
    inserts_per_txn = 4

    def setup(self):
        db = Database(EngineConfig(**self.config))
        self.orders = OrderEntryWorkload(
            db, n_products=self.n_products, zipf_theta=self.zipf_theta,
            seed=self.seed,
        ).setup().seed_groups()
        if self.preload:
            self.orders.preload_sales(self.preload)
        self.facade = db
        self.engines = [db]
        self.session = db.session()
        self.keys = DeterministicRng(self.seed + 3)

    def next_rows(self):
        return [
            self.orders.next_sale_values() for _ in range(self.inserts_per_txn)
        ]

    def api_txn(self, rows):
        session = self.session

        def txn():
            session.begin()
            try:
                for row in rows:
                    session.insert(SALES, row)
            except ReproError:
                session.rollback()
                raise
            session.commit()

        return txn

    def make_ops(self, count):
        return [("txn", self.api_txn(self.next_rows())) for _ in range(count)]

    def probe_op(self, kind, i):
        session = self.session
        if kind == "read":
            key = (i % self.n_products,)
            return lambda: session.read(BY_PRODUCT, key)
        low = self.keys.randint(0, max(0, self.n_products - SCAN_WIDTH - 1))
        if kind == "scan":
            key_range = KeyRange.between((low,), (low + SCAN_WIDTH,))
            return lambda: session.scan(BY_PRODUCT, key_range)
        sql = _SELECT.format(low)
        return lambda: session.execute(sql)


class OrderApi(OrderWorkload):
    name = "order_api"
    size = 2000


class OrderSql(OrderWorkload):
    name = "order_sql"
    size = 2000

    def make_ops(self, count):
        session = self.session
        ops = []
        for _ in range(count):
            values = ", ".join(
                "({id}, {product}, {customer}, {amount})".format(**row)
                for row in self.next_rows()
            )
            sql = (
                f"INSERT INTO {SALES} (id, product, customer, amount) "
                f"VALUES {values}"
            )
            ops.append(("txn", lambda sql=sql: session.execute(sql)))
        return ops


class DashboardRead(OrderWorkload):
    """Per 100 operations, in one seeded order: 60 serializable point
    reads, 20 snapshot reads, 10 range scans, 1 SQL point SELECT and 9
    one-insert write transactions."""

    name = "dashboard_read"
    size = 12000  # 1080 write transactions: one p99 window
    n_products = 500
    preload = 1000
    inserts_per_txn = 1
    mix = (("read", 60), ("snapshot", 20), ("scan", 10), ("select", 1),
           ("txn", 9))

    def setup(self):
        super().setup()
        self.snapshot = self.facade.session(isolation="snapshot")
        self.pattern = [kind for kind, share in self.mix for _ in range(share)]
        self.keys.shuffle(self.pattern)
        self.hot = ZipfGenerator(self.n_products, 1.0, seed=self.seed + 5)
        self.position = 0

    def make_ops(self, count):
        ops = []
        for _ in range(count):
            kind = self.pattern[self.position % len(self.pattern)]
            self.position += 1
            if kind == "txn":
                ops.append(("txn", self.api_txn(self.next_rows())))
            elif kind == "read":
                ops.append(("read", self.probe_op("read", self.hot.draw())))
            elif kind == "snapshot":
                key = (self.hot.draw(),)
                snapshot = self.snapshot
                ops.append(
                    (None, lambda key=key: snapshot.read(BY_PRODUCT, key))
                )
            else:
                ops.append((kind, self.probe_op(kind, 0)))
        return ops


class StorageRecover(OrderWorkload):
    """Working set far above the buffer pool, frequent checkpoints, then
    a crash with a transaction in flight and a segment round trip."""

    name = "storage_recover"
    size = 2000
    n_products = 2000
    zipf_theta = 0.0
    inserts_per_txn = 2
    config = {"buffer_pool_frames": 8, "checkpoint_interval": 100}

    def __init__(self, seed, quick=False, index=0):
        super().__init__(seed, quick, index)
        if quick:
            self.n_products = 200

    def before_crash(self):
        run_ops(self.make_ops(max(1, self.n // 40)), Repetition(), NoRecorder())
        in_flight = self.next_rows()
        # Sale ids are handed out in order and every earlier transaction
        # was acknowledged (a failed one fails the run on its own).
        self.acknowledged = range(1, in_flight[0]["id"])
        self.in_flight = [row["id"] for row in in_flight]
        session = self.facade.session()
        session.begin()
        for row in in_flight:
            session.insert(SALES, row)

    def check_recovered(self, rep):
        problems = self.durability_findings(self.facade, "crash recovery")
        if self.index:
            # The segment round trip is a correctness check and a
            # per-layer number; once per run is enough of both.
            return problems
        directory = OUT_DIR / f"segments-{self.name}-{self.seed}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        try:
            user_bytes = self.facade.stats()["wal"]["bytes"]
            start = perf_counter()
            paths = self.facade.dump_wal_segments(str(directory))
            dumped = perf_counter()
            restored = self.schema_only()
            loading = perf_counter()
            restored.load_wal_segments_and_recover(str(directory))
            loaded = perf_counter()
            segment_bytes = sum(pathlib.Path(p).stat().st_size for p in paths)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        rep.segments = {
            "dump_s": dumped - start,
            "load_recover_s": loaded - loading,
            "bytes_per_user_byte": segment_bytes / user_bytes,
        }
        problems.extend(str(p) for p in restored.check_all_views())
        problems.extend(self.durability_findings(restored, "segment restore"))
        return problems

    def schema_only(self):
        """The restore target: the order-entry schema and not one row.
        ``OrderEntryWorkload.setup()`` also loads the products, and with
        eight frames some of those pages reach the target's own page
        store, where the restore would take them for the checkpoint's
        durable images and skip the redo they seem to cover."""
        db = Database(EngineConfig(**self.config))
        db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
        db.create_table(PRODUCTS, ("product", "name", "category"), ("product",))
        db.create_view(
            f"CREATE UNIQUE INDEXED VIEW {BY_PRODUCT} AS "
            f"SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
            f"FROM {SALES} GROUP BY product"
        )
        return db

    def durability_findings(self, db, label):
        problems = []
        for sale_id in self.acknowledged:
            if db.read_committed(SALES, (sale_id,)) is None:
                problems.append(f"{label}: acknowledged sale {sale_id} lost")
        for sale_id in self.in_flight:
            if db.read_committed(SALES, (sale_id,)) is not None:
                problems.append(f"{label}: in-flight sale {sale_id} survived")
        return problems


# ----------------------------------------------------------------------
# bank_mpl8: interleaved sessions under the simulator
# ----------------------------------------------------------------------

class BankMpl8(Workload):
    name = "bank_mpl8"
    size = 2400  # transfers: 8 sessions x 300, plus 1 audit session x 75
    writers = 8
    audits_per_transfers = 32

    def setup(self):
        db = Database(EngineConfig(aggregate_strategy="escrow"))
        self.bank = BankingWorkload(
            db, n_branches=4, accounts_per_branch=25, seed=self.seed
        ).setup()
        self.facade = db
        self.engines = [db]
        self.session = db.session()

    def warm_up(self, recorder):
        self.simulate(self.n // 10, Repetition())

    def timed_region(self, rep, recorder):
        rep.indivisible = True
        rep.started = rep.calibration.clock()
        self.simulate(self.n, rep)
        rep.wall_s = rep.calibration.clock() - rep.started

    def simulate(self, transfers, rep):
        """One ``Scheduler.run()``. A transfer's response time runs from
        the first start of its program to the first thing the benchmark
        sees after its commit (the next program start, custom operation
        or program step of any session): the simulator offers no hook
        after commit, and only scheduler bookkeeping lies in between."""
        per_writer = max(1, transfers // self.writers)
        latencies, stamps, ends = (
            rep.latencies["txn"], rep.stamps["txn"], rep.ends
        )
        clock, poll = rep.calibration.clock, rep.calibration.poll
        committing = []  # sessions whose program ended, commit under way

        def settle():
            now = clock()
            for slot in committing:
                latencies.append(now - slot[0])
                stamps.append(now)
                ends.append(now)
                slot[0] = None
            del committing[:]
            poll(now)

        def timed(factory):
            slot = [None]  # when this session's current transfer started

            def program():
                settle()
                if slot[0] is None:
                    slot[0] = clock()
                for op in factory():
                    yield op
                    settle()
                committing.append(slot)

            return program

        execute = self.bank.op_executor()

        def executor(txn, op):
            settle()
            return execute(txn, op)

        scheduler = Scheduler(self.facade, custom_executor=executor)
        for _ in range(self.writers):
            scheduler.add_session(
                timed(self.bank.transfer_program()), txns=per_writer
            )
        audits = max(1, transfers // self.audits_per_transfers)
        scheduler.add_session(self.bank.audit_program(), txns=audits)
        result = scheduler.run()
        settle()
        wanted = self.writers * per_writer + audits
        rep.commits += result.committed
        rep.begun += result.committed + result.retries + result.gave_up
        rep.attempted += wanted
        rep.failed += wanted - result.committed

    def probe_op(self, kind, i):
        session = self.session
        if kind == "read":
            key = (i % self.bank.n_branches,)
            return lambda: session.read(BRANCH_TOTALS, key)
        if kind == "scan":
            return lambda: session.scan(BRANCH_TOTALS)
        sql = (
            f"SELECT branch, n_accounts, total FROM {BRANCH_TOTALS} "
            f"WHERE branch = {i % self.bank.n_branches}"
        )
        return lambda: session.execute(sql)

    def check(self):
        problems = super().check()
        try:
            self.bank.check_conservation()
        except AssertionError as failure:
            problems.append(str(failure))
        return problems


# ----------------------------------------------------------------------
# shard4_moves: four partitions, 30 % of transactions cross two
# ----------------------------------------------------------------------

REGION_TOTALS = "region_totals"
SHARD_ACCOUNTS = "accounts"


class Shard4Moves(Workload):
    name = "shard4_moves"
    size = 3000
    boundaries = (2500, 5000, 7500)
    partition_width = 2500
    regions = 8
    seed_rows = 400
    cross_share = 0.3

    def setup(self):
        db = ShardedDatabase(self.boundaries)
        db.create_table(SHARD_ACCOUNTS, ("aid", "region", "balance"), ("aid",))
        db.create_view(
            f"CREATE UNIQUE INDEXED VIEW {REGION_TOTALS} AS "
            f"SELECT region, COUNT(*) AS n_accounts, SUM(balance) AS total "
            f"FROM {SHARD_ACCOUNTS} GROUP BY region"
        )
        partitions = db.partitions
        per_partition = self.seed_rows // partitions
        txn = db.begin()
        for pid in range(partitions):
            for i in range(per_partition):
                aid = pid * self.partition_width + i
                db.insert(txn, SHARD_ACCOUNTS, {
                    "aid": aid, "region": aid % self.regions, "balance": 100,
                })
        db.commit(txn)
        self.money = per_partition * partitions * 100
        self.next_aid = [
            pid * self.partition_width + per_partition
            for pid in range(partitions)
        ]
        self.facade = db
        self.engines = [db.partition(pid) for pid in range(partitions)]
        self.rng = DeterministicRng(self.seed)
        self.position = 0
        self.local = self.engines[0].session()

    def new_account(self, pid, balance):
        aid = self.next_aid[pid]
        self.next_aid[pid] += 1
        if aid >= (pid + 1) * self.partition_width:
            raise ValueError(f"partition {pid} is out of account ids")
        return {
            "aid": aid,
            "region": self.rng.randint(0, self.regions - 1),
            "balance": balance,
        }

    def move(self, credit, debit):
        db = self.facade

        def txn():
            dtxn = db.begin()
            try:
                db.insert(dtxn, SHARD_ACCOUNTS, credit)
                db.insert(dtxn, SHARD_ACCOUNTS, debit)
            except ReproError:
                db.abort(dtxn)
                raise
            db.commit(dtxn)

        return txn

    def make_ops(self, count):
        rng, partitions = self.rng, self.facade.partitions
        ops = []
        for _ in range(count):
            self.position += 1
            if self.position % 10 == 0:
                ops.append(("read", self.probe_op("read", self.position)))
                continue
            source = rng.randint(0, partitions - 1)
            target = source
            if rng.random() < self.cross_share:
                target = (source + rng.randint(1, partitions - 1)) % partitions
            amount = rng.randint(1, 50)
            ops.append(("txn", self.move(
                self.new_account(source, amount),
                self.new_account(target, -amount),
            )))
        return ops

    def probe_op(self, kind, i):
        db = self.facade
        if kind == "read":
            key = (i % self.regions,)
            return lambda: db.read_folded(REGION_TOTALS, key)
        if kind == "scan":
            return lambda: db.scan_folded(REGION_TOTALS)
        # The facade has no SQL surface: the point SELECT reads one
        # partition's sub-counter rows of the view.
        local = self.local
        sql = (
            f"SELECT region, n_accounts, total FROM {REGION_TOTALS} "
            f"WHERE region = {i % self.regions}"
        )
        return lambda: local.execute(sql)

    def counters(self):
        totals = super().counters()
        stats = self.facade.stats()
        totals["net_messages"] = stats["net"]["messages"]
        for key in ("single_partition_commits", "two_phase_commits"):
            totals[key] = stats["dist"][key]
        return totals

    def recover(self):
        reports = []
        for pid in range(self.facade.partitions):
            self.facade.crash_partition(pid)
            reports.append(self.facade.recover_partition(pid))
        self.local = self.engines[0].session()
        return reports

    def check(self):
        problems = super().check()
        problems.extend(check_conservation(self.facade))
        in_doubt = self.facade.in_doubt_total()
        if in_doubt:
            problems.append(f"{in_doubt} branches left in doubt")
        total = sum(
            row["total"]
            for row in self.facade.scan_folded(REGION_TOTALS).values()
        )
        if total != self.money:
            problems.append(
                f"moves not atomic: regions total {total}, seeded {self.money}"
            )
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (OrderApi, OrderSql, DashboardRead, BankMpl8, Shard4Moves,
                StorageRecover)
}

#: what the span recorder may wrap besides the facade's own objects
SPAN_CLASSES = {"scheduler_cls": Scheduler, "session_cls": Session,
                "calibration_cls": Calibration}
