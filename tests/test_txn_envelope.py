"""The transaction envelope: the log carries only what recovery reads.

One grammar for every transaction's records, in LSN order
(``docs/ARCHITECTURE.md`` §7)::

    ε  |  (ROW|CLR)* PREPARE? COMMIT  |  ROW* … ABORT CLR* END

There is no BEGIN — the first record, the one with no ``prev_lsn``, opens
the transaction — and END follows a rollback's last CLR and nothing
else. A transaction that changed nothing is ε: it commits or aborts
without appending, flushing or (unless a commit group it may have read
from is pending) taking a commit ticket.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import FaultInjected
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import CommitTicket, RecordType
from repro.wal.segments import load_segments

PRODUCTS = ("a", "b", "c")

#: one letter per record, by the role it plays in the grammar
LETTER = {
    RecordType.CLR: "C", RecordType.PREPARE: "P", RecordType.COMMIT: "K",
    RecordType.ABORT: "A", RecordType.END: "E",
}
GRAMMAR = re.compile(r"(?:[RC]*P?K|[RC]*P?AC*E)?")
#: a loser that recovery rolled back never logged its own ABORT
RECOVERED = re.compile(r"(?:[RC]*P?K|[RC]*P?A?C*E)?")


def build(**config):
    db = Database(EngineConfig(**config))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    return db


def seeded(**config):
    """Every group exists and is durable, so later inserts take E locks
    and later readers find rows."""
    db = build(**config)
    with db.session() as s:
        for i, product in enumerate(PRODUCTS):
            s.insert("sales", sale(-1 - i, product))
    db.group_commit.flush_pending()
    return db


def sale(i, product="a"):
    return {"id": i, "product": product, "amount": 10 + i % 7}


def shapes(log):
    """txn_id -> its records' letters in LSN order, checking the
    backchain on the way: the first record has no ``prev_lsn``, every
    other one points at its predecessor."""
    words, last = {}, {}
    for record in log.records():
        if record.txn_id is None:
            continue
        assert record.prev_lsn == last.get(record.txn_id)
        last[record.txn_id] = record.lsn
        words[record.txn_id] = (
            words.get(record.txn_id, "") + LETTER.get(record.type, "R")
        )
    return words


# ----------------------------------------------------------------------
# (i) generated mixes: grammar, then crash at every LSN
# ----------------------------------------------------------------------

READERS = (
    "read", "read_view", "snapshot", "read_committed", "scan", "select",
    "run", "aborted_reader",
)
WRITERS = (
    "insert", "delete", "aborted_writer", "savepoint", "savepoint_at_start",
    "savepoint_then_abort", "cleanup", "prepared_commit", "prepared_abort",
)
mixes = st.lists(
    st.tuples(st.sampled_from(READERS + WRITERS), st.sampled_from(PRODUCTS)),
    min_size=1, max_size=10,
)


class Mix:
    """Runs one generated mix against ``db`` and keeps the oracle: each
    writer's net effect on ``sales``, keyed by its transaction id."""

    def __init__(self, db):
        self.db = db
        self.next_id = 1
        self.live = []  # committed ids, oldest first
        (seeding,) = db.log.records_by_type(RecordType.COMMIT)
        #: txn_id -> {id: row | None}
        self.effects = {seeding.txn_id: {
            -1 - i: sale(-1 - i, p) for i, p in enumerate(PRODUCTS)
        }}
        self.silent = 0  # transactions that must have logged nothing

    def fresh(self, product):
        self.next_id += 1
        return sale(self.next_id, product)

    def do(self, kind, product):
        getattr(self, kind)(product)

    # -- readers: ε ------------------------------------------------------
    def _reads_nothing(self, body):
        before = len(self.db.log), self.db.log.flush_count
        body()
        assert (len(self.db.log), self.db.log.flush_count) == before
        self.silent += 1

    def read(self, product):
        self._reads_nothing(lambda: self.db.session().read("sales", (-1,)))

    def read_view(self, product):
        self._reads_nothing(lambda: self.db.session().read("v", (product,)))

    def snapshot(self, product):
        session = self.db.session(isolation="snapshot")
        self._reads_nothing(lambda: session.read("v", (product,)))

    def read_committed(self, product):
        session = self.db.session(isolation="read_committed")
        self._reads_nothing(lambda: session.read("v", (product,)))

    def scan(self, product):
        self._reads_nothing(lambda: list(self.db.session().scan("sales")))

    def select(self, product):
        self._reads_nothing(lambda: self.db.execute(
            f"SELECT * FROM sales WHERE product = '{product}'"
        ))

    def run(self, product):
        self._reads_nothing(lambda: self.db.session().run(
            lambda s: (s.read("v", (product,)), list(s.scan("v")))
        ))

    def aborted_reader(self, product):
        def body():
            txn = self.db.begin()
            self.db.read(txn, "v", (product,))
            self.db.abort(txn)
            assert txn.stats.log_bytes == 0
        self._reads_nothing(body)

    # -- writers ---------------------------------------------------------
    def insert(self, product):
        row = self.fresh(product)
        with self.db.session() as s:
            s.insert("sales", row)
            self.effects[s.current_transaction.txn_id] = {row["id"]: row}
        self.live.append(row["id"])

    def delete(self, product):
        if not self.live:
            return self.insert(product)
        victim = self.live.pop(0)
        with self.db.session() as s:
            s.delete("sales", (victim,))
            self.effects[s.current_transaction.txn_id] = {victim: None}

    def aborted_writer(self, product):
        txn = self.db.begin()
        self.db.insert(txn, "sales", self.fresh(product))
        self.db.abort(txn)

    def savepoint(self, product):
        kept = self.fresh(product)
        with self.db.session() as s:
            s.insert("sales", kept)
            mark = s.savepoint()
            s.insert("sales", self.fresh(product))
            s.rollback_to(mark)
            self.effects[s.current_transaction.txn_id] = {kept["id"]: kept}
        self.live.append(kept["id"])

    def savepoint_at_start(self, product):
        """A savepoint taken before the first record: rolling back to it
        undoes everything and still leaves the transaction open."""
        kept = self.fresh(product)
        with self.db.session() as s:
            mark = s.savepoint()
            s.insert("sales", self.fresh(product))
            s.rollback_to(mark)
            s.insert("sales", kept)
            self.effects[s.current_transaction.txn_id] = {kept["id"]: kept}
        self.live.append(kept["id"])

    def savepoint_then_abort(self, product):
        txn = self.db.begin()
        mark = self.db.savepoint(txn)
        self.db.insert(txn, "sales", self.fresh(product))
        self.db.rollback_to(txn, mark)
        self.db.abort(txn)

    def cleanup(self, product):
        self.db.run_ghost_cleanup()  # system transactions, some of them ε

    def _prepared(self, product, gid):
        row = self.fresh(product)
        txn = self.db.begin()
        self.db.insert(txn, "sales", row)
        self.db.participant.prepare(txn, gid)
        return txn, row

    def prepared_commit(self, product):
        txn, row = self._prepared(product, f"G{self.next_id}")
        self.effects[txn.txn_id] = {row["id"]: row}
        self.db.commit(txn)
        self.live.append(row["id"])

    def prepared_abort(self, product):
        txn, row = self._prepared(product, f"G{self.next_id}")
        self.effects[txn.txn_id] = {row["id"]: row}  # while in doubt
        self.db.abort(txn)


def expected_sales(mix, full_log, crash_lsn, in_doubt):
    """``sales`` after recovering from the prefix: every winner's effect
    in commit order, then the in-doubt branches' (repeat history: their
    rows are there, locked, until resolved)."""
    rows = {}
    winners = [
        r.txn_id for r in full_log.records()
        if r.type is RecordType.COMMIT and r.lsn <= crash_lsn
    ]
    for txn_id in winners + sorted(in_doubt):
        for key, row in mix.effects.get(txn_id, {}).items():
            if row is None:
                rows.pop(key, None)
            else:
                rows[key] = row
    return rows


def recovered_sales(db):
    return {
        key[0]: dict(record.current_row.as_dict())
        for key, record in db.index("sales").scan()
    }


@settings(max_examples=25, deadline=None)
@given(mixes)
def test_every_transaction_matches_the_grammar_and_recovers(
    tmp_path_factory, mix_spec,
):
    db = seeded()
    mix = Mix(db)
    begun_before = db._txns._next_txn_id
    for kind, product in mix_spec:
        mix.do(kind, product)
    words = shapes(db.log)
    for txn_id, word in words.items():
        assert GRAMMAR.fullmatch(word), (txn_id, word)
    begun = db._txns._next_txn_id - begun_before
    logged = sum(1 for txn_id in words if txn_id >= begun_before)
    assert logged <= begun - mix.silent  # readers are ε: no record at all
    assert db.check_all_views() == []

    directory = tmp_path_factory.mktemp("envelope")
    db.log.flush()
    db.dump_wal_segments(directory)
    full_log = load_segments(directory)
    for crash_lsn in range(full_log.tail_lsn() + 1):
        fresh = build()
        fresh.log = load_segments(directory)
        fresh.log.flushed_lsn = crash_lsn
        fresh.log.crash()
        report = fresh.restart.recover()
        prefix = {
            t: w for t, w in shapes(fresh.log).items() if t in words
        }
        decided = {t for t, w in prefix.items() if "K" in w or "A" in w}
        in_doubt = {
            t for t, w in shapes(full_log).items()
            if "P" in w and t not in decided
            and any(
                r.txn_id == t and r.type is RecordType.PREPARE
                and r.lsn <= crash_lsn for r in full_log.records()
            )
        }
        assert report.in_doubt == in_doubt, crash_lsn
        assert report.winners == {
            r.txn_id for r in full_log.records()
            if r.type is RecordType.COMMIT and r.lsn <= crash_lsn
        }, crash_lsn
        # the views equal the executor's recompute over the base tables,
        # and the base table is exactly the winners' (and in-doubt) work
        assert fresh.check_all_views() == [], crash_lsn
        assert recovered_sales(fresh) == expected_sales(
            mix, full_log, crash_lsn, in_doubt
        ), crash_lsn
        for txn_id in sorted(in_doubt):  # presumed abort
            fresh.participant.resolve_in_doubt(txn_id, "abort")
        assert fresh.check_all_views() == [], crash_lsn
        assert recovered_sales(fresh) == expected_sales(
            mix, full_log, crash_lsn, set()
        ), crash_lsn
        # recovery closed every loser with an END
        for txn_id, word in shapes(fresh.log).items():
            assert RECOVERED.fullmatch(word), (crash_lsn, txn_id, word)


# ----------------------------------------------------------------------
# (ii) a reader logs nothing
# ----------------------------------------------------------------------

AUTOCOMMIT_READS = {
    "serializable": lambda db: db.session().read("v", ("a",)),
    "missing key": lambda db: db.session().read("sales", (404,)),
    "for update": lambda db: db.session().read("sales", (-1,), for_update=True),
    "read_exact": lambda db: db.session().read_exact("v", ("b",)),
    "snapshot": lambda db: db.session(isolation="snapshot").read("v", ("a",)),
    "read_committed": lambda db: db.session(
        isolation="read_committed"
    ).read("v", ("a",)),
    "scan": lambda db: list(db.session().scan("sales")),
    "select": lambda db: db.execute("SELECT * FROM v WHERE product = 'c'"),
    "run": lambda db: db.session().run(lambda s: s.read("v", ("a",))),
}


@pytest.mark.parametrize("kind", sorted(AUTOCOMMIT_READS))
def test_a_hundred_reads_append_and_flush_nothing(kind):
    db = seeded()
    db.tracer.enable()
    records, flushes = len(db.log), db.log.flush_count
    for _ in range(100):
        AUTOCOMMIT_READS[kind](db)
    assert (len(db.log), db.log.flush_count) == (records, flushes)
    assert db.log._txn_last_lsn == {} and db.log._txn_bytes == {}
    commits = db.tracer.events(name="txn_commit")
    assert len(commits) == 100
    assert all(e.fields["log_bytes"] == 0 for e in commits)
    assert db.tracer.events(name="wal_append") == []
    assert db.stats()["txns"]["committed"] >= 100


def test_a_silent_abort_is_traced_and_logs_nothing():
    db = seeded()
    db.tracer.enable()
    records = len(db.log)
    txn = db.begin()
    db.read(txn, "v", ("a",))
    db.abort(txn)
    assert len(db.log) == records
    (event,) = db.tracer.events(name="txn_abort")
    assert event.txn_id == txn.txn_id and txn.stats.log_bytes == 0
    assert db.locks.locks_of(txn.txn_id) == []


def test_txn_begin_still_precedes_the_first_wal_append():
    db = seeded()
    db.tracer.enable()
    with db.session() as s:
        s.insert("sales", sale(50))
        txn_id = s.current_transaction.txn_id
    names = [e.name for e in db.tracer.events() if e.txn_id == txn_id]
    assert names.index("txn_begin") < names.index("wal_append")
    last = [e for e in db.tracer.events(name="wal_append") if e.txn_id == txn_id][-1]
    assert last.fields["record"] == "CommitRecord"  # its last record


# ----------------------------------------------------------------------
# (iii) early lock release: a silent reader is a dependent
# ----------------------------------------------------------------------

GROUPED = [
    {"group_commit": "size", "group_commit_size": 8},
    {"group_commit": "latency", "group_commit_latency": 10_000},
]


def pending_writer(db, i):
    txn = db.begin()
    db.insert(txn, "sales", sale(i))
    db.commit(txn)  # commit-visible; its group has not flushed
    assert txn.commit_ticket.state == CommitTicket.PENDING
    return txn


@pytest.mark.parametrize("config", GROUPED, ids=["size", "latency"])
class TestSilentReaderUnderGroupCommit:
    def test_a_returned_read_of_a_pending_row_is_durable(self, config):
        db = seeded(**config)
        writer = pending_writer(db, 70)
        records = len(db.log)
        assert db.session().read("sales", (70,)) is not None
        assert len(db.log) == records  # the reader appended nothing...
        # ...but returned only once what it read could not be lost
        assert db.log.flushed_lsn >= writer.commit_ticket.commit_lsn
        assert writer.commit_ticket.state == CommitTicket.DURABLE
        db.simulate_crash_and_recover()
        assert db.read_committed("sales", (70,)) is not None
        assert db.check_all_views() == []

    def test_a_retracted_writer_takes_its_reader_with_it(self, config):
        db = seeded(**config)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        writer = pending_writer(db, 71)
        injector.arm("wal.group_flush", probability=1.0, times=1)
        with pytest.raises(FaultInjected) as caught:
            db.session().read("sales", (71,))
        assert caught.value.site == "wal.group_flush"
        assert writer.commit_ticket.state == CommitTicket.RETRACTED
        assert db.stats()["group_commit"]["retracted_txns"] == 2
        # retryable: the second attempt sees the rolled-back truth
        assert db.session().run(lambda s: s.read("sales", (71,))) is None
        assert db.check_all_views() == []

    def test_with_nothing_pending_a_reader_takes_no_ticket(self, config):
        db = seeded(**config)
        aborted = db.begin()  # leaves an unflushed tail nobody committed
        db.insert(aborted, "sales", sale(72))
        db.abort(aborted)
        assert db.log.tail_lsn() > db.log.flushed_lsn
        flushes = db.group_commit.flushes, db.log.flush_count
        reader = db.begin()
        assert db.read(reader, "v", ("a",)) is not None
        db.commit(reader)
        assert reader.commit_ticket is None
        assert db.ensure_durable(reader) is True
        assert (db.group_commit.flushes, db.log.flush_count) == flushes


# ----------------------------------------------------------------------
# (iv) checkpoints and the transactions they list
# ----------------------------------------------------------------------

PAGED = {"buffer_pool_frames": 4, "page_size": 256}


def test_a_checkpoint_with_a_silent_transaction_open_recovers():
    db = seeded(**PAGED)
    reader = db.begin()
    assert db.read(reader, "v", ("c",)) is not None
    checkpoint = db.take_checkpoint()
    assert checkpoint.active_txns == {}  # it has no backchain to list
    with db.session() as s:
        s.insert("sales", sale(80))
    report = db.simulate_crash_and_recover()
    assert report.pages_loaded > 0  # the checkpoint was trusted
    assert report.losers == set()
    assert db.read_committed("sales", (80,)) is not None
    assert db.check_all_views() == []


def test_a_rollback_that_ended_after_the_checkpoint_is_not_undone_twice():
    db = seeded(**PAGED)
    writer = db.begin()
    db.insert(writer, "sales", sale(81))
    checkpoint = db.take_checkpoint()
    assert set(checkpoint.active_txns) == {writer.txn_id}
    db.abort(writer)
    db.log.flush()
    ends = len(db.log.records_by_type(RecordType.END))
    report = db.simulate_crash_and_recover()
    assert report.pages_loaded > 0
    assert (report.losers, report.undo_count) == (set(), 0)
    assert len(db.log.records_by_type(RecordType.END)) == ends
    assert db.read_committed("sales", (81,)) is None
    assert db.check_all_views() == []


# ----------------------------------------------------------------------
# the log manager's per-transaction tables stay O(active)
# ----------------------------------------------------------------------

def test_ended_transactions_leave_nothing_in_the_log_manager():
    db = Database()
    db.create_table("t", ("a",), ("a",))
    open_writer = db.begin()
    db.insert(open_writer, "t", {"a": -1})
    for i in range(10_000):
        txn = db.begin()
        db.insert(txn, "t", {"a": i})
        if i % 10:
            db.commit(txn)
        else:
            db.abort(txn)
        assert txn.stats.log_bytes > 0
    assert set(db.log._txn_last_lsn) == {open_writer.txn_id}
    assert set(db.log._txn_bytes) == {open_writer.txn_id}
    # whoever asks the log about a transaction asks about an open one:
    # the checkpoint's table, analysis (the open writer is the one
    # loser), and the in-doubt registry after a crash
    assert set(db.take_checkpoint().active_txns) == {open_writer.txn_id}
    branch = db.begin()
    db.insert(branch, "t", {"a": -2})
    db.participant.prepare(branch, "G1")
    report = db.simulate_crash_and_recover()
    assert report.losers == {open_writer.txn_id}
    assert report.in_doubt == {branch.txn_id}
    assert set(db.log._txn_last_lsn) == {branch.txn_id}
    assert db.log._txn_bytes == {}
    db.participant.resolve_in_doubt(branch.txn_id, "commit")
    assert db.log._txn_last_lsn == {}
    assert db.read_committed("t", (-2,)) is not None
    assert db.read_committed("t", (-1,)) is None
