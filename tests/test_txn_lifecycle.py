"""One transaction lifecycle: every caller that lets go of a transaction
handle ends it through ``Database.settle``, so every caller keeps the
same three promises under every condition.

*Callers* × *conditions* is one matrix. What is asserted depends only on
how the call ended:

* it **returned** — the COMMIT record is durable (its LSN ≤
  ``log.flushed_lsn``: nobody holds a handle to wait on later) and the
  work survives ``simulate_crash_and_recover()``;
* it raised a **retryable failure** — no transaction is left active and
  no lock is left held, on any engine;
* it raised a **SimulatedCrash** — nothing was appended to any log past
  the crash point and ``aborted_count`` did not move: nothing runs on a
  dead engine.

Three cells pinned bugs at PR 20 (each fails there): ``Session.commit``
and ``with db.session()`` under group commit returned before their
COMMIT was durable; a single-partition ``ShardedDatabase.commit`` denied
a lock while folding view deltas left the branch active on its
partition, locks held; ``refresh_view`` / ``rebuild_view`` crashed at
``txn.commit.after`` went on to log ABORT + CLRs + END behind the
durable COMMIT.
"""

import pytest

from repro.common import SimulatedCrash, StorageError, TransactionAborted
from repro.core import Database, EngineConfig
from repro.dist import ShardedDatabase
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal.records import CommitRecord

ROW = {"id": 10, "g": "a", "x": 5}


def by_group(name):
    return AggregateView(
        name, "t", group_by=("g",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("s", "x")],
    )


class CrashPointInjector(FaultInjector):
    """Remembers every engine's log tail at the moment a crash site
    fires — the line nothing may write past."""

    engines = ()
    tails = None

    def maybe_crash(self, site, **kwargs):
        try:
            super().maybe_crash(site, **kwargs)
        except SimulatedCrash:
            self.tails = [engine.log.tail_lsn() for engine in self.engines]
            raise


class Single:
    """One engine with three committed rows under view ``v``."""

    def __init__(self, **config):
        self.db = Database(EngineConfig(**config))
        self.db.create_table("t", ("id", "g", "x"), ("id",))
        self.db.create_view(by_group("v"))
        for i in (1, 2, 3):
            self.db.session().insert("t", {"id": i, "g": "a", "x": i})
        self.engines = [self.db]

    def install(self, injector):
        self.db.install_fault_injector(injector)

    def crash_and_recover(self):
        self.db.simulate_crash_and_recover()

    def read(self, name, key):
        return self.db.read_committed(name, key)


class Sharded(Single):
    """Two partitions; ids below 100 live on partition 0."""

    def __init__(self, **config):
        self.db = ShardedDatabase([100], EngineConfig(**config))
        self.db.create_table("t", ("id", "g", "x"), ("id",))
        self.db.create_view(by_group("v"))
        self.engines = [self.db.partition(pid) for pid in (0, 1)]

    def crash_and_recover(self):
        for pid in (0, 1):
            if pid not in self.db.down_partitions():
                self.db.crash_partition(pid)
            self.db.recover_partition(pid)


# ----------------------------------------------------------------------
# the callers: each runs one transaction to its end and names the row
# (``index, key``) that exists exactly when that transaction committed
# ----------------------------------------------------------------------


def session_commit(env):
    session = env.db.session()
    session.begin()
    session.insert("t", ROW)
    session.commit()


def with_session(env):
    with env.db.session() as session:
        session.insert("t", ROW)


def autocommit_statement(env):
    env.db.session().insert("t", ROW)


def session_run(env):
    env.db.session().run(lambda s: s.insert("t", ROW), retries=0)


def db_execute(env):
    env.db.execute("INSERT INTO t (id, g, x) VALUES (10, 'a', 5)")


def create_view(env):
    env.db.create_view(by_group("w"))


def create_secondary_index(env):
    env.db.create_secondary_index("t", "by_g", ("g",))


def rebuild_view(env):
    env.db.rebuild_view("v")


def refresh_view(env):
    env.db.refresh_view("d")


def sharded_commit(env):
    dtxn = env.db.begin()
    env.db.insert(dtxn, "t", ROW)
    env.db.commit(dtxn)


def damage_and_quarantine(env):
    record = env.db.index("v").get_record(("a",), include_ghost=True)
    record.current_row = record.current_row.replace(s=999)
    env.db.quarantine_view("v")


def leave_a_deferred_change(env):
    env.db.create_view(by_group("d"), deferred=True)
    env.db.session().insert("t", {"id": 4, "g": "a", "x": 4})


#: caller -> (environment, extra setup, the row its commit leaves behind,
#: the resource name its commit path locks — what ``lock.deny`` matches)
CALLERS = {
    session_commit: (Single, None, ("t", (10,)), "'v'"),
    with_session: (Single, None, ("t", (10,)), "'v'"),
    autocommit_statement: (Single, None, ("t", (10,)), "'v'"),
    session_run: (Single, None, ("t", (10,)), "'v'"),
    db_execute: (Single, None, ("t", (10,)), "'v'"),
    create_view: (Single, None, ("w", ("a",)), "'w'"),
    create_secondary_index: (Single, None, ("t#by_g", ("a", 1)), "'t#by_g'"),
    rebuild_view: (Single, damage_and_quarantine, None, "'v'"),
    refresh_view: (Single, leave_a_deferred_change, None, "'d'"),
    sharded_commit: (Sharded, None, ("t", (10,)), "'v'"),
}

CONDITIONS = {
    "clean": ({}, None),
    "group_commit_size": (
        {"group_commit": "size", "group_commit_size": 4}, None,
    ),
    "group_commit_latency": (
        {"group_commit": "latency", "group_commit_latency": 8}, None,
    ),
    "lock_deny": ({"maintenance_mode": "commit_fold"}, "lock.deny"),
    "crash_before_commit": ({}, "txn.commit.before"),
    "crash_after_commit": ({}, "txn.commit.after"),
}


def committed_row(env, marker):
    if marker is None:
        return None
    try:
        return env.read(*marker)
    except StorageError:  # the index itself vanished with its build
        return None


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("caller", CALLERS, ids=lambda c: c.__name__)
def test_every_caller_ends_its_transaction_the_same_way(caller, condition):
    make_env, setup, marker, deny_match = CALLERS[caller]
    config, site = CONDITIONS[condition]
    env = make_env(**config)
    if setup is not None:
        setup(env)
    injector = CrashPointInjector(seed=0)
    injector.engines = env.engines
    if site is not None:
        env.install(injector)
        injector.arm(
            site, times=1, match=deny_match if site == "lock.deny" else None
        )
    aborted_before = [engine.aborted_count for engine in env.engines]
    returned = False

    try:
        caller(env)
    except SimulatedCrash as crash:
        assert site in ("txn.commit.before", "txn.commit.after")
        assert [e.log.tail_lsn() for e in env.engines] == injector.tails, (
            "something was logged on a crashed engine"
        )
        assert [e.aborted_count for e in env.engines] == aborted_before
        injector.disarm()
        env.crash_and_recover()
        if marker is not None:
            survived = committed_row(env, marker) is not None
            assert survived == crash.committed
    except TransactionAborted:
        assert site == "lock.deny" and injector.fired == {"lock.deny": 1}
        for engine in env.engines:
            assert engine.active_transactions() == []
            for txn_id in range(1, engine._txns._next_txn_id):
                assert engine.locks.locks_of(txn_id) == []
        assert committed_row(env, marker) is None
    else:
        assert site is None or not injector.fired
        for engine in env.engines:
            commits = [
                record.lsn for record in engine.log.records()
                if isinstance(record, CommitRecord)
            ]
            assert max(commits, default=0) <= engine.log.flushed_lsn
        env.crash_and_recover()
        if marker is not None:
            assert committed_row(env, marker) is not None

        returned = True

    for engine in env.engines:
        assert engine.active_transactions() == []
        # a repair that failed leaves its view as damaged / stale as before
        if returned or setup is None:
            assert engine.check_all_views() == []
