"""Same seed, same trace — in every process.

Lock resources are tuples that contain strings, so anything that walks a
``set`` of them walks it in an order that depends on ``PYTHONHASHSEED``.
A commit that wakes waiters on two resources must emit their
``lock_grant`` events in the order the locks were taken, not in hash
order, or two runs of one seeded schedule differ between processes.
The same holds for a fixed rule sequence of the crash machine's
concurrent sessions: waits, a deadlock, a resumed statement, escrow
holders sharing a group and a crash with a session in flight.
"""

import os
import subprocess
import sys

SCHEDULE = """
import json
from repro.api import BankingWorkload, Database, EngineConfig, Scheduler

db = Database(EngineConfig(aggregate_strategy="escrow"))
bank = BankingWorkload(db, n_branches=4, accounts_per_branch=25, seed=11).setup()
db.tracer.enable()
scheduler = Scheduler(db, custom_executor=bank.op_executor())
for _ in range(8):
    scheduler.add_session(bank.transfer_program(), txns=15)
scheduler.add_session(bank.audit_program(), txns=3)
scheduler.run()
for event in db.tracer.as_dicts():
    print(json.dumps(event, sort_keys=True, default=repr))
"""

MACHINE = """
import json
from hypothesis import given, settings, strategies as st
from tests.test_crash_machine import CrashMachine

@settings(max_examples=1, database=None)
@given(st.just(None))
def run(_):
    m = CrashMachine()
    m.build(strategy="escrow", frames=2, mode="immediate", timeout=None,
            group={}, seeded=False)
    m.insert(s=3, rows=[(1, 0, 5, None), (2, 1, 5, None)])  # autocommitted
    for _ in range(3):
        m.begin(s=0)
    m.update(s=0, key=1, g=None, amount=6, v=None, withdraw=False)
    m.update(s=1, key=2, g=None, amount=7, v=None, withdraw=False)
    m.update(s=0, key=2, g=None, amount=8, v=None, withdraw=False)  # session 0 parks
    m.update(s=0, key=1, g=None, amount=9, v=None, withdraw=False)  # session 1: deadlock
    m.resume(s=0)
    m.insert(s=1, rows=[(3, 0, 4, None)])  # session 2 shares group 0
    m.commit(s=0)
    m._crash(len(m.timeline), m.db.log.flushed_lsn)  # session 2 in flight
    for event in m.db.tracer.as_dicts():
        print(json.dumps(event, sort_keys=True, default=repr))

run()
"""


def trace_under(hash_seed, script):
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.splitlines()


def test_contended_schedule_traces_the_same_under_two_hash_seeds():
    for script, grants in ((SCHEDULE, 10), (MACHINE, 0)):
        first, second = trace_under(0, script), trace_under(1, script)
        # the schedule is contended: commits do wake queued waiters
        assert sum('"lock_grant"' in line for line in first) > grants
        assert first == second
