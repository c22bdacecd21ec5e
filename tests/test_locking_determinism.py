"""Same seed, same trace — in every process.

Lock resources are tuples that contain strings, so anything that walks a
``set`` of them walks it in an order that depends on ``PYTHONHASHSEED``.
A commit that wakes waiters on two resources must emit their
``lock_grant`` events in the order the locks were taken, not in hash
order, or two runs of one seeded schedule differ between processes.
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


def trace_under(hash_seed):
    result = subprocess.run(
        [sys.executable, "-c", SCHEDULE],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.splitlines()


def test_contended_schedule_traces_the_same_under_two_hash_seeds():
    first, second = trace_under(0), trace_under(1)
    # the schedule is contended: commits do wake queued waiters
    assert sum('"lock_grant"' in line for line in first) > 10
    assert first == second
