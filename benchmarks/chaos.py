#!/usr/bin/env python
"""Chaos harness: randomized-but-seeded fault schedules vs the oracle.

Each *schedule* (one seed) builds a banking database under a randomly
drawn engine configuration, arms a random subset of fault sites with
random probabilities, and runs a few phases of concurrent transfers
under the simulator. Injected faults abort transactions (which the
scheduler retries), delay lock grants, time out waits, and crash the
process mid-commit or mid-maintenance — after which the harness runs
crash recovery, exactly as an operator would.

After every phase the **consistency oracle** runs:

* every indexed view equals recomputation from its base tables
  (``db.check_all_views()``);
* money is conserved — transfers never create or destroy it
  (``BankingWorkload.check_conservation``), across any mix of commits,
  aborts, retries, and crash/recovery cycles.

Every schedule also runs with the ``repro.analysis`` protocol
sanitizers attached (``EngineConfig(sanitizers=True)``): 2PL, the WAL
rule, and conflict serializability are checked over the live trace
stream, and the suite records a ``sanitizers`` verdict block in
``results/chaos.json`` (see ``docs/ANALYSIS.md``).

Recovery is part of the attack surface (PR 5): the menu arms
``wal.corrupt`` (bit flips in the durable stream, salvaged at the next
recovery) and the ``recovery.*`` crash sites, so recovery itself can
die mid-phase — every recovery in the harness runs through
:func:`recover_with_reentry`, exactly the operator's restart loop.
:func:`crash_storm_leg` does it deterministically: >= 5 seeded nested
crashes inside recovery must converge to the single-shot state.

Companion demonstrations make the harness's verdict meaningful:

* :func:`broken_injector_demo` arms the deliberately unsound
  ``wal.append.lost`` site and asserts the oracle **does** flag the
  resulting corruption — a negative control proving the oracle has teeth;
* :func:`retry_rescue` shows a contended workload that surfaces
  deadlock aborts with retries disabled and completes with **zero**
  user-visible aborts once automatic retry is on, with the retry and
  backoff histograms landing in ``db.stats()["retries"]``.

Run:  python benchmarks/chaos.py           (full: 50 schedules)
      make chaos-smoke                     (bounded: 12 schedules)
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.api import (
    BankingWorkload,
    Database,
    DeterministicRng,
    EngineConfig,
    FaultInjected,
    FaultInjector,
    Scheduler,
    SimulatedCrash,
    validate_recovery_report,
)  # noqa: E402

from harness import claim, emit  # noqa: E402

#: the sites a schedule may arm, with per-hit probability bounds.
#: ``wal.append.lost`` is deliberately absent — it is unsound by design
#: and only the negative control (:func:`broken_injector_demo`) arms it.
FAULT_MENU = [
    ("wal.append", 0.02),
    ("wal.flush", 0.05),
    ("wal.torn_tail", 0.03),
    ("wal.group_flush", 0.05),
    ("lock.delay", 0.05),
    ("lock.deny", 0.03),
    ("txn.commit.before", 0.01),
    ("txn.commit.after", 0.01),
    ("view.midapply", 0.01),
    ("cleanup.interrupt", 0.2),
    ("wal.corrupt", 0.02),
    ("recovery.analysis", 0.02),
    ("recovery.redo", 0.02),
    ("recovery.undo", 0.05),
]

RECOVERY_SITES = ("recovery.analysis", "recovery.redo", "recovery.undo")
#: a schedule may crash recovery this many times before the harness
#: disarms the recovery.* sites (a livelock cap, not an expectation)
MAX_NESTED_CRASHES = 25

PHASES = 2
SESSIONS = 4
TXNS_PER_SESSION = 3


def recover_with_reentry(db, injector, tally):
    """Run recovery, re-entering it after every nested crash (armed
    ``recovery.*`` sites can kill recovery itself). Accounts nested
    crashes, salvage truncations, and report-schema validity in
    ``tally``; past :data:`MAX_NESTED_CRASHES` the recovery sites are
    disarmed so a hot schedule converges instead of livelocking."""
    while True:
        try:
            report = db.simulate_crash_and_recover()
            break
        except SimulatedCrash:
            tally["nested_crashes"] += 1
            if tally["nested_crashes"] >= MAX_NESTED_CRASHES:
                for site in RECOVERY_SITES:
                    injector.disarm(site)
    salvage = report.salvage
    if salvage is not None:
        tally["salvaged"] += 1
        tally["lost_commits"] += len(salvage["lost_commits"])
    tally["report_problems"].extend(
        validate_recovery_report(report.as_dict())
    )
    return report


def run_one_seed(seed):
    """One chaos schedule. Returns a result dict; ``ok`` is the oracle."""
    rng = DeterministicRng(seed)
    group = rng.choice([None, None, ("size", 4), ("latency", 12)])
    config = EngineConfig(
        aggregate_strategy=rng.choice(["escrow", "escrow", "xlock"]),
        maintenance_mode=rng.choice(["immediate", "immediate", "commit_fold"]),
        lock_wait_timeout=rng.choice([None, 5, 25]),
        group_commit=group[0] if group else None,
        group_commit_size=group[1] if group and group[0] == "size" else 8,
        group_commit_latency=group[1] if group and group[0] == "latency" else 16,
        sanitizers=True,
    )
    db = Database(config)
    bank = BankingWorkload(
        db, n_branches=3, accounts_per_branch=8, seed=seed
    ).setup()
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    armed = rng.sample(FAULT_MENU, rng.randint(1, 3))
    for site, base_p in armed:
        injector.arm(site, probability=base_p * rng.uniform(0.5, 2.0))

    crashes = 0
    problems = []
    committed = 0
    gave_up = 0
    tally = {
        "nested_crashes": 0, "salvaged": 0, "lost_commits": 0,
        "report_problems": [],
    }
    for _ in range(PHASES):
        sched = Scheduler(
            db, max_retries=8, cleanup_interval=100,
            custom_executor=bank.op_executor(),
        )
        for _ in range(SESSIONS):
            sched.add_session(
                bank.transfer_program(think=rng.randint(0, 4)),
                txns=TXNS_PER_SESSION,
            )
        try:
            result = sched.run()
            committed += result.committed
            gave_up += result.gave_up
        except SimulatedCrash:
            crashes += 1
            recover_with_reentry(db, injector, tally)
        # Occasional operator actions, under the same fault schedule.
        if rng.random() < 0.5:
            try:
                db.run_ghost_cleanup()
            except FaultInjected:
                pass  # a retracted system commit: cleanup just requeues
            except SimulatedCrash:
                crashes += 1
                recover_with_reentry(db, injector, tally)
        if rng.random() < 0.3:
            # consumes no flush fault: a checkpoint is housekeeping
            db.take_checkpoint()
        if rng.random() < 0.25:  # a surprise power failure at quiescence
            crashes += 1
            recover_with_reentry(db, injector, tally)
        # ---- the oracle ----
        problems.extend(db.check_all_views())
        try:
            bank.check_conservation()
        except AssertionError as exc:
            problems.append(str(exc))
    # ---- the protocol sanitizers (2PL / WAL rule / serializability);
    # drain any open commit group first so durability is settled, then
    # hold the run to the quiescence bar too ----
    injector.disarm()
    db.group_commit.flush_pending()
    sanitizer_violations = [
        str(v) for v in db.sanitizers.check(assume_quiescent=True)
    ]
    problems.extend(tally["report_problems"])
    return {
        "seed": seed,
        "ok": not problems and not sanitizer_violations,
        "problems": problems,
        "sanitizer_violations": sanitizer_violations,
        "armed": injector.armed_sites(),
        "fired": sum(injector.fired.values()),
        "crashes": crashes,
        "nested_crashes": tally["nested_crashes"],
        "salvaged": tally["salvaged"],
        "lost_commits": tally["lost_commits"],
        "committed": committed,
        "gave_up": gave_up,
        "timeouts": db.locks.stats.timeouts,
        "deadlocks": db.locks.stats.deadlocks,
    }


def crash_storm_leg(seed=4242):
    """Recovery hardening: crash recovery *itself* at >= 5 seeded points
    (analysis / redo / undo) and re-enter until it converges. The final
    state must equal the single-shot recovery of an identical workload,
    money must be conserved, and the sanitizers must stay clean."""

    def build(with_sanitizers=False):
        db = Database(EngineConfig(
            aggregate_strategy="escrow", sanitizers=with_sanitizers,
        ))
        bank = BankingWorkload(
            db, n_branches=3, accounts_per_branch=6, seed=seed
        ).setup()
        for _ in range(20):
            with db.session() as session:
                txn = session.current_transaction
                src = bank._random_aid()
                dst = bank._random_aid()
                while dst == src:
                    dst = bank._random_aid()
                amount = bank.rng.randint(1, 15)
                bank.execute_update_balance(txn, (src,), -amount)
                bank.execute_update_balance(txn, (dst,), +amount)
        loser = db.begin()  # durable-but-uncommitted: undo's workload
        bank.execute_update_balance(loser, (3,), -100)
        db.log.flush()
        return db, bank

    def snapshot(db):
        return {
            name: {
                key: (record.current_row.as_dict(), record.is_ghost)
                for key, record in db.index(name).scan(include_ghosts=True)
            }
            for name in db.index_names()
        }

    ref_db, ref_bank = build()
    ref_report = ref_db.simulate_crash_and_recover()
    ref_state = snapshot(ref_db)
    ref_bank.check_conservation()

    db, bank = build(with_sanitizers=True)
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    schedule = [
        ("recovery.analysis", 3),
        ("recovery.redo", 1),
        ("recovery.undo", 0),
        ("recovery.analysis", 15),
        ("recovery.redo", 6),
        ("recovery.analysis", 30),
    ]
    crashes = 0
    report = None
    for attempt in range(len(schedule) + 1):
        injector.disarm()
        if attempt < len(schedule):
            site, after = schedule[attempt]
            injector.arm(site, after=after, times=1)
        try:
            report = db.simulate_crash_and_recover()
            break
        except SimulatedCrash:
            crashes += 1
    conserved = True
    try:
        bank.check_conservation()
    except AssertionError:
        conserved = False
    return {
        "crashes": crashes,
        "restarts": report.restarts,
        "converged": snapshot(db) == ref_state
        and report.winners == ref_report.winners
        and report.losers == ref_report.losers,
        "report_valid": validate_recovery_report(report.as_dict()) == [],
        "conserved": conserved,
        "view_problems": len(db.check_all_views()),
        "sanitizer_violations": [
            str(v) for v in db.sanitizers.check(assume_quiescent=True)
        ],
    }


def broken_injector_demo(seed=1234):
    """Negative control: silently dropping escrow-delta WAL records MUST
    trip the oracle after a crash, or the oracle proves nothing."""
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    bank = BankingWorkload(
        db, n_branches=2, accounts_per_branch=6, seed=seed
    ).setup()
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    injector.arm("wal.append.lost", probability=0.5, match="EscrowDelta")
    for _ in range(15):
        with db.session() as session:
            txn = session.current_transaction
            src = bank._random_aid()
            dst = bank._random_aid()
            if src == dst:
                continue
            bank.execute_update_balance(txn, (src,), -7)
            bank.execute_update_balance(txn, (dst,), +7)
    injector.disarm()
    dropped = injector.fired.get("wal.append.lost", 0)
    db.simulate_crash_and_recover()
    problems = db.check_all_views()
    conserved = True
    try:
        bank.check_conservation()
    except AssertionError:
        conserved = False
    return {
        "dropped_records": dropped,
        "detected": bool(problems) or not conserved,
        "problems": len(problems),
        "conserved": conserved,
    }


def retry_rescue(seed=99):
    """Automatic retry turns deadlock aborts into invisible hiccups.

    The same contended transfer workload runs twice from identical
    seeds: with the scheduler's retry budget at 0, deadlock/timeout
    victims surface as user-visible aborts (``gave_up``); with a budget
    of 3 every program completes. A third pass exercises
    ``Session.run`` against injected WAL faults so the retry/backoff
    histograms land in ``db.stats()["retries"]``.
    """

    def contended_run(max_retries):
        db = Database(EngineConfig(aggregate_strategy="xlock"))
        bank = BankingWorkload(
            db, n_branches=2, accounts_per_branch=10, seed=seed
        ).setup()
        sched = Scheduler(
            db, max_retries=max_retries, custom_executor=bank.op_executor()
        )
        for _ in range(6):
            sched.add_session(bank.transfer_program(think=3), txns=5)
        result = sched.run()
        bank.check_conservation()
        assert db.check_all_views() == []
        return db, result

    _, no_retry = contended_run(max_retries=0)
    db_retry, with_retry = contended_run(max_retries=3)

    # Session.run-level retry against injected faults.
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    bank = BankingWorkload(
        db, n_branches=2, accounts_per_branch=10, seed=seed
    ).setup()
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    injector.arm("wal.append", probability=0.15)

    def transfer(session):
        txn = session.current_transaction
        src = bank._random_aid()
        dst = bank._random_aid()
        while dst == src:
            dst = bank._random_aid()
        bank.execute_update_balance(txn, (src,), -5)
        bank.execute_update_balance(txn, (dst,), +5)

    session = db.session()
    for _ in range(25):
        session.run(transfer, retries=5)
    injector.disarm()
    bank.check_conservation()
    stats = db.stats()["retries"]
    return {
        "aborts_no_retry": no_retry.gave_up,
        "deadlocks_seen": no_retry.aborted.as_dict().get("deadlock", 0),
        "aborts_with_retry": with_retry.gave_up,
        "committed_with_retry": with_retry.committed,
        "scheduler_retries": with_retry.retries,
        "run_stats": stats,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_suite(n_seeds, name="chaos"):
    results = [run_one_seed(seed) for seed in range(n_seeds)]
    violations = [r for r in results if not r["ok"]]
    storm = crash_storm_leg()
    control = broken_injector_demo()
    rescue = retry_rescue()

    total_fired = sum(r["fired"] for r in results)
    total_crashes = sum(r["crashes"] for r in results)
    total_nested = sum(r["nested_crashes"] for r in results)
    total_salvaged = sum(r["salvaged"] for r in results)
    sanitizer_total = sum(len(r["sanitizer_violations"]) for r in results)
    sanitizers_block = {
        "enabled": True,
        "schedules": len(results),
        "violations": sanitizer_total,
        "ok": sanitizer_total == 0,
        "examples": [
            v for r in results for v in r["sanitizer_violations"]
        ][:5],
    }
    headers = ["metric", "value"]
    rows = [
        ["schedules run", len(results)],
        ["oracle violations", len(violations)],
        ["sanitizer violations", sanitizer_total],
        ["faults fired", total_fired],
        ["crashes recovered", total_crashes],
        ["nested crashes inside recovery", total_nested],
        ["recoveries that salvaged a corrupt log", total_salvaged],
        ["storm: seeded nested crashes", storm["crashes"]],
        ["storm: converged to single-shot state", storm["converged"]],
        ["transactions committed", sum(r["committed"] for r in results)],
        ["lock timeouts", sum(r["timeouts"] for r in results)],
        ["deadlocks", sum(r["deadlocks"] for r in results)],
        ["control: WAL records dropped", control["dropped_records"]],
        ["control: corruption detected", control["detected"]],
        ["rescue: aborts w/o retry", rescue["aborts_no_retry"]],
        ["rescue: aborts with retry=3", rescue["aborts_with_retry"]],
        ["rescue: runs retried (Session.run)",
         rescue["run_stats"]["retried"]],
    ]
    checks = [
        ("every seeded schedule passes the consistency oracle",
         not violations),
        ("protocol sanitizers (2PL/WAL/serializability) clean on every "
         "schedule", sanitizer_total == 0),
        ("fault schedules actually fired faults", total_fired > 0),
        ("at least one schedule crashed and recovered", total_crashes > 0),
        ("lock timeouts and deadlocks were exercised",
         sum(r["timeouts"] for r in results) > 0
         and sum(r["deadlocks"] for r in results) > 0),
        ("broken injector (lost WAL records) is detected by the oracle",
         control["detected"] and control["dropped_records"] > 0),
        ("crash storm: recovery survived >= 5 seeded nested crashes and "
         "converged to the single-shot state",
         storm["crashes"] >= 5 and storm["converged"]
         and storm["restarts"] == storm["crashes"]),
        ("crash storm: conservation, views, report schema, and "
         "sanitizers all clean",
         storm["conserved"] and storm["view_problems"] == 0
         and storm["report_valid"]
         and not storm["sanitizer_violations"]),
        ("contention surfaces aborts when retry is off",
         rescue["aborts_no_retry"] > 0),
        ("retry budget 3 eliminates user-visible aborts",
         rescue["aborts_with_retry"] == 0),
        ("retry/backoff histograms populated",
         rescue["run_stats"]["retried"] > 0
         and rescue["run_stats"]["backoff"]["count"] > 0
         and rescue["run_stats"]["gave_up"] == 0),
    ]
    the_claim = claim(
        "randomized fault schedules never break view consistency or "
        "conservation, even when recovery itself is crashed or the log "
        "is corrupted; a deliberately unsound schedule is detected; "
        "automatic retry hides deadlock aborts",
        checks,
    )
    emit(
        name,
        headers,
        rows,
        title=f"Chaos: {len(results)} seeded fault schedules vs the oracle",
        params={
            "seeds": len(results),
            "phases": PHASES,
            "sessions": SESSIONS,
            "txns_per_session": TXNS_PER_SESSION,
            "fault_menu": [site for site, _ in FAULT_MENU],
        },
        series={
            "fired_per_seed": {r["seed"]: r["fired"] for r in results},
            "crashes_per_seed": {r["seed"]: r["crashes"] for r in results},
        },
        claim=the_claim,
        sanitizers=sanitizers_block,
    )
    if violations:
        for v in violations[:5]:
            print(f"  seed {v['seed']}: "
                  f"{(v['problems'] + v['sanitizer_violations'])[:2]}")
        raise SystemExit(f"{len(violations)} chaos schedule(s) violated the oracle")
    assert the_claim["verdict"] == "pass", [
        c for c in the_claim["checks"] if not c["ok"]
    ]
    return results


def scenario():
    """The full tier: 50 seeded schedules plus both demonstrations."""
    return run_suite(50)


def smoke():
    """The bounded tier for ``make chaos-smoke``: 12 schedules, <60 s."""
    return run_suite(12)


if __name__ == "__main__":
    scenario()
