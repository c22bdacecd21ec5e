"""R17 (robustness): crash-storm recovery, WAL salvage, and the online
integrity checker with quarantine + rebuild.

Four legs, all deterministic and seeded:

1. **Crash storm** — two identical banking workloads from the same seed.
   One recovers in a single shot; the other has recovery itself crashed
   at seeded points inside analysis/redo/undo, ``N >= 5`` nested crashes,
   and is re-entered until it converges. Full index-state snapshots must
   be identical, the protocol sanitizers must stay clean, and money must
   be conserved.
2. **Salvage** — a committed record is corrupted in the durable stream;
   the salvage scan must truncate at it and *name* the lost commits in
   ``RecoveryReport.salvage``, leaving the surviving prefix consistent.
3. **Negative control** — the same corruption with
   ``EngineConfig(wal_checksums=False)`` flows through recovery silently
   (``salvage is None``), proving the checksum oracle is load-bearing —
   and the independent integrity checker still catches the damage.
4. **Quarantine + rebuild** — a view row is silently corrupted;
   ``check_integrity(quarantine=True)`` detects and quarantines it,
   degraded reads answer from base-table recomputation, and
   ``rebuild_view`` re-materializes it online and lifts the quarantine.
"""

from repro.api import (
    BankingWorkload,
    Database,
    EngineConfig,
    FaultInjector,
    SimulatedCrash,
    validate_recovery_report,
)

from harness import claim, emit

BRANCH_TOTALS = "branch_totals"
N_TRANSFERS = 30
#: (site, after): the storm's seeded crash points inside recovery, in
#: the order they are armed — one nested crash each, then convergence.
STORM_SCHEDULE = [
    ("recovery.analysis", 3),
    ("recovery.redo", 1),
    ("recovery.undo", 0),
    ("recovery.analysis", 20),
    ("recovery.redo", 8),
    ("recovery.analysis", 40),
]


def build_bank(seed, **config_kwargs):
    db = Database(EngineConfig(aggregate_strategy="escrow", **config_kwargs))
    bank = BankingWorkload(
        db, n_branches=3, accounts_per_branch=8, seed=seed
    ).setup()
    return db, bank


def run_transfers(db, bank, n=N_TRANSFERS, with_loser=True):
    """Seeded committed transfers, plus (for the recovery legs) one
    flushed-but-uncommitted loser — real work for the undo pass."""
    for _ in range(n):
        with db.session() as session:
            txn = session.current_transaction
            src = bank._random_aid()
            dst = bank._random_aid()
            while dst == src:
                dst = bank._random_aid()
            amount = bank.rng.randint(1, 20)
            bank.execute_update_balance(txn, (src,), -amount)
            bank.execute_update_balance(txn, (dst,), +amount)
    if with_loser:
        loser = db.begin()
        bank.execute_update_balance(loser, (1,), -500)
        bank.execute_update_balance(loser, (2,), +500)
    db.log.flush()  # the loser is durable; its COMMIT never lands


def state_snapshot(db):
    """Every index's full state: key -> (row, ghost flag)."""
    return {
        name: {
            key: (record.current_row.as_dict(), record.is_ghost)
            for key, record in db.index(name).scan(include_ghosts=True)
        }
        for name in db.index_names()
    }


def storm_leg(seed=41):
    # reference: the same workload, recovered in one uninterrupted shot
    ref_db, ref_bank = build_bank(seed)
    run_transfers(ref_db, ref_bank)
    ref_report = ref_db.simulate_crash_and_recover()
    ref_state = state_snapshot(ref_db)
    ref_bank.check_conservation()

    db, bank = build_bank(seed, sanitizers=True)
    run_transfers(db, bank)
    injector = db.install_fault_injector(FaultInjector(seed=seed))
    crashes = 0
    report = None
    for attempt in range(len(STORM_SCHEDULE) + 1):
        injector.disarm()
        if attempt < len(STORM_SCHEDULE):
            site, after = STORM_SCHEDULE[attempt]
            injector.arm(site, after=after, times=1)
        try:
            report = db.simulate_crash_and_recover()
            break
        except SimulatedCrash:
            crashes += 1
    bank.check_conservation()
    doc = report.as_dict()
    return {
        "crashes": crashes,
        "restarts": report.restarts,
        "converged": state_snapshot(db) == ref_state,
        "winners_match": report.winners == ref_report.winners,
        "losers_match": report.losers == ref_report.losers,
        "report_valid": validate_recovery_report(doc) == [],
        "view_problems": len(db.check_all_views()),
        "integrity_clean": db.check_integrity().clean,
        "sanitizer_violations": [
            str(v) for v in db.sanitizers.check(assume_quiescent=True)
        ],
        "conserved": True,  # check_conservation would have raised
    }


def corrupt_last_commit(db):
    """Damage the newest COMMIT record's stored CRC (a COMMIT has no row
    byte to flip); returns its transaction id (the honest loss the
    salvage scan must report)."""
    victim = None
    for record in db.log.records():
        if type(record).__name__ == "CommitRecord":
            victim = record
    db.log.corrupt(victim.lsn)
    return victim.txn_id


def salvage_leg(seed=42):
    db, bank = build_bank(seed)
    run_transfers(db, bank, n=12)
    lost_txn = corrupt_last_commit(db)
    report = db.simulate_crash_and_recover()
    salvage = report.salvage
    # the lost transfer moved money between accounts, so conservation
    # still holds over the surviving prefix
    bank.check_conservation()
    return {
        "salvage_reported": salvage is not None,
        "lost_commit_named": salvage is not None
        and salvage["lost_commits"] == [lost_txn],
        "dropped_records": salvage["dropped_records"] if salvage else 0,
        "view_problems": len(db.check_all_views()),
        "report_valid": validate_recovery_report(report.as_dict()) == [],
    }


def negative_control_leg(seed=42):
    """Checksums off: a committed escrow delta with one flipped bit reads
    back as another delta and flows through recovery silently (salvage
    is blind, by design — proving the checksum oracle is load-bearing),
    but the independent integrity checker recomputes from base tables
    and catches it."""
    db, bank = build_bank(seed, wal_checksums=False)
    run_transfers(db, bank, n=12, with_loser=False)
    victim = None
    for record in db.log.records():
        if type(record).__name__ == "EscrowDeltaRecord":
            victim = record
    db.log.corrupt(victim.lsn)
    report = db.simulate_crash_and_recover()
    integrity = db.check_integrity()
    return {
        "salvage_blind": report.salvage is None,
        "checker_detected": not integrity.clean,
        "damage_findings": len(integrity.damage),
    }


def quarantine_leg(seed=43):
    db, bank = build_bank(seed)
    run_transfers(db, bank, n=12, with_loser=False)
    truth = db.read_committed(BRANCH_TOTALS, (0,))
    # silent damage: bypasses the WAL, only the checker can see it
    record = db.index(BRANCH_TOTALS).get_record((0,))
    record.current_row = record.current_row.replace(total=10**9)
    detected = db.check_integrity(quarantine=True)
    quarantined = db.quarantine.is_quarantined(BRANCH_TOTALS)
    degraded = db.read_committed(BRANCH_TOTALS, (0,))
    corrections = db.rebuild_view(BRANCH_TOTALS)
    after = db.check_integrity()
    bank.check_conservation()
    return {
        "detected": not detected.clean,
        "quarantined": quarantined,
        "degraded_read_correct": degraded == truth,
        "corrections": corrections,
        "clean_after_rebuild": after.clean
        and not db.quarantine.is_quarantined(BRANCH_TOTALS),
        "degraded_reads": db.stats()["integrity"]["degraded_reads"],
    }


def scenario():
    storm = storm_leg()
    salvage = salvage_leg()
    control = negative_control_leg()
    quarantine = quarantine_leg()

    headers = ["leg", "metric", "value"]
    rows = [
        ["storm", "nested crashes", storm["crashes"]],
        ["storm", "restarts reported", storm["restarts"]],
        ["storm", "state equals single-shot", storm["converged"]],
        ["storm", "sanitizer violations",
         len(storm["sanitizer_violations"])],
        ["salvage", "lost commit named", salvage["lost_commit_named"]],
        ["salvage", "records dropped", salvage["dropped_records"]],
        ["control", "salvage blind (checksums off)",
         control["salvage_blind"]],
        ["control", "checker detected damage", control["checker_detected"]],
        ["quarantine", "degraded read correct",
         quarantine["degraded_read_correct"]],
        ["quarantine", "rebuild corrections", quarantine["corrections"]],
        ["quarantine", "clean after rebuild",
         quarantine["clean_after_rebuild"]],
    ]
    checks = [
        ("recovery survived >= 5 nested crashes and converged",
         storm["crashes"] >= 5 and storm["converged"]),
        ("storm report: restarts == crashes, winners/losers match "
         "single-shot, schema-valid",
         storm["restarts"] == storm["crashes"] and storm["winners_match"]
         and storm["losers_match"] and storm["report_valid"]),
        ("views consistent and money conserved after the storm",
         storm["view_problems"] == 0 and storm["integrity_clean"]
         and storm["conserved"]),
        ("protocol sanitizers clean across the storm",
         not storm["sanitizer_violations"]),
        ("salvage names the lost commit, surviving prefix consistent",
         salvage["lost_commit_named"] and salvage["view_problems"] == 0
         and salvage["report_valid"]),
        ("negative control: checksums off -> salvage blind, but the "
         "integrity checker catches the corruption",
         control["salvage_blind"] and control["checker_detected"]),
        ("quarantined reads answer from recomputation",
         quarantine["detected"] and quarantine["quarantined"]
         and quarantine["degraded_read_correct"]
         and quarantine["degraded_reads"] > 0),
        ("rebuild repairs the view and lifts the quarantine",
         quarantine["corrections"] >= 1
         and quarantine["clean_after_rebuild"]),
    ]
    the_claim = claim(
        "recovery is restartable under a crash storm, WAL corruption is "
        "salvaged loudly, and damaged views degrade to recomputation "
        "until rebuilt online",
        checks,
    )
    sanitizers_block = {
        "enabled": True,
        "legs": 1,  # the storm leg runs with sanitizers attached
        "violations": len(storm["sanitizer_violations"]),
        "ok": not storm["sanitizer_violations"],
        "examples": storm["sanitizer_violations"][:5],
    }
    emit(
        "r17_crash_storm",
        headers,
        rows,
        title="R17: crash-storm recovery, WAL salvage, quarantine + rebuild",
        params={
            "transfers": N_TRANSFERS,
            "storm_schedule": [list(s) for s in STORM_SCHEDULE],
            "seeds": {"storm": 41, "salvage": 42, "quarantine": 43},
        },
        series={
            "storm": {
                "crashes": storm["crashes"],
                "restarts": storm["restarts"],
            },
            "salvage": {"dropped_records": salvage["dropped_records"]},
            "quarantine": {
                "corrections": quarantine["corrections"],
                "degraded_reads": quarantine["degraded_reads"],
            },
        },
        claim=the_claim,
        sanitizers=sanitizers_block,
    )
    assert the_claim["verdict"] == "pass", [
        c for c in the_claim["checks"] if not c["ok"]
    ]
    return the_claim


if __name__ == "__main__":
    scenario()
