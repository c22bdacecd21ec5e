#!/usr/bin/env python
"""R16: group commit — flushes per committed transaction at 16 sessions.

The reconstructed experiment behind the tentpole claim: on the R-2
order-entry workload (hot Zipf groups, escrow aggregation) at MPL 16,
batching commits into groups collapses the WAL flush count by well over
5x versus flush-per-commit, with every configuration committing the
identical workload and every view still equal to recomputation. The
cost model charges ``flush=20`` ticks (an fsync dwarfs the in-memory commit path) so the physical saving shows up in
simulated throughput too: without grouping every committer pays the
flush; with grouping only the group's leader does.

A second leg (``chaos_leg``) runs seeded banking transfers under the
simulator with group commit enabled and the ``wal.group_flush`` fault
site armed: failed group flushes retract or escalate to a crash, and
money is conserved and views stay exact across every outcome — the
safety half of the claim. (The crash machine, ``tests/test_crash_machine.py``,
judges group commit, its faults and concurrent sessions in general.)

Run:  python benchmarks/bench_r16_group_commit.py
      make bench-r16
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.api import (
    BankingWorkload,
    CostModel,
    Database,
    EngineConfig,
    FaultInjector,
    Scheduler,
    SimulatedCrash,
)  # noqa: E402

from harness import build_store, claim, emit  # noqa: E402

MPL = 16
TXNS = 12

#: (label, group_commit policy kwargs)
CONFIGS = [
    ("off", {}),
    ("size-2", {"group_commit": "size", "group_commit_size": 2}),
    ("size-4", {"group_commit": "size", "group_commit_size": 4}),
    ("size-8", {"group_commit": "size", "group_commit_size": 8}),
    ("size-16", {"group_commit": "size", "group_commit_size": 16}),
    ("latency-16", {"group_commit": "latency", "group_commit_latency": 16}),
]


def run_once(label, config_kwargs):
    db, workload = build_store(
        strategy="escrow", zipf_theta=1.2, **config_kwargs
    )
    scheduler = Scheduler(
        db, cleanup_interval=500, cost_model=CostModel(flush=20)
    )
    for _ in range(MPL):
        scheduler.add_session(workload.new_sale_program(items=2), txns=TXNS)
    flushes_before = db.log.flush_count
    result = scheduler.run()
    problems = db.check_all_views()
    assert problems == [], f"{label}: views diverged: {problems[:2]}"
    flushes = db.log.flush_count - flushes_before
    gc = db.stats()["group_commit"]
    assert gc["pending"] == 0, f"{label}: commit group left open"
    return {
        "label": label,
        "committed": result.committed,
        "flushes": flushes,
        "txns_per_flush": result.committed / max(1, flushes),
        "ticks": result.ticks,
        "throughput": result.committed / result.ticks * 1000,
        "db": db,
    }


def chaos_leg(seed=7, phases=3, sessions=4, txns=3):
    """The conservation oracle with group commit on and its flush
    failing: every retraction, escalation, crash, and recovery must
    leave money conserved and views exact."""
    db = Database(
        EngineConfig(
            aggregate_strategy="escrow",
            group_commit="size",
            group_commit_size=4,
        )
    )
    bank = BankingWorkload(
        db, n_branches=3, accounts_per_branch=8, seed=seed
    ).setup()
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    injector.arm("wal.group_flush", probability=0.3)
    injector.arm("lock.delay", probability=0.05)
    crashes = 0
    problems = []
    for _ in range(phases):
        scheduler = Scheduler(
            db, max_retries=8, cleanup_interval=100,
            custom_executor=bank.op_executor(),
        )
        for _ in range(sessions):
            scheduler.add_session(bank.transfer_program(think=1), txns=txns)
        try:
            scheduler.run()
        except SimulatedCrash:
            crashes += 1
            db.simulate_crash_and_recover()
        problems.extend(db.check_all_views())
        try:
            bank.check_conservation()
        except AssertionError as exc:
            problems.append(str(exc))
    gc = db.stats()["group_commit"]
    return {
        "ok": not problems,
        "problems": problems,
        "crashes": crashes,
        "group_flush_faults": injector.fired.get("wal.group_flush", 0),
        "retracted": gc["retracted_txns"],
        "lost": gc["lost_txns"],
        "escalations": gc["crash_escalations"],
    }


def scenario():
    runs = [run_once(label, kwargs) for label, kwargs in CONFIGS]
    by_label = {r["label"]: r for r in runs}
    chaos = chaos_leg()

    headers = ["config", "committed", "flushes", "txns/flush",
               "ticks", "commits/1k ticks"]
    rows = [
        [r["label"], r["committed"], r["flushes"],
         f"{r['txns_per_flush']:.1f}", r["ticks"],
         f"{r['throughput']:.1f}"]
        for r in runs
    ]
    rows.append([
        "chaos size-4",
        "conserved" if chaos["ok"] else "VIOLATED",
        f"{chaos['group_flush_faults']} faults",
        f"{chaos['retracted']} retracted",
        f"{chaos['crashes']} crashes",
        f"{chaos['escalations']} escalations",
    ])

    off, size16 = by_label["off"], by_label["size-16"]
    verdict = claim(
        "group commit collapses the flush count >= 5x at 16 sessions and "
        "stays safe under injected group-flush failures",
        [
            (
                "size-16 cuts flushes >= 5x vs flush-per-commit",
                off["flushes"] >= 5 * size16["flushes"],
            ),
            (
                "every config commits the full workload",
                all(r["committed"] == MPL * TXNS for r in runs),
            ),
            (
                "every grouped config out-commits flush-per-commit "
                "(flush=20 cost model)",
                min(r["throughput"] for r in runs if r["label"] != "off")
                > off["throughput"],
            ),
            (
                "latency policy batches too",
                by_label["latency-16"]["flushes"] < off["flushes"],
            ),
            (
                "chaos leg exercised the wal.group_flush site",
                chaos["group_flush_faults"] >= 1,
            ),
            (
                "chaos leg: conservation + views green under "
                "wal.group_flush faults",
                chaos["ok"],
            ),
        ],
    )
    emit(
        "r16_group_commit",
        headers,
        rows,
        title=f"R16: group commit at MPL {MPL} (escrow, zipf 1.2, "
              f"{TXNS} txns/session)",
        params={
            "mpl": MPL,
            "txns_per_session": TXNS,
            "configs": [label for label, _ in CONFIGS],
            "cost_model_flush": 20,
            "chaos": {"policy": "size-4", "p_group_flush": 0.3,
                      "phases": 3},
        },
        series={
            "txns_per_flush": {
                r["label"]: round(r["txns_per_flush"], 2) for r in runs
            },
            "throughput": {
                r["label"]: round(r["throughput"], 2) for r in runs
            },
            "flushes": {r["label"]: r["flushes"] for r in runs},
        },
        claim=verdict,
        db=size16["db"],
    )
    assert verdict["verdict"] == "pass", verdict["checks"]
    return by_label, chaos


if __name__ == "__main__":
    scenario()
