"""The alternating-pairs driver (``benchmarks/pairs.py``): its flip
schedule and its verdict rule, on synthetic numbers. The measuring itself
is ``benchmarks/perf/run.py``'s and is tested there."""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

import pairs  # noqa: E402

LATENCY = {"name": "scan_p50_us", "unit": "us", "better": "lower",
           "bound": 0.25}
RATE = {"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
WAL = {"name": "wal_bytes_per_txn", "unit": "bytes", "better": "lower",
       "bound": 0.03}

STEADY = [500.0, 502.0, 498.0, 501.0, 499.0, 503.0, 497.0, 500.0, 504.0, 496.0]


class TestFlipSchedule:
    def test_first_side_flips_every_pair(self):
        for workload in range(6):
            firsts = [pairs.first_side(p, workload) for p in range(10)]
            assert firsts.count("parent") == firsts.count("change") == 5
            assert all(a != b for a, b in zip(firsts, firsts[1:]))

    def test_first_side_alternates_across_the_workloads_of_a_pair(self):
        for pair in range(10):
            firsts = [pairs.first_side(pair, w) for w in range(6)]
            assert all(a != b for a, b in zip(firsts, firsts[1:]))

    def test_the_very_first_run_is_the_parents(self):
        assert pairs.first_side(0, 0) == "parent"
        assert pairs.first_side(1, 0) == "change"


class TestVerdicts:
    def test_a_clear_gain_is_ok_and_the_claim_is_met(self):
        row = pairs.judge(LATENCY, STEADY, [v * 0.6 for v in STEADY])
        assert row["verdict"] == "ok"
        assert row["pairs_change_better"] == 10 and row["pairs_tied"] == 0
        assert row["change_over_parent"] == 0.6
        assert pairs.claim_met(row)
        assert pairs.claim_met(row, at_most=0.75)
        assert not pairs.claim_met(row, at_most=0.5)

    def test_eight_of_ten_pairs_is_not_a_gain(self):
        change = [v * 0.6 for v in STEADY]
        change[0], change[1] = STEADY[0] + 1, STEADY[1] + 1
        row = pairs.judge(LATENCY, STEADY, change)
        assert row["pairs_change_better"] == 8
        assert not pairs.claim_met(row)

    def test_ties_count_for_neither_side(self):
        change = [v * 0.6 for v in STEADY]
        change[0], change[1] = STEADY[0], STEADY[1]
        row = pairs.judge(LATENCY, STEADY, change)
        assert row["pairs_tied"] == 2 and row["pairs_change_better"] == 8
        assert not pairs.claim_met(row)

    def test_a_gap_inside_the_parents_own_spread_is_not_a_gain(self):
        wide = [400.0, 600.0, 450.0, 550.0, 420.0, 580.0, 440.0, 560.0,
                470.0, 530.0]
        row = pairs.judge(LATENCY, wide, [v - 5 for v in wide])
        assert row["pairs_change_better"] == 10
        assert abs(row["change_median"] - row["parent_median"]) \
            < row["parent_iqr"]
        assert not pairs.claim_met(row)

    def test_worse_by_more_than_the_bound(self):
        assert pairs.judge(
            LATENCY, STEADY, [v * 1.3 for v in STEADY]
        )["verdict"] == "worse"
        assert pairs.judge(
            LATENCY, STEADY, [v * 1.2 for v in STEADY]
        )["verdict"] == "ok"

    def test_higher_is_better_reads_the_other_way(self):
        row = pairs.judge(RATE, STEADY, [v * 0.7 for v in STEADY])
        assert row["verdict"] == "worse"
        row = pairs.judge(RATE, STEADY, [v * 1.5 for v in STEADY])
        assert row["verdict"] == "ok" and row["pairs_change_better"] == 10
        assert pairs.claim_met(row)
        assert not pairs.claim_met(row, at_most=0.5)  # needs x2

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wild = [100.0, 900.0, 150.0, 800.0, 120.0, 850.0, 500.0, 480.0,
                520.0, 510.0]
        assert pairs.judge(LATENCY, wild, wild)["verdict"] == "unresolved"

    def test_an_exact_metric_may_only_move_to_its_better_side_everywhere(self):
        same = [1061.3673] * 10
        row = pairs.judge(WAL, same, list(same))
        assert row["verdict"] == "ok" and row["exact_identical"] is True
        moved = list(same)
        moved[3] -= 0.35  # better in one pair, tied in nine: mixed
        row = pairs.judge(WAL, same, moved)
        assert row["verdict"] == "worse (exact metric differs)"
        assert row["exact_identical"] is False
        # worse-side in every pair, far inside the 3 % bound: still flagged
        row = pairs.judge(WAL, same, [v + 0.35 for v in same])
        assert row["verdict"] == "worse (exact metric differs)"
        # a declared drop — better in every pair — is ok and claimable
        row = pairs.judge(WAL, same, [v * 0.36 for v in same])
        assert row["verdict"] == "ok" and row["exact_identical"] is False
        assert row["pairs_change_better"] == 10
        assert pairs.claim_met(row, at_most=0.50)
        assert not pairs.claim_met(row, at_most=0.30)

    def test_exact_metrics_are_direction_aware_for_higher_is_better_too(self):
        sim = {"name": "sim_txn_per_ktick", "unit": "count",
               "better": "higher", "bound": 0.2}
        same = [1000.0] * 10
        assert pairs.judge(sim, same, [v + 1 for v in same])["verdict"] == "ok"
        assert pairs.judge(
            sim, same, [v - 1 for v in same]
        )["verdict"] == "worse (exact metric differs)"
