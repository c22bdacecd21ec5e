"""Property: sharding is invisible to aggregates.

For any batch of base-table mutations, the per-partition sub-counter
rows of a ``ShardedDatabase`` fold to exactly the view a single
unsharded ``Database`` maintains for the same mutations — including
when a partition crashes and recovers mid-sequence. This is the paper's
escrow commutativity argument stretched across engines: partition-local
deltas commute, so where a delta lands cannot change what the fold
reads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Database, EngineConfig
from repro.dist import ShardedDatabase, check_conservation
from repro.query import AggregateSpec
from repro.views import AggregateView

BOUNDS = (50, 100, 150)
REGIONS = ("a", "b", "c")

# Unique ids spread over all four partitions; amounts cross zero so
# folds must survive cancellation; region is the group key, deliberately
# NOT the partitioning key, so every group can span partitions.
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=199),
        st.sampled_from(REGIONS),
        st.integers(min_value=-30, max_value=30),
    ),
    unique_by=lambda t: t[0],
    min_size=1,
    max_size=24,
)


def build_pair():
    sharded = ShardedDatabase(BOUNDS, EngineConfig(aggregate_strategy="escrow"))
    flat = Database(EngineConfig(aggregate_strategy="escrow"))
    for db in (sharded, flat):
        db.create_table("t", ("id", "region", "amount"), ("id",))
        db.create_view(AggregateView(
            "v",
            "t",
            ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount"),
             AggregateSpec.min_of("lo", "amount"),
             AggregateSpec.max_of("hi", "amount")],
        ))
    return sharded, flat


def assert_folds_match(sharded, flat):
    assert check_conservation(sharded) == []
    assert flat.check_all_views() == []
    for region in REGIONS:
        folded = sharded.read_folded("v", (region,))
        expected = flat.read_committed("v", (region,))
        if expected is None or expected["row_count"] == 0:
            assert folded is None
        else:
            for col in ("row_count", "total", "lo", "hi"):
                assert folded[col] == expected[col], (region, col)


@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy)
def test_fold_equals_unsharded(rows):
    sharded, flat = build_pair()
    for key, region, amount in rows:
        txn = sharded.begin()
        sharded.insert(txn, "t", {"id": key, "region": region,
                                  "amount": amount})
        sharded.commit(txn)
        with flat.session() as flat_s:
            flat_s.insert("t", {"id": key, "region": region,
                                "amount": amount})
    assert_folds_match(sharded, flat)


@settings(max_examples=20, deadline=None)
@given(
    rows=rows_strategy,
    crash_after=st.integers(min_value=0, max_value=23),
    crash_pid=st.integers(min_value=0, max_value=3),
)
def test_fold_survives_crash_recover_cycle(rows, crash_after, crash_pid):
    """Same equality with a partition crash/recover spliced into the
    sequence: the durable WAL plus ARIES recovery must hand back exactly
    the sub-counters the committed prefix built."""
    sharded, flat = build_pair()
    for i, (key, region, amount) in enumerate(rows):
        if i == crash_after % len(rows):
            sharded.crash_partition(crash_pid)
            report = sharded.recover_partition(crash_pid)
            assert report.in_doubt == set()
        txn = sharded.begin()
        sharded.insert(txn, "t", {"id": key, "region": region,
                                  "amount": amount})
        sharded.commit(txn)
        with flat.session() as flat_s:
            flat_s.insert("t", {"id": key, "region": region,
                                "amount": amount})
    assert_folds_match(sharded, flat)


@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy)
def test_cross_partition_moves_conserve(rows):
    """Pair every row with a mirror row of opposite amount on the far
    side of the key space, committed in one global transaction: every
    group's folded total must be exactly zero and match the unsharded
    engine row-for-row."""
    sharded, flat = build_pair()
    for key, region, amount in rows:
        mirror = 399 - key  # lands on a different partition than key
        txn = sharded.begin()
        sharded.insert(txn, "t", {"id": key, "region": region,
                                  "amount": amount})
        sharded.insert(txn, "t", {"id": mirror, "region": region,
                                  "amount": -amount})
        sharded.commit(txn)
        with flat.session() as flat_s:
            flat_s.insert("t", {"id": key, "region": region,
                                "amount": amount})
            flat_s.insert("t", {"id": mirror, "region": region,
                                "amount": -amount})
    assert_folds_match(sharded, flat)
    for region in REGIONS:
        folded = sharded.read_folded("v", (region,))
        assert folded is None or folded["total"] == 0
