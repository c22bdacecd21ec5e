"""Cross-partition conservation oracle.

The single-engine integrity checker proves each partition's views
against that partition's base rows. This module proves the *fleet-level*
invariant the lossy-network tests lean on: for every aggregate view, the
per-partition sub-counter rows **fold to exactly the aggregate of the
union of base rows** across the same partitions. Escrow deltas lost on a
crashed partition, applied twice on resolution, or leaked between
partitions all break this fold — it is the distributed analogue of the
paper's conservation argument for escrow counters.

The check is sound even while branches sit in doubt: a prepared branch's
deltas are on the base rows *and* the view sub-counters of the same
partition (redo repeats history for both), so the fold and the recompute
move together. What the oracle catches is the failure mode 2PC exists to
prevent — one side of a global transaction applied without the other.
"""


def check_conservation(sharded, views=None):
    """Diff every aggregate view's folded sub-counters against a
    recompute over the union of base rows, across all *up* partitions of
    a :class:`~repro.dist.sharded.ShardedDatabase`. Returns a list of
    problem strings (empty = conserved)."""
    problems = []
    down = set(sharded.down_partitions())
    for name, view in sorted(sharded._views.items()):
        if views is not None and name not in views:
            continue
        if view.count_column is None:  # not an aggregate: nothing folds
            continue
        expected = view.recompute(lambda table: [
            row
            for pid, engine in enumerate(sharded._engines) if pid not in down
            for row in engine.index(table).rows()
        ])
        actual = sharded.scan_folded(name)
        for key in sorted(set(expected) | set(actual), key=repr):
            want, got = expected.get(key), actual.get(key)
            if want == got:
                continue
            problems.append(
                f"view {name!r} group {key!r}: folded {dict(got) if got else None} "
                f"!= recomputed {dict(want) if want else None}"
            )
    return problems
