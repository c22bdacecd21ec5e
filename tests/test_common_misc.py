"""Remaining common-layer surfaces: clock, prefix ranges, net deltas."""

import pytest

from repro.common import KeyRange, LogicalClock, ReproError
from repro.common.keys import NEG_INF, POS_INF
from repro.views.delta import NetDelta, TxnViewDeltas


class TestLogicalClock:
    def test_tick_and_now(self):
        c = LogicalClock()
        assert c.now() == 0
        assert c.tick() == 1
        assert c.tick(5) == 6
        assert c.now() == 6

    def test_start_offset(self):
        assert LogicalClock(start=100).now() == 100

    def test_negative_tick_rejected(self):
        with pytest.raises(ReproError):
            LogicalClock().tick(-1)

    def test_advance_to_never_goes_back(self):
        c = LogicalClock()
        c.tick(10)
        assert c.advance_to(5) == 10
        assert c.advance_to(20) == 20


class TestPrefixRanges:
    def test_single_column_prefix(self):
        r = KeyRange.prefix((7,), 2)
        assert r.contains((7, 0))
        assert r.contains((7, "zzz"))
        assert not r.contains((6, 99))
        assert not r.contains((8, 0))

    def test_full_length_prefix_is_point_like(self):
        r = KeyRange.prefix((1, 2), 2)
        assert r.contains((1, 2))
        assert not r.contains((1, 3))

    def test_prefix_longer_than_arity_rejected(self):
        with pytest.raises(ReproError):
            KeyRange.prefix((1, 2, 3), 2)

    def test_empty_prefix_covers_everything(self):
        r = KeyRange.prefix((), 2)
        assert r.contains((0, 0))
        assert r.contains(("z", "z"))

    def test_sentinels_bound_the_range(self):
        r = KeyRange.prefix((5,), 2)
        assert r.low.key == (5, NEG_INF)
        assert r.high.key == (5, POS_INF)


class TestNetDelta:
    def test_add_and_items(self):
        net = NetDelta("v")
        net.add(("a",), {"n": 1, "t": 5})
        net.add(("a",), {"n": 1, "t": 3})
        net.add(("b",), {"n": 1, "t": 2})
        items = dict(net.items())
        assert items[("a",)] == {"n": 2, "t": 8}
        assert items[("b",)] == {"n": 1, "t": 2}

    def test_canceling_deltas_vanish(self):
        net = NetDelta("v")
        net.add(("a",), {"n": 1, "t": 5})
        net.add(("a",), {"n": -1, "t": -5})
        assert list(net.items()) == []
        assert net.is_empty()

    def test_items_sorted_by_group_key(self):
        net = NetDelta("v")
        net.add(("z",), {"n": 1})
        net.add(("a",), {"n": 1})
        assert [k for k, _ in net.items()] == [("a",), ("z",)]

    def test_merge(self):
        a, b = NetDelta("v"), NetDelta("v")
        a.add(("g",), {"n": 1})
        b.add(("g",), {"n": 2})
        b.add(("h",), {"n": 1})
        a.merge(b)
        items = dict(a.items())
        assert items[("g",)] == {"n": 3}
        assert items[("h",)] == {"n": 1}

    def test_new_columns_via_add(self):
        net = NetDelta("v")
        net.add(("g",), {"n": 1})
        net.add(("g",), {"t": 7})
        assert dict(net.items())[("g",)] == {"n": 1, "t": 7}

    def test_len_and_repr(self):
        net = NetDelta("v")
        net.add(("g",), {"n": 0})
        assert len(net) == 1  # zero groups count until filtered by items()
        assert "v" in repr(net)


class TestTxnViewDeltas:
    class FakeTxn:
        def __init__(self):
            self.scratch = {}

    def test_lazy_creation(self):
        txn = self.FakeTxn()
        net = TxnViewDeltas.for_view(txn, "v")
        assert TxnViewDeltas.for_view(txn, "v") is net
        assert TxnViewDeltas.of(txn) == {"v": net}

    def test_clear(self):
        txn = self.FakeTxn()
        TxnViewDeltas.for_view(txn, "v")
        TxnViewDeltas.clear(txn)
        assert TxnViewDeltas.SCRATCH_KEY not in txn.scratch

    def test_separate_views_separate_nets(self):
        txn = self.FakeTxn()
        a = TxnViewDeltas.for_view(txn, "a")
        b = TxnViewDeltas.for_view(txn, "b")
        assert a is not b
