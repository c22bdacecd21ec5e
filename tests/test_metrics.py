"""Tests for counters, histograms, and table formatting."""

from repro.obs.metrics import Counters, Histogram, format_table


class TestCounters:
    def test_incr_and_get(self):
        c = Counters()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_as_dict_sorted(self):
        c = Counters()
        c.incr("z")
        c.incr("a")
        assert list(c.as_dict()) == ["a", "z"]

    def test_reset(self):
        c = Counters()
        c.incr("a")
        c.reset()
        assert c.get("a") == 0


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.mean() == 0.0
        assert h.percentile(50) == 0.0
        assert h.as_dict()["count"] == 0

    def test_empty_as_dict_reports_none_not_zero(self):
        d = Histogram().as_dict()
        assert d["min"] is None
        assert d["max"] is None
        assert d["p50"] is None
        assert d["p95"] is None

    def test_as_dict_observed_zero_is_reported_as_zero(self):
        # regression: `min_value or 0` turned a falsy-but-observed 0 into
        # the same value an empty histogram reported; guard on count
        h = Histogram()
        h.observe(0)
        d = h.as_dict()
        assert d["count"] == 1
        assert d["min"] == 0
        assert d["max"] == 0
        assert d["p50"] == 0

    def test_stats(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 100):
            h.observe(v)
        assert h.count == 5
        assert h.mean() == 22.0
        assert h.min_value == 1
        assert h.max_value == 100
        assert h.percentile(50) == 3
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_sample_limit(self):
        h = Histogram(sample_limit=10)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert len(h._sample) == 10


class TestFormatTable:
    def test_alignment_and_content(self):
        out = format_table(
            ["name", "value"],
            [["escrow", 12.5], ["xlock", 3.0]],
            title="R1",
        )
        lines = out.splitlines()
        assert lines[0] == "R1"
        assert "name" in lines[1]
        assert "escrow" in lines[3]
        assert "12.500" in lines[3]

    def test_numbers_right_aligned(self):
        out = format_table(["n"], [[1], [100]])
        lines = out.splitlines()
        assert lines[-1].endswith("100")
        assert lines[-2].endswith("  1")

    def test_handles_wide_cells(self):
        out = format_table(["x"], [["a-very-long-cell"]])
        assert "a-very-long-cell" in out
