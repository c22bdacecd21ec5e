"""The WAL-rule sanitizer.

Invariants checked over the wal/txn event stream:

* **Monotone LSNs**: appended LSNs strictly increase. The two legal
  rewinds: a crash — the unflushed suffix is truncated and appends
  resume at ``flushed_lsn + 1`` (live harnesses signal this through
  :meth:`notice_crash`; post-hoc traces are recognized by the
  ``flushed + 1`` resumption point) — and a salvage truncation — a
  ``wal_salvage`` event announces that the durable prefix itself was
  cut at the first corrupt record, so the boundary regresses to
  ``truncated_lsn - 1`` and the commits past the cut are rolled back.
* **Flush sanity**: the durable boundary never regresses and never runs
  ahead of the append tail; a ``group_commit`` settlement never claims a
  boundary beyond what a flush established.
* **The WAL-before-write rule at the page boundary**: a dirty page
  image may reach the store only once the log is durable up to the
  page's ``page_lsn``. The buffer pool emits ``page_evicted`` *after*
  the write-back, so at that event the durable boundary must already
  cover the page — a violation means a data page could survive a crash
  carrying effects whose log records did not.
* **The WAL commit rule**: a transaction that appended any log record
  is commit-visible (``txn_commit``) only after its COMMIT record was
  appended — and, without group commit, only after that record was
  flushed. One that appended nothing has nothing to make durable and
  may commit with no record at all. With group
  commit the flush is deferred (the documented early-release exemption):
  the transaction is *pending durability* until a flush covers its
  COMMIT LSN; at quiescence (``finish(assume_quiescent=True)``) nothing
  may remain pending. Retracted or crash-lost group members are excused
  via :meth:`notice_retraction` / :meth:`notice_crash` — recovery rolled
  them back, so durability is no longer owed.
"""

from repro.analysis.base import Sanitizer, Violation


class WalRuleSanitizer(Sanitizer):
    rule = "wal"

    def __init__(self, group_commit=False):
        super().__init__()
        self.group_commit = group_commit
        self._last_lsn = 0
        self._flushed = 0
        self._logged = set()  # txns that appended any record
        self._commit_lsn = {}  # txn -> LSN of its COMMIT record
        self._pending = {}  # commit-visible txn -> COMMIT LSN awaiting flush

    # --------------------------------------------------------------- wal
    def on_wal_append(self, txn_id, seq, fields):
        lsn = fields.get("lsn")
        if lsn is None:
            return
        if lsn <= self._last_lsn:
            if lsn == self._flushed + 1:
                # Crash rewind: the unflushed suffix was truncated and
                # the log resumed at the durable boundary.
                self._rewind()
            else:
                self.report(
                    f"append LSN {lsn} not monotone (tail {self._last_lsn}, "
                    f"flushed {self._flushed})",
                    txn_id,
                    seq,
                )
        self._last_lsn = max(self._last_lsn, lsn)
        if txn_id is not None:
            self._logged.add(txn_id)
            if fields.get("record") == "CommitRecord":
                self._commit_lsn[txn_id] = lsn

    def on_wal_flush(self, txn_id, seq, fields):
        flushed = fields.get("flushed_lsn")
        if flushed is None:
            return
        if flushed < self._flushed:
            self.report(
                f"durable boundary regressed: {self._flushed} -> {flushed}",
                txn_id,
                seq,
            )
        if flushed > self._last_lsn:
            self.report(
                f"durable boundary {flushed} beyond the append tail "
                f"{self._last_lsn}",
                txn_id,
                seq,
            )
        self._flushed = max(self._flushed, flushed)
        self._pending = {
            txn: lsn for txn, lsn in self._pending.items() if lsn > self._flushed
        }

    def on_wal_salvage(self, txn_id, seq, fields):
        # The salvage pass truncated the *durable* log at the first
        # corrupt record: the boundary legally regresses to the cut and
        # every record past it (commits included) is gone. With
        # truncated_lsn None only an undecodable file tail was dropped —
        # it never made it into the loaded log, so nothing rewinds.
        cut = fields.get("truncated_lsn")
        if cut is None:
            return
        self._flushed = min(self._flushed, cut - 1)
        self._rewind()

    def on_page_evicted(self, txn_id, seq, fields):
        if not fields.get("dirty"):
            return  # clean eviction: no image was written
        page_lsn = fields.get("page_lsn")
        if page_lsn is not None and page_lsn > self._flushed:
            self.report(
                f"dirty page {fields.get('page_id')} written back at "
                f"page_lsn {page_lsn} beyond the durable boundary "
                f"{self._flushed} (WAL-before-write)",
                txn_id,
                seq,
            )

    def on_group_commit(self, txn_id, seq, fields):
        flushed = fields.get("flushed_lsn")
        if flushed is not None and flushed > self._flushed:
            self.report(
                f"group settled at LSN {flushed} beyond the durable "
                f"boundary {self._flushed}",
                txn_id,
                seq,
            )

    # --------------------------------------------------------------- txn
    def on_txn_commit(self, txn_id, seq, fields):
        if txn_id not in self._logged:
            return  # silent (or the wal category is not traced)
        lsn = self._commit_lsn.get(txn_id)
        if lsn is None:
            self.report(
                "commit-visible with no COMMIT record appended (WAL rule)",
                txn_id,
                seq,
            )
            return
        if lsn > self._flushed:
            if self.group_commit:
                self._pending[txn_id] = lsn
            else:
                self.report(
                    f"commit-visible before its COMMIT record (LSN {lsn}) "
                    f"was durable (flushed {self._flushed}); group commit "
                    f"is off, so the commit rule requires the flush first",
                    txn_id,
                    seq,
                )

    # ----------------------------------------------------------- hazards
    def lost_txns(self, flushed_lsn):
        """The transactions a crash whose durable boundary is
        ``flushed_lsn`` rolls back although they committed: their COMMIT
        record lies past it — under group commit, still pending
        durability."""
        return set(self._pending) | {
            txn for txn, lsn in self._commit_lsn.items() if lsn > flushed_lsn
        }

    def _rewind(self):
        self._last_lsn = self._flushed
        self._commit_lsn = {
            txn: lsn for txn, lsn in self._commit_lsn.items()
            if lsn <= self._flushed
        }
        self._pending = {}

    def notice_crash(self, flushed_lsn):
        # The log recovery reads is durable exactly to here, whatever
        # the trace showed: a log loaded from segment files was never
        # flushed in it at all.
        self._flushed = flushed_lsn
        self._rewind()

    def notice_retraction(self, txn_ids):
        for txn in txn_ids:
            self._pending.pop(txn, None)

    def finish(self, assume_quiescent=False):
        if self.group_commit and assume_quiescent and self._pending:
            return [
                Violation(
                    self.rule,
                    f"transactions {sorted(self._pending)} are commit-"
                    f"visible but never became durable (pending at "
                    f"quiescence)",
                )
            ]
        return []
