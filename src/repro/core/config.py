"""Engine configuration: the knobs the experiments turn."""

from repro.common import ReproError

AGGREGATE_STRATEGIES = ("escrow", "xlock")
MAINTENANCE_MODES = ("immediate", "commit_fold", "deferred")
COUNTER_LOGGING = ("logical", "physical")
GROUP_COMMIT_POLICIES = (None, "size", "latency")
SALVAGE_POLICIES = ("report", "strict")


class EngineConfig:
    """Immutable-ish configuration bundle for a Database.

    * ``aggregate_strategy`` — ``escrow`` (the paper) or ``xlock`` (the
      baseline every comparison runs against).
    * ``maintenance_mode`` — ``immediate`` / ``commit_fold`` / ``deferred``.
    * ``counter_logging`` — ``logical`` (escrow delta records) or
      ``physical`` (before/after images; exists to demonstrate why it is
      wrong under escrow, experiment R4). Only meaningful with the xlock
      strategy or in the R4 harness; the escrow strategy always logs
      logically because physical logging of escrow rows is unsound.
    * ``serializable`` — take key-range locks for phantom protection; off
      means plain key locks (repeatable read).
    * ``btree_order`` — fan-out of every index.
    * ``escalation_threshold`` — escalate a transaction's key locks on one
      index to a table lock past this count (``None`` disables, the
      default; SQL Server uses ~5000).
    * ``lock_wait_timeout`` — deny a lock request that has waited this
      many logical ticks with ``LockTimeoutError`` (``None`` disables,
      the default). Only cooperative (simulator) waiters can wait, so
      only they can time out; the no-wait policy already denies at once.
    * ``retry_backoff_base`` / ``retry_backoff_cap`` — the exponential
      backoff schedule of ``Session.run``: attempt *n*
      sleeps ``min(cap, base * 2**(n-1))`` plus seeded jitter in
      ``[0, base]``, all in logical ticks (see ``docs/ROBUSTNESS.md``).
    * ``retry_seed`` — seed of the jitter stream, one per database
      instance and shared by all its sessions, so retry schedules are
      deterministic: same seed, same ``txn_retry`` trace.
    * ``group_commit`` — batch COMMIT-record flushes across transactions:
      ``None``/``"off"`` forces one flush per commit (the WAL commit
      rule, today's default); ``"size"`` flushes once the open commit
      group reaches ``group_commit_size`` members; ``"latency"`` flushes
      when the group has been open ``group_commit_latency`` logical ticks
      (the simulator fires the deadline). With grouping on, a committed
      transaction is *commit-visible* immediately (locks released at
      commit-record append) but *durable* only once its group's flush
      completes — see ``docs/ARCHITECTURE.md``.
    * ``group_commit_size`` — members per group under the size policy
      (also the cap under the latency policy).
    * ``group_commit_latency`` — ticks a group may stay open under the
      latency policy before the flush deadline fires.
    * ``sanitizers`` — attach the :mod:`repro.analysis` protocol
      sanitizers (2PL, WAL rule, conflict serializability) as live
      observers of the trace stream. Enables the tracer on all
      categories; collect findings via ``db.sanitizers.check()``. See
      ``docs/ANALYSIS.md``.
    * ``wal_checksums`` — stamp a CRC on every log record as it becomes
      durable, so recovery's salvage pass can detect a corrupted durable
      stream and truncate at it. ``False`` is the negative control for
      salvage honesty: corruption then flows into recovery undetected
      and must be caught by the integrity checker instead.
    * ``salvage_policy`` — what recovery does when salvage finds that
      *committed* work fell past the truncation point: ``"report"``
      (default) completes recovery and enumerates the loss in
      ``RecoveryReport.salvage``; ``"strict"`` raises
      :class:`~repro.common.errors.WalCorruptionError` instead of
      silently serving a state missing committed transactions.
    * ``checkpoint_interval`` — take a checkpoint automatically
      every N commits (``None`` disables, the default). A
      checkpoint writes back the leaves that stayed dirty since the
      previous one, then logs the active-transaction table plus the
      dirty-page table — no data snapshot; recovery's redo window
      shrinks to ``min(recLSN)`` instead of the whole log (see
      ``docs/STORAGE.md``).
    * ``buffer_pool_frames`` — the cap on dirty B-tree leaves (>= 2).
      Past it the least recently dirtied leaf is written back, after
      the WAL is forced to its pageLSN (WAL-before-write).
    * ``page_size`` — bytes per leaf image (a leaf whose entries need
      more gets one right-sized image).
    * ``wal_segment_bytes`` — byte budget per on-disk WAL segment for
      ``dump_wal_segments`` (a segment always holds >= 1 record).
    """

    def __init__(
        self,
        aggregate_strategy="escrow",
        maintenance_mode="immediate",
        counter_logging="logical",
        serializable=True,
        btree_order=32,
        escalation_threshold=None,
        lock_wait_timeout=None,
        retry_backoff_base=4,
        retry_backoff_cap=64,
        retry_seed=77,
        group_commit=None,
        group_commit_size=8,
        group_commit_latency=16,
        sanitizers=False,
        wal_checksums=True,
        salvage_policy="report",
        checkpoint_interval=None,
        buffer_pool_frames=64,
        page_size=4096,
        wal_segment_bytes=32768,
    ):
        if aggregate_strategy not in AGGREGATE_STRATEGIES:
            raise ReproError(f"unknown aggregate_strategy {aggregate_strategy!r}")
        if maintenance_mode not in MAINTENANCE_MODES:
            raise ReproError(f"unknown maintenance_mode {maintenance_mode!r}")
        if counter_logging not in COUNTER_LOGGING:
            raise ReproError(f"unknown counter_logging {counter_logging!r}")
        self.aggregate_strategy = aggregate_strategy
        self.maintenance_mode = maintenance_mode
        self.counter_logging = counter_logging
        self.serializable = serializable
        self.btree_order = btree_order
        if escalation_threshold is not None and escalation_threshold < 1:
            raise ReproError("escalation_threshold must be >= 1 (or None)")
        self.escalation_threshold = escalation_threshold
        if lock_wait_timeout is not None and lock_wait_timeout < 1:
            raise ReproError("lock_wait_timeout must be >= 1 tick (or None)")
        self.lock_wait_timeout = lock_wait_timeout
        if retry_backoff_base < 1:
            raise ReproError("retry_backoff_base must be >= 1")
        if retry_backoff_cap < retry_backoff_base:
            raise ReproError("retry_backoff_cap must be >= retry_backoff_base")
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self.retry_seed = retry_seed
        if group_commit == "off":
            group_commit = None
        if group_commit not in GROUP_COMMIT_POLICIES:
            raise ReproError(f"unknown group_commit policy {group_commit!r}")
        if group_commit_size < 1:
            raise ReproError("group_commit_size must be >= 1")
        if group_commit_latency < 1:
            raise ReproError("group_commit_latency must be >= 1 tick")
        self.group_commit = group_commit
        self.group_commit_size = group_commit_size
        self.group_commit_latency = group_commit_latency
        self.sanitizers = bool(sanitizers)
        self.wal_checksums = bool(wal_checksums)
        if salvage_policy not in SALVAGE_POLICIES:
            raise ReproError(f"unknown salvage_policy {salvage_policy!r}")
        self.salvage_policy = salvage_policy
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ReproError("checkpoint_interval must be >= 1 (or None)")
        self.checkpoint_interval = checkpoint_interval
        if buffer_pool_frames < 2:
            raise ReproError("buffer_pool_frames must be >= 2")
        self.buffer_pool_frames = buffer_pool_frames
        from repro.storage.pages import MAX_PAGE_SIZE, MIN_PAGE_SIZE

        if not MIN_PAGE_SIZE <= page_size <= MAX_PAGE_SIZE:
            raise ReproError(
                f"page_size must be in [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )
        self.page_size = page_size
        if wal_segment_bytes < 1024:
            raise ReproError("wal_segment_bytes must be >= 1024")
        self.wal_segment_bytes = wal_segment_bytes

    #: every constructor parameter, stored under the identical attribute
    #: name — what :meth:`clone` copies.
    _FIELDS = (
        "aggregate_strategy", "maintenance_mode", "counter_logging",
        "serializable", "btree_order", "escalation_threshold",
        "lock_wait_timeout", "retry_backoff_base", "retry_backoff_cap",
        "retry_seed", "group_commit", "group_commit_size",
        "group_commit_latency", "sanitizers", "wal_checksums",
        "salvage_policy", "checkpoint_interval", "buffer_pool_frames",
        "page_size", "wal_segment_bytes",
    )

    def clone(self, **overrides):
        """A fresh config with the same knobs, selected ones overridden —
        how :class:`~repro.dist.ShardedDatabase` stamps out one identical
        (but independent) config per partition engine. Re-runs all
        constructor validation.

        >>> EngineConfig(btree_order=8).clone(retry_seed=5).btree_order
        8
        """
        kwargs = {name: getattr(self, name) for name in self._FIELDS}
        unknown = set(overrides) - set(self._FIELDS)
        if unknown:
            raise ReproError(f"unknown EngineConfig fields {sorted(unknown)!r}")
        kwargs.update(overrides)
        return EngineConfig(**kwargs)

    def __repr__(self):
        return (
            f"EngineConfig(strategy={self.aggregate_strategy}, "
            f"mode={self.maintenance_mode}, logging={self.counter_logging}, "
            f"serializable={self.serializable})"
        )
