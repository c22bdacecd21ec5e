"""Outside-in layer spans: wrappers the benchmark installs on the classes
of objects it can reach through the ``repro.api`` facade.

The engine has no in-program timers yet (``EngineConfig(profile=True)``
is a later issue), so the per-layer numbers come from here: every layer
boundary a facade object exposes gets a timing wrapper for the length of
one traced repetition, and is restored afterwards. A span is
``(name, layer, start, end, parent, request)``; a layer's *self time* is
its spans' duration minus the part their child spans cover.
"""

import inspect
import json
from time import perf_counter

#: span name for every LockManager entry point the engine or the
#: simulator drives; together they are ``locking.request_us``.
_LOCK_METHODS = ("request", "release", "release_all", "cancel_wait", "poll")

#: (method, span name, layer) on ``type(db)``.
_DATABASE_SPANS = (
    ("insert", "db.dml", "core"),
    ("update", "db.dml", "core"),
    ("delete", "db.dml", "core"),
    ("read", "db.read", "core"),
    ("read_exact", "db.read", "core"),
    ("read_committed", "db.read", "core"),
    ("scan", "db.read", "core"),
    ("lookup", "db.read", "core"),
    ("commit", "db.commit", "txn"),
    ("abort", "db.commit", "txn"),
    ("take_checkpoint", "db.checkpoint", "storage"),
    ("run_ghost_cleanup", "db.ghost_cleanup", "storage"),
    ("simulate_crash_and_recover", "db.recover", "wal"),
    ("dump_wal_segments", "db.segment_dump", "wal"),
    ("load_wal_segments_and_recover", "db.segment_load", "wal"),
)

_SESSION_SPANS = tuple(
    (m, "session.api", "core")
    for m in ("begin", "commit", "rollback", "insert", "update", "delete",
              "read", "read_exact", "scan", "lookup", "run")
) + (("execute", "session.execute", "sql"),)

_SHARDED_SPANS = tuple(
    (m, "dist.facade", "dist")
    for m in ("begin", "insert", "update", "delete", "read", "commit",
              "abort", "read_committed", "scan_folded", "crash_partition",
              "recover_partition")
) + (("read_folded", "dist.read_folded", "dist"),)


class SpanRecorder:
    """Keeps spans in memory; installs and removes the wrappers."""

    def __init__(self):
        #: ``[name, layer, start, end, parent index or -1, request]``
        self.spans = []
        #: set by the workload loop to the operation's index, so the
        #: spans of one request share an identifier
        self.request = None
        self._stack = []
        self._undo = []
        self._view_actions = set()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _timed(self, fn, name, layer):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def _timed_drained(self, fn, name, layer):
        """For generator methods (``Index.scan``/``rows``): run the
        iteration to the end inside the span, so the descent and leaf
        walk are charged to the layer that does them and not to whoever
        consumes the iterator. Every caller in the engine consumes these
        scans completely, so draining early changes no result."""
        drain = self._timed(lambda *a, **k: list(fn(*a, **k)), name, layer)
        return lambda *args, **kwargs: iter(drain(*args, **kwargs))

    def wrap(self, owner, attr, name, layer):
        """Replace ``owner.attr`` (a class's method or an instance's
        callable attribute) with a timing wrapper, remembering how to
        undo it. Attributes that do not exist are skipped, so one list
        of names serves engines with and without them."""
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            return
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod, property)):
            return
        maker = (
            self._timed_drained
            if inspect.isgeneratorfunction(original) else self._timed
        )
        self._replace(owner, attr, maker(original, name, layer))

    def _replace(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap_public(self, cls, name, layer):
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self.wrap(cls, attr, name, layer)

    def install(self, facade, engines, scheduler_cls=None, session_cls=None,
                calibration_cls=None):
        """Wrap every layer boundary reachable from ``facade`` (a
        ``Database`` or ``ShardedDatabase``) and its ``engines``."""
        db = engines[0]
        if calibration_cls is not None:
            # the benchmark's own kernel, so that no layer is charged it
            self.wrap(calibration_cls, "sample", "bench.kernel", "bench")
        for attr, name, layer in _DATABASE_SPANS:
            self.wrap(type(db), attr, name, layer)
        if session_cls is not None:
            for attr, name, layer in _SESSION_SPANS:
                self.wrap(session_cls, attr, name, layer)
        if scheduler_cls is not None:
            self.wrap(scheduler_cls, "run", "sim.run", "sim")
        self.wrap(type(db.log), "append", "wal.append", "wal")
        for attr in ("flush", "flush_for_writeback", "flush_no_faults"):
            self.wrap(type(db.log), attr, "wal.flush", "wal")
        for attr in _LOCK_METHODS:
            self.wrap(type(db.locks), attr, "lock.request", "locking")
        self.wrap(type(db.escalation), "acquire_plan", "lock.plan", "locking")
        self._wrap_maintenance(type(db.maintenance))
        self.wrap_public(type(db.index(db.index_names()[0])),
                         "index.op", "storage")
        for engine in engines:
            # A bound method captured its function when it was bound, so
            # the page mirror is wrapped per engine, on the attribute.
            self.wrap(engine.log, "append_listener", "mirror.apply", "storage")
        if facade is not db:
            for attr, name, layer in _SHARDED_SPANS:
                self.wrap(type(facade), attr, name, layer)
            self.wrap(type(facade.net), "request", "net.request", "dist")
            self.wrap(type(facade.net), "ping", "net.request", "dist")
            self.wrap_public(type(facade.coordinator), "dist.coordinator",
                             "dist")

    def _wrap_maintenance(self, cls):
        """``MaintenanceEngine.compile`` returns the view actions of one
        statement. Their ``apply`` runs later, from a module function no
        facade object owns, so the compile wrapper remembers which
        actions are view actions and wraps ``Action.apply`` the first
        time it sees the class."""
        timed = self._timed(cls.compile, "views.compile", "views")
        recorder = self

        def compile_and_tag(*args, **kwargs):
            actions = timed(*args, **kwargs)
            if actions:
                recorder._wrap_action_apply(type(actions[0]))
                recorder._view_actions.update(id(a) for a in actions)
            return actions

        self._replace(cls, "compile", compile_and_tag)

    def _wrap_action_apply(self, action_cls):
        if any(owner is action_cls for owner, _, _ in self._undo):
            return
        apply_fn = action_cls.apply
        timed = self._timed(apply_fn, "views.apply", "views")
        view_actions = self._view_actions

        def apply(action, db, txn):
            if id(action) in view_actions:
                view_actions.discard(id(action))
                return timed(action, db, txn)
            return apply_fn(action, db, txn)

        self._replace(action_cls, "apply", apply)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._view_actions.clear()

    # ------------------------------------------------------------------
    # reading the spans back
    # ------------------------------------------------------------------

    def mark(self):
        """Index of the next span; brackets a region of the run."""
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


_MISSING = object()


def self_times(spans, first=0, last=None):
    """Aggregate the spans in ``[first, last)``.

    Returns ``(by_name, by_layer, root_total)``: ``by_name[name]`` is
    ``[self seconds, calls, longest span]``, ``by_layer[layer]`` is self
    seconds, and ``root_total`` the summed duration of the spans that
    have no parent inside the region — the wall time the spans account
    for. Self times over all layers add up to ``root_total`` exactly.
    """
    last = len(spans) if last is None else last
    child_time = [0.0] * (last - first)
    root_total = 0.0
    for i in range(first, last):
        _, _, start, end, parent, _ = spans[i]
        if parent >= first:
            child_time[parent - first] += end - start
        else:
            root_total += end - start
    by_name, by_layer = {}, {}
    for i in range(first, last):
        name, layer, start, end, _, _ = spans[i]
        duration = end - start
        own = duration - child_time[i - first]
        entry = by_name.setdefault(name, [0.0, 0, 0.0])
        entry[0] += own
        entry[1] += 1
        entry[2] = max(entry[2], duration)
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return by_name, by_layer, root_total
