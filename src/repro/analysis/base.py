"""Sanitizer plumbing: violations, the checker base class, the suite.

Sanitizers are *observers* of the :mod:`repro.obs` event stream. They
never change engine behaviour; they accumulate :class:`Violation`
objects that a harness (the crash machine, a test) collects
via :meth:`SanitizerSuite.check`. Events may be live
:class:`~repro.obs.events.Event` objects (the tracer's listener hook) or
plain dicts (a replayed ``Event.as_dict()`` stream, or one written by
hand in a test).
"""


class Violation:
    """One protocol violation found by a sanitizer."""

    __slots__ = ("rule", "message", "txn_id", "seq")

    def __init__(self, rule, message, txn_id=None, seq=None):
        self.rule = rule
        self.message = message
        self.txn_id = txn_id
        self.seq = seq

    def __str__(self):
        where = ""
        if self.txn_id is not None:
            where += f" txn={self.txn_id}"
        if self.seq is not None:
            where += f" seq={self.seq}"
        return f"[{self.rule}]{where}: {self.message}"

    def __repr__(self):
        return f"Violation({self})"


def _freeze(value):
    """Make a (possibly JSON-round-tripped) field value hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value


def _normalize(event):
    """``(name, txn_id, seq, fields)`` from an Event or a dict."""
    if isinstance(event, dict):
        return (
            event.get("name"),
            event.get("txn_id"),
            event.get("seq"),
            event.get("fields") or {},
        )
    return event.name, event.txn_id, event.seq, event.fields


class Sanitizer:
    """Base class: dispatches events to ``on_<event_name>`` handlers.

    ``self.violations`` accumulates streaming findings; :meth:`finish`
    returns end-of-history findings and must be idempotent (harnesses
    call :meth:`SanitizerSuite.check` after every phase).
    """

    rule = "sanitizer"

    def __init__(self):
        self.violations = []

    def report(self, message, txn_id=None, seq=None):
        self.violations.append(Violation(self.rule, message, txn_id, seq))

    def observe(self, event):
        name, txn_id, seq, fields = _normalize(event)
        handler = getattr(self, "on_" + name, None) if name else None
        if handler is not None:
            handler(txn_id, seq, fields)

    def notice_crash(self, flushed_lsn):
        """The simulated process died; volatile protocol state is gone.
        ``flushed_lsn`` is the durable boundary recovery found."""

    def notice_retraction(self, txn_ids):
        """A commit group was retracted: these commit-visible
        transactions were rolled back and never became durable."""

    def finish(self, assume_quiescent=False):
        """End-of-history checks; returns a fresh list of violations."""
        return []


class SanitizerSuite:
    """The three protocol checkers behind one observe/check interface.

    ``group_commit=True`` arms the documented exemption: commit-visible
    transactions may precede durability of their COMMIT record until the
    group flush settles them (retracted or lost members are excised from
    the committed history via :meth:`notice_retraction` /
    :meth:`notice_crash`).
    """

    def __init__(self, group_commit=False):
        # Imported here to keep repro.analysis.base importable on its own.
        from repro.analysis.serializability import SerializabilitySanitizer
        from repro.analysis.twopl import TwoPhaseLockingSanitizer
        from repro.analysis.walrule import WalRuleSanitizer

        self.group_commit = group_commit
        self.twopl = TwoPhaseLockingSanitizer()
        self.walrule = WalRuleSanitizer(group_commit=group_commit)
        self.serializability = SerializabilitySanitizer()
        self.checkers = (self.twopl, self.walrule, self.serializability)

    def observe(self, event):
        for checker in self.checkers:
            checker.observe(event)

    def notice_crash(self, flushed_lsn):
        # Commit-visible transactions whose COMMIT record was still in
        # the lost suffix are rolled back by recovery: excise them from
        # the committed history before resetting per-checker state.
        lost = self.walrule.lost_txns(flushed_lsn)
        if lost:
            self.serializability.mark_lost(lost)
        for checker in self.checkers:
            checker.notice_crash(flushed_lsn)

    def notice_retraction(self, txn_ids):
        self.serializability.mark_lost(txn_ids)
        for checker in self.checkers:
            checker.notice_retraction(txn_ids)

    def check(self, assume_quiescent=False):
        """All violations so far (streaming + end-of-history). Safe to
        call repeatedly; later calls see a superset of earlier ones."""
        out = []
        for checker in self.checkers:
            out.extend(checker.violations)
            out.extend(checker.finish(assume_quiescent=assume_quiescent))
        return out


def check_trace(events, group_commit=False, assume_quiescent=False):
    """Run every sanitizer post hoc over an event stream.

    ``events`` may mix :class:`~repro.obs.events.Event` objects and
    dicts (e.g. the output of ``Tracer.events()`` or a JSON-lines dump).
    """
    suite = SanitizerSuite(group_commit=group_commit)
    for event in events:
        suite.observe(event)
    return suite.check(assume_quiescent=assume_quiescent)
