"""Deterministic message transport between the coordinator and partitions.

Every ``ShardedDatabase`` → partition interaction — DML routing, the
prepare and decide phases of 2PC, recovery probes, heartbeats — travels
through :class:`Network` as an :class:`Envelope` on a :class:`Channel`.
That gives chaos a place to stand: the ``net.*`` fault sites drop,
duplicate, reorder, and delay messages at the transport, and the layers
above must survive it.

Delivery semantics
------------------

The transport is at-least-once with seeded exponential backoff: a
request whose delivery (or reply) is lost times out and is retransmitted
with the *same* ``msg_id``, up to ``max_attempts``, emitting a
``net_retry`` event per retransmission. Exhausting the attempts raises
:class:`PartitionUnavailableError` (a retryable abort) after a
``net_gave_up`` event. Exactly-once *effects* are the endpoint's job:
:class:`PartitionEndpoint` keeps one table of messages already handled,
keyed by ``(gid, phase)`` for the once-per-transaction phases (always)
and by ``(msg_id, kind)`` for everything else (while faults are armed),
so a re-delivered ``prepare`` re-answers the original binding vote and a
re-delivered ``decide`` is a no-op.

The endpoint owns the partition's branch-transaction handles. They are
process state: a simulated partition crash (``SimulatedCrash`` escaping
a handler) resets the endpoint — branches and the handled-message table
are gone, exactly like the engine's volatile WAL tail — and recovery
rebuilds what matters from the engine's durable in-doubt registry.
"""

from repro.common.errors import (
    PartitionUnavailableError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.common.rng import DeterministicRng
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.txn.transaction import TxnState

#: Sentinel distinguishing "the request or its reply was lost" from any
#: real reply value (handlers always reply with a dict, but the sentinel
#: keeps the transport honest about it).
_TIMEOUT = object()

#: The coordinator's address on the network. Partitions are addressed by
#: partition id; the topology is a star, one channel per (COORD, pid)
#: pair, because partitions never talk to each other directly.
COORDINATOR = "coord"


class Envelope:
    """One message on the wire.

    ``msg_id`` is stable across retransmissions of the same logical
    request — that is what lets the receiver deduplicate. ``gid`` ties
    the message to a global transaction (``None`` for heartbeats),
    ``kind`` selects the endpoint handler, ``payload`` is the argument
    dict.
    """

    __slots__ = ("msg_id", "gid", "kind", "payload")

    def __init__(self, msg_id, gid, kind, payload):
        self.msg_id = msg_id
        self.gid = gid
        self.kind = kind
        self.payload = payload

    def __repr__(self):
        return f"Envelope(#{self.msg_id} {self.kind} gid={self.gid})"


class Channel:
    """A directed link between two network addresses.

    Tracks delivery counters and holds reordered messages: a message the
    ``net.reorder`` site parks here overtakes nothing — it is delivered
    *after* the next successful delivery on the same channel, late and
    out of order, where the endpoint's dedup tables must absorb it.
    """

    __slots__ = ("src", "dst", "sent", "delivered", "parked")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.sent = 0
        self.delivered = 0
        self.parked = []

    def __repr__(self):
        return f"Channel({self.src}->{self.dst} sent={self.sent})"


class Network:
    """Seeded, faultable request/reply transport.

    All randomness (retry jitter) comes from a :class:`DeterministicRng`
    and all time from the shared :class:`LogicalClock`, so a fault
    schedule replays identically for a given seed.
    """

    def __init__(self, clock, tracer=NULL_TRACER, faults=None, seed=0,
                 max_attempts=4, base_backoff=2, backoff_cap=16):
        self.clock = clock
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.backoff_cap = backoff_cap
        self._rng = DeterministicRng(seed)
        self._endpoints = {}
        self._channels = {}
        self._next_msg_id = 1
        self.messages = 0
        self.delivered = 0
        self.request_lost = 0
        self.reply_lost = 0
        self.duplicates = 0
        self.reordered = 0
        self.delayed = 0
        self.retries = 0
        self.gave_up = 0

    def register(self, pid, endpoint):
        """Attach a partition endpoint at address ``pid``."""
        self._endpoints[pid] = endpoint

    def endpoint(self, pid):
        return self._endpoints[pid]

    def _channel(self, src, dst):
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = Channel(src, dst)
        return channel

    # ------------------------------------------------------------------
    # request/reply

    def request(self, dst, kind, payload, *, gid=None, txn_id=None):
        """Send a request and wait for its reply, retrying on timeouts.

        Retransmissions reuse the envelope (same ``msg_id``) with
        exponential backoff on the logical clock. Raises
        :class:`PartitionUnavailableError` once ``max_attempts``
        transmissions have all timed out. Exceptions a handler raises
        (``TransactionAborted`` subclasses, ``SimulatedCrash``) are the
        reply — they propagate to the caller and are never retried.
        """
        envelope = Envelope(self._next_msg_id, gid, kind, payload)
        self._next_msg_id += 1
        channel = self._channel(COORDINATOR, dst)
        backoff = self.base_backoff
        attempt = 0
        while True:
            attempt += 1
            reply = self._transmit(channel, envelope, txn_id)
            if reply is not _TIMEOUT:
                return reply
            if attempt >= self.max_attempts:
                break
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "net_retry", txn_id=txn_id, kind=kind,
                    partition=dst, attempt=attempt, backoff=backoff,
                )
            self.clock.tick(backoff)
            backoff = min(backoff * 2, self.backoff_cap) + self._rng.randint(0, 1)
        self.gave_up += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "net_gave_up", txn_id=txn_id, kind=kind,
                partition=dst, attempts=attempt,
            )
        raise PartitionUnavailableError(gid, partition=dst)

    def ping(self, dst):
        """One-shot heartbeat probe: no retries, no backoff.

        A dropped ping is not an error to recover from — it *is* the
        signal the failure detector consumes. Returns ``True`` iff the
        probe round-tripped.
        """
        envelope = Envelope(self._next_msg_id, None, "ping", {})
        self._next_msg_id += 1
        channel = self._channel(COORDINATOR, dst)
        try:
            reply = self._transmit(channel, envelope, None)
        except TransactionAborted:
            return False
        return reply is not _TIMEOUT

    def _transmit(self, channel, envelope, txn_id):
        """One transmission attempt. Returns the reply or ``_TIMEOUT``.

        Fault sites fire in wire order: ``net.delay`` (latency, never
        loses anything), ``net.request_lost`` (dropped before delivery),
        ``net.reorder`` (parked, delivered late after the next success),
        then delivery, then ``net.duplicate`` (a second delivery the
        endpoint must absorb), then ``net.reply_lost`` (the handler ran
        — its effects stand — but the sender sees a timeout).
        """
        channel.sent += 1
        self.messages += 1
        faults = self.faults
        detail = f"{envelope.kind}:{channel.dst}"
        if faults.active:
            spec = faults.fires("net.delay", txn_id=txn_id, detail=detail)
            if spec is not None:
                self.delayed += 1
                self.clock.tick(spec.delay)
            if faults.fires("net.request_lost", txn_id=txn_id, detail=detail) is not None:
                self.request_lost += 1
                return _TIMEOUT
            if faults.fires("net.reorder", txn_id=txn_id, detail=detail) is not None:
                self.reordered += 1
                channel.parked.append(envelope)
                return _TIMEOUT
        reply = self._deliver(channel, envelope)
        if faults.active:
            if faults.fires("net.duplicate", txn_id=txn_id, detail=detail) is not None:
                self.duplicates += 1
                self._deliver(channel, envelope)
            self._flush_parked(channel)
            if faults.fires("net.reply_lost", txn_id=txn_id, detail=detail) is not None:
                self.reply_lost += 1
                return _TIMEOUT
        return reply

    def _deliver(self, channel, envelope):
        channel.delivered += 1
        self.delivered += 1
        return self._endpoints[channel.dst].handle(envelope)

    def _flush_parked(self, channel):
        """Deliver reordered messages late, after a fresher delivery.

        Late deliveries have no waiting sender: an abort reply from one
        is dropped on the floor, exactly like a reply to a timed-out
        request.
        """
        while channel.parked:
            late = channel.parked.pop(0)
            try:
                self._deliver(channel, late)
            except TransactionAborted:
                pass

    def stats(self):
        absorbed = sum(ep.dedup_absorbed for ep in self._endpoints.values()
                       if isinstance(ep, PartitionEndpoint))
        return {
            "messages": self.messages,
            "delivered": self.delivered,
            "request_lost": self.request_lost,
            "reply_lost": self.reply_lost,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "dedup_absorbed": absorbed,
        }


#: message kinds a global transaction sends a partition at most once in
#: effect: their reply is binding and is remembered under the gid.
_ONCE_PER_GID = frozenset({"prepare", "decide"})


class PartitionEndpoint:
    """The partition-side message handler.

    Owns the branch-transaction handles for its engine (``gid`` → live
    transaction) and the one idempotency table that makes re-delivered
    messages harmless: ``_handled`` maps ``(gid, phase)`` for ``prepare``
    / ``decide`` — always, the vote and the decision are binding — and
    ``(msg_id, kind)`` for every other message — only while faults are
    armed, so fault-free runs carry no unbounded table — to the reply
    already given. A re-delivery gets that reply again and nothing runs
    twice.

    All of it is volatile: a simulated crash wipes the endpoint along
    with the engine's in-memory state.
    """

    def __init__(self, pid, engine):
        self.pid = pid
        self.engine = engine
        self.faults = NULL_INJECTOR
        self.dedup_absorbed = 0
        self._branches = {}
        self._handled = {}

    # ------------------------------------------------------------------
    # lifecycle

    def _reset(self):
        self._branches.clear()
        self._handled.clear()

    def crash(self):
        """Operator-initiated crash: engine loses its volatile WAL tail,
        the endpoint loses its process state."""
        self.engine.log.crash()
        self._reset()

    def recover(self):
        """Restart the partition process and run engine recovery."""
        report = self.engine.simulate_crash_and_recover()
        self._reset()
        return report

    # ------------------------------------------------------------------
    # dispatch

    def handle(self, envelope):
        once = envelope.kind in _ONCE_PER_GID
        key = (envelope.gid if once else envelope.msg_id, envelope.kind)
        reply = self._handled.get(key)
        if reply is not None:
            self.dedup_absorbed += 1
            return reply
        try:
            reply = self._handlers[envelope.kind](self, envelope)
        except SimulatedCrash:
            self._reset()
            raise
        if once or self.faults.active:
            self._handled[key] = reply
        return reply

    def _prepared(self, gid):
        """True once this incarnation voted yes on ``gid``."""
        return self._handled.get((gid, "prepare"), {}).get("vote", False)

    def _handle_op(self, envelope):
        payload = envelope.payload
        txn = self._branches.get(envelope.gid)
        if txn is None:
            txn = self._branches[envelope.gid] = self.engine.begin()
        op = payload["op"]
        if op == "insert":
            result = self.engine.insert(txn, payload["table"], payload["values"])
        elif op == "update":
            result = self.engine.update(
                txn, payload["table"], payload["key"], payload["changes"]
            )
        elif op == "delete":
            result = self.engine.delete(txn, payload["table"], payload["key"])
        else:
            result = self.engine.read(
                txn, payload["table"], payload["key"],
                for_update=payload.get("for_update", False),
            )
        return {"txn_id": txn.txn_id, "result": result}

    def _handle_prepare(self, envelope):
        gid = envelope.gid
        txn = self._branches.get(gid)
        if txn is None:
            # No work ever reached this partition under that gid —
            # nothing to make durable, vote no.
            return {"vote": False, "txn_id": None}
        if self.faults.active and self.faults.fires(
            "dist.partition_crash", txn_id=txn.txn_id,
            detail=f"prepare:{self.pid}",
        ) is not None:
            self.engine.log.crash()
            raise SimulatedCrash(f"dist.partition_crash prepare:{self.pid}")
        try:
            self.engine.participant.prepare(txn, gid)
        except TransactionAborted:
            return {"vote": False, "txn_id": txn.txn_id}
        return {"vote": True, "txn_id": txn.txn_id}

    def _handle_decide(self, envelope):
        gid = envelope.gid
        decision = envelope.payload["decision"]
        txn = self._branches.pop(gid, None)
        if (
            txn is not None
            and self._prepared(gid)
            and self.faults.active
            and self.faults.fires(
                "dist.partition_crash", txn_id=txn.txn_id,
                detail=f"decide:{self.pid}",
            ) is not None
        ):
            self.engine.log.crash()
            raise SimulatedCrash(f"dist.partition_crash decide:{self.pid}")
        via = "none"
        if txn is not None and txn.state is TxnState.ACTIVE:
            if decision == "commit":
                self.engine.settle(txn)
            else:
                self.engine.abort(txn, reason="2pc abort")
            via = "live"
        else:
            # The live handle is gone (partition restarted): look for an
            # engine-level in-doubt entry recovered from the WAL.
            in_doubt = self.engine.participant.in_doubt_transactions()
            txn_id = next(
                (t for t, g in sorted(in_doubt.items()) if g == gid), None
            )
            if txn_id is not None:
                self.engine.participant.resolve_in_doubt(txn_id, decision)
                via = "in_doubt"
        return {"via": via, "decision": decision}

    def _handle_commit(self, envelope):
        # Single-partition fast path: no coordinator, no prepare — just
        # the partition's own commit and WAL rule. The endpoint lets go
        # of the handle here, so a commit that fails aborts the branch.
        txn = self._branches.pop(envelope.gid, None)
        if txn is None:
            return {"committed": False, "txn_id": None}
        self.engine.settle(txn)
        return {"committed": True, "txn_id": txn.txn_id}

    def _handle_probe(self, envelope):
        """In-doubt report for coordinator recovery: every branch that
        voted yes and is still awaiting a decision, whether live
        (prepared this incarnation) or recovered from the WAL."""
        report = dict(self.engine.participant.in_doubt_transactions())
        for gid, txn in sorted(self._branches.items()):
            if self._prepared(gid) and txn.state is TxnState.ACTIVE:
                report[txn.txn_id] = gid
        return report

    def _handle_ping(self, envelope):
        return {"ok": True}

    _handlers = {
        "op": _handle_op,
        "prepare": _handle_prepare,
        "decide": _handle_decide,
        "commit": _handle_commit,
        "probe": _handle_probe,
        "ping": _handle_ping,
    }
