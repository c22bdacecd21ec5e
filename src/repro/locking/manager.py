"""The lock manager: request queues, conversions, deadlock detection.

Resources are arbitrary hashable names; by convention the engine uses

* ``("table", name)`` — table-level intention locks,
* ``("key", index_name, key)`` — key/row locks, whose modes may be plain
  :class:`~repro.locking.modes.LockMode` or key-range
  :class:`~repro.locking.modes.RangeMode` pairs.

The manager is synchronous and non-blocking: :meth:`LockManager.request`
returns a :class:`LockRequest` whose status is ``GRANTED``, ``WAITING`` or
``DENIED``. Waiting is the *caller's* job — the discrete-event simulator
parks a transaction whose request is WAITING and resumes it when the
request is granted (or denied by deadlock victim selection). This keeps the
manager usable both from plain single-threaded code (no-wait policy) and
from the simulator (cooperative waiting), and keeps every interleaving
deterministic.

Deadlock handling: a waits-for graph is maintained incrementally. When a
request must wait, the manager searches for a cycle through the new edges;
if one exists, the youngest transaction on the cycle (highest id) is chosen
as victim. A victim that is itself waiting has its request DENIED and is
expected to abort; the requester is the victim if it is the youngest.

Fairness: a new request must also be compatible with *earlier waiting*
requests of other transactions, so writers cannot starve behind a stream of
compatible readers. Conversions of already-granted locks jump the queue
(standard, and required to avoid trivial conversion deadlocks).

What a transaction holds is one fact with one owner: the *held-lock
table* ``{resource: mode}`` of :meth:`LockManager.held_locks`, written at
exactly the places a resource's granted set is (grant, conversion, queue
grant, release) and kept in acquisition order, so locks are released —
and waiters woken — in the order they were taken, whatever the hash seed.
"""

import enum

from repro.common import (
    DeadlockError,
    FaultInjected,
    LockTimeoutError,
    TransactionStateError,
)
from repro.faults import NULL_INJECTOR
from repro.locking.modes import covers, mode_compatible, mode_supremum
from repro.obs.tracer import NULL_TRACER


class RequestStatus(enum.Enum):
    GRANTED = "granted"
    WAITING = "waiting"
    DENIED = "denied"


class LockRequest:
    """One transaction's pending or granted claim on a resource."""

    __slots__ = (
        "txn_id",
        "resource",
        "mode",
        "status",
        "is_conversion",
        "deny_error",
        "wait_started",
        "wait_deadline",
        "wake_at",
        "resolved_at",
    )

    def __init__(self, txn_id, resource, mode, is_conversion=False):
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.status = RequestStatus.WAITING
        self.is_conversion = is_conversion
        self.deny_error = None
        self.wait_started = None  # tick the wait began (timeout accounting)
        self.wait_deadline = None  # tick past which poll() denies the wait
        self.wake_at = None  # injected lock.delay: grantable no earlier
        self.resolved_at = None  # tick poll() granted/denied this request

    def __repr__(self):
        return (
            f"LockRequest(txn={self.txn_id}, resource={self.resource!r}, "
            f"mode={self.mode!r}, {self.status.value})"
        )


class _ResourceQueue:
    """Granted modes plus the FIFO wait queue for one resource."""

    __slots__ = ("granted", "waiting")

    def __init__(self):
        self.granted = {}  # txn_id -> mode, in grant order
        self.waiting = []  # list of LockRequest

    def is_idle(self):
        return not self.granted and not self.waiting


class LockStats:
    """Counters the benchmarks report."""

    __slots__ = (
        "requests",
        "covered",
        "immediate_grants",
        "waits",
        "conversions",
        "deadlocks",
        "denials",
        "timeouts",
    )

    def __init__(self):
        self.requests = 0  # calls that reached the queues
        self.covered = 0  # re-requests answered from the held-lock table
        self.immediate_grants = 0
        self.waits = 0
        self.conversions = 0
        self.deadlocks = 0
        self.denials = 0
        self.timeouts = 0

    def as_dict(self):
        return {
            "requests": self.requests,
            "covered": self.covered,
            "immediate_grants": self.immediate_grants,
            "waits": self.waits,
            "conversions": self.conversions,
            "deadlocks": self.deadlocks,
            "denials": self.denials,
            "timeouts": self.timeouts,
        }


class LockManager:
    """Grants, queues, converts, and releases locks; detects deadlocks."""

    def __init__(self, tracer=NULL_TRACER, clock=None, timeout=None,
                 faults=None):
        self._queues = {}
        self._held_by_txn = {}  # txn_id -> {resource: mode}, see held_locks
        self._waiting_request = {}  # txn_id -> LockRequest (at most one)
        self.stats = LockStats()
        self.contention = {}  # resource -> cumulative wait count
        self.tracer = tracer
        self.clock = clock  # needed for timeouts and injected delays
        self.timeout = timeout  # ticks a waiter may wait (None = forever)
        self.faults = faults if faults is not None else NULL_INJECTOR

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------

    def request(self, txn_id, resource, mode):
        """Ask for ``mode`` on ``resource``.

        Returns a :class:`LockRequest`; inspect ``status``. A DENIED
        result carries ``deny_error`` (a :class:`DeadlockError` naming the
        victim). At most one outstanding WAITING request per transaction
        is allowed — a transaction is a single thread of control.
        """
        if txn_id in self._waiting_request:
            raise TransactionStateError(
                f"transaction {txn_id} already has a waiting lock request"
            )
        self.stats.requests += 1
        queue = self._queues.get(resource)
        held = queue.granted.get(txn_id) if queue is not None else None
        delay_spec = None
        if self.faults.active:
            if self.faults.fires(
                "lock.deny", txn_id=txn_id, detail=repr(resource)
            ) is not None:
                # Spurious denial: the request never touches the queues,
                # so no cleanup beyond the caller's abort is needed.
                request = LockRequest(txn_id, resource, mode)
                request.status = RequestStatus.DENIED
                request.deny_error = FaultInjected("lock.deny", txn_id)
                self.stats.denials += 1
                return request
            if held is None:  # a conversion is never delayed
                delay_spec = self.faults.fires(
                    "lock.delay", txn_id=txn_id, detail=repr(resource)
                )

        if held is not None:
            if covers(held, mode):
                # Already covered; nothing to do.
                request = LockRequest(txn_id, resource, held, is_conversion=True)
                request.status = RequestStatus.GRANTED
                self.stats.immediate_grants += 1
                return request
            target = mode_supremum(held, mode)
            request = LockRequest(txn_id, resource, target, is_conversion=True)
            # Conversions jump the queue: only the holders can stop one.
            if self._grantable(queue, txn_id, target, ()):
                queue.granted[txn_id] = target
                self._held_by_txn[txn_id][resource] = target
                request.status = RequestStatus.GRANTED
                self.stats.immediate_grants += 1
                self.stats.conversions += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_acquire", txn_id=txn_id, resource=resource,
                        mode=target, conversion=True,
                    )
                return request
            # Conversions wait at the *front* of the queue.
            queue.waiting.insert(0, request)
            return self._begin_wait(request, queue)

        request = LockRequest(txn_id, resource, mode)
        if queue is None:
            # Nobody holds the resource and nobody waits for it: there is
            # nothing to be compatible with.
            queue = self._queues[resource] = _ResourceQueue()
            grantable = delay_spec is None
        else:
            grantable = delay_spec is None and self._grantable(
                queue, txn_id, mode, queue.waiting
            )
        if grantable:
            queue.granted[txn_id] = mode
            self.held_locks(txn_id)[resource] = mode
            request.status = RequestStatus.GRANTED
            self.stats.immediate_grants += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "lock_acquire", txn_id=txn_id, resource=resource,
                    mode=mode, conversion=False,
                )
            return request
        if delay_spec is not None:
            request.wake_at = (
                self.clock.now() if self.clock is not None else 0
            ) + delay_spec.delay
        queue.waiting.append(request)
        return self._begin_wait(request, queue)

    def grant_run(self, txn_id, resources, mode):
        """Take ``mode`` on the longest prefix of ``resources`` that needs
        no wait and return its length — held-table hits count as
        ``covered``, the rest as immediate grants, and no
        :class:`LockRequest` is made. The resource past the prefix is the
        caller's to :meth:`request`. With fault sites armed it grants
        nothing: each key goes to :meth:`request`, where ``lock.deny`` /
        ``lock.delay`` see it."""
        if self.faults.active or txn_id in self._waiting_request:
            return 0
        held = self._held_by_txn.get(txn_id) or self.held_locks(txn_id)
        queues = self._queues
        tracer = self.tracer if self.tracer.enabled else None
        taken = covered = 0
        for resource in resources:
            have = held.get(resource)
            if have is not None:
                if not covers(have, mode):
                    break
                covered += 1
            else:
                queue = queues.get(resource)
                if queue is None:
                    queue = queues[resource] = _ResourceQueue()
                elif not self._grantable(queue, txn_id, mode, queue.waiting):
                    break
                queue.granted[txn_id] = mode
                held[resource] = mode
                if tracer is not None:
                    tracer.emit(
                        "lock_acquire", txn_id=txn_id, resource=resource,
                        mode=mode, conversion=False,
                    )
            taken += 1
        stats = self.stats
        stats.requests += taken - covered
        stats.immediate_grants += taken - covered
        stats.covered += covered
        return taken

    def _grantable(self, queue, txn_id, mode, waiters):
        """The one "grant now?" test: ``mode`` is compatible with every
        other transaction's held mode and its request among ``waiters``
        (the whole queue for a new request, those ahead for a queued one,
        none for a conversion)."""
        for holder, held in queue.granted.items():
            if holder != txn_id and not mode_compatible(mode, held):
                return False
        for waiter in waiters:
            if waiter.txn_id != txn_id and not mode_compatible(
                mode, waiter.mode
            ):
                return False
        return True

    def _begin_wait(self, request, queue):
        self.stats.waits += 1
        self.contention[request.resource] = (
            self.contention.get(request.resource, 0) + 1
        )
        self._waiting_request[request.txn_id] = request
        if self.clock is not None:
            request.wait_started = self.clock.now()
            if self.timeout is not None:
                request.wait_deadline = request.wait_started + self.timeout
        if self.tracer.enabled:
            self.tracer.emit(
                "lock_wait", txn_id=request.txn_id,
                resource=request.resource, mode=request.mode,
            )
        victim = self._detect_deadlock(request.txn_id)
        if victim is not None:
            self.stats.deadlocks += 1
            cycle = self._cycle_through(victim)
            if victim == request.txn_id:
                self._remove_waiting(request)
                request.status = RequestStatus.DENIED
                request.deny_error = DeadlockError(victim, cycle)
                self.stats.denials += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_deny", txn_id=request.txn_id,
                        resource=request.resource, victim=victim, cycle=cycle,
                    )
                return request
            victim_request = self._waiting_request.get(victim)
            if victim_request is not None:
                self._remove_waiting(victim_request)
                victim_request.status = RequestStatus.DENIED
                victim_request.deny_error = DeadlockError(victim, cycle)
                self.stats.denials += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_deny", txn_id=victim,
                        resource=victim_request.resource, victim=victim,
                        cycle=cycle,
                    )
                # The victim's departure from the queue may unblock others
                # (it aborts next, releasing its locks, which grants more).
                self._grant_from_queue(self._queues[victim_request.resource])
                if request.status is RequestStatus.WAITING:
                    return request
        return request

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def release(self, txn_id, resource):
        """Release one lock; returns txn_ids whose requests got granted."""
        held = self._held_by_txn.get(txn_id)
        if held is None or resource not in held:
            return []
        del held[resource]
        queue = self._queues[resource]
        del queue.granted[txn_id]
        granted = self._grant_from_queue(queue)
        if queue.is_idle():
            del self._queues[resource]
        return granted

    def release_all(self, txn_id):
        """Release every lock of ``txn_id`` (commit/abort), in the order
        they were acquired. Cancels any waiting request. Returns txn_ids
        newly granted."""
        self.cancel_wait(txn_id)
        held = self._held_by_txn.pop(txn_id, None)
        if not held:
            return []
        queues = self._queues
        newly_granted = []
        for resource in held:
            queue = queues[resource]
            del queue.granted[txn_id]
            if queue.waiting:
                # whoever is left waits or was just granted: not idle
                newly_granted.extend(self._grant_from_queue(queue))
            elif not queue.granted:
                del queues[resource]
        count = len(held)
        # The transaction keeps a reference to this table; leave it
        # saying what is true.
        held.clear()
        if self.tracer.enabled:
            self.tracer.emit("lock_release", txn_id=txn_id, count=count)
        return newly_granted

    def cancel_wait(self, txn_id):
        """Withdraw ``txn_id``'s waiting request, if any."""
        request = self._waiting_request.get(txn_id)
        if request is None:
            return
        self._remove_waiting(request)
        request.status = RequestStatus.DENIED
        queue = self._queues.get(request.resource)
        if queue is not None:
            self._grant_from_queue(queue)
            if queue.is_idle():
                del self._queues[request.resource]

    def _remove_waiting(self, request):
        queue = self._queues.get(request.resource)
        if queue is not None and request in queue.waiting:
            queue.waiting.remove(request)
        if self._waiting_request.get(request.txn_id) is request:
            del self._waiting_request[request.txn_id]

    # ------------------------------------------------------------------
    # time-driven resolution (lock-wait timeouts, injected delays)
    # ------------------------------------------------------------------

    def poll(self, now):
        """Resolve every time-triggered state change due by ``now``:
        deny waiters past their ``lock_wait_timeout`` deadline (with
        :class:`LockTimeoutError`) and grant requests whose injected
        ``lock.delay`` elapsed. Returns newly granted txn_ids.

        The simulator calls this whenever it advances the clock to a
        deadline from :meth:`next_deadline`; plain callers never need
        to — the no-wait policy cannot produce waiting requests.
        """
        granted = []
        for request in list(self._waiting_request.values()):
            if request.status is not RequestStatus.WAITING:
                continue  # resolved by an earlier expiry's queue grant
            if request.wait_deadline is None or now < request.wait_deadline:
                continue
            self._remove_waiting(request)
            request.status = RequestStatus.DENIED
            request.deny_error = LockTimeoutError(
                request.txn_id, request.resource
            )
            request.resolved_at = now
            self.stats.timeouts += 1
            self.stats.denials += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "lock_timeout", txn_id=request.txn_id,
                    resource=request.resource,
                    waited=now - (request.wait_started or now),
                )
            queue = self._queues.get(request.resource)
            if queue is not None:
                granted.extend(self._grant_from_queue(queue, now=now))
                if queue.is_idle():
                    del self._queues[request.resource]
        for resource, queue in list(self._queues.items()):
            expired = [
                w for w in queue.waiting
                if w.wake_at is not None and w.wake_at <= now
            ]
            if not expired:
                continue
            for waiter in expired:
                waiter.wake_at = None
            granted.extend(self._grant_from_queue(queue, now=now))
            if queue.is_idle():
                del self._queues[resource]
        return granted

    def next_deadline(self):
        """The earliest future instant at which :meth:`poll` could change
        state (a wait deadline or an injected-delay expiry), or ``None``."""
        deadlines = []
        for request in self._waiting_request.values():
            if request.wait_deadline is not None:
                deadlines.append(request.wait_deadline)
            if request.wake_at is not None:
                deadlines.append(request.wake_at)
        return min(deadlines) if deadlines else None

    def _grant_from_queue(self, queue, now=None):
        """Grant queued requests in order while compatibility allows.

        ``now`` is passed by :meth:`poll` so time-triggered grants can
        stamp ``resolved_at`` (the simulator resumes the waiter then).
        """
        granted_txns = []
        progress = True
        while progress:
            progress = False
            for request in list(queue.waiting):
                if request.wake_at is not None:
                    # Still serving an injected delay: not grantable, and
                    # (FIFO) a barrier for later non-conversion requests.
                    if request.is_conversion:
                        continue
                    break
                ahead = () if request.is_conversion else queue.waiting[
                    :queue.waiting.index(request)
                ]
                if not self._grantable(
                    queue, request.txn_id, request.mode, ahead
                ):
                    # FIFO: do not let later requests jump an incompatible
                    # earlier one (conversions excepted, handled above by
                    # sitting at the queue front).
                    if request.is_conversion:
                        continue
                    break
                queue.waiting.remove(request)
                queue.granted[request.txn_id] = request.mode
                self.held_locks(request.txn_id)[request.resource] = request.mode
                request.status = RequestStatus.GRANTED
                if now is not None:
                    request.resolved_at = now
                if self._waiting_request.get(request.txn_id) is request:
                    del self._waiting_request[request.txn_id]
                granted_txns.append(request.txn_id)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_grant", txn_id=request.txn_id,
                        resource=request.resource, mode=request.mode,
                    )
                progress = True
        return granted_txns

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def held_locks(self, txn_id):
        """The live held-lock table ``{resource: mode}`` of ``txn_id``, in
        acquisition order — created on first use, updated wherever a
        grant is, emptied and dropped by :meth:`release_all`. Callers read
        it; only the manager writes it."""
        held = self._held_by_txn.get(txn_id)
        if held is None:
            held = self._held_by_txn[txn_id] = {}
        return held

    def held_mode(self, txn_id, resource):
        """The mode ``txn_id`` holds on ``resource``, or ``None``."""
        held = self._held_by_txn.get(txn_id)
        return held.get(resource) if held is not None else None

    def holders(self, resource):
        """Mapping txn_id -> mode of current holders of ``resource``."""
        queue = self._queues.get(resource)
        return dict(queue.granted) if queue is not None else {}

    def waiters(self, resource):
        queue = self._queues.get(resource)
        return list(queue.waiting) if queue is not None else []

    def locks_of(self, txn_id):
        """Snapshot of (resource, mode) pairs held by ``txn_id``."""
        return sorted(
            self._held_by_txn.get(txn_id, {}).items(),
            key=lambda held: repr(held[0]),
        )

    def waiting_for(self, txn_id):
        """The resource ``txn_id`` is waiting on, or ``None``."""
        request = self._waiting_request.get(txn_id)
        return request.resource if request is not None else None

    def active_resources(self):
        return list(self._queues)

    # ------------------------------------------------------------------
    # deadlock detection
    # ------------------------------------------------------------------

    def blockers_of(self, txn_id):
        """Transactions that must release/advance before ``txn_id``'s
        waiting request can be granted."""
        request = self._waiting_request.get(txn_id)
        if request is None:
            return set()
        queue = self._queues.get(request.resource)
        if queue is None:
            return set()
        blockers = {
            holder
            for holder, held in queue.granted.items()
            if holder != txn_id and not mode_compatible(request.mode, held)
        }
        if not request.is_conversion:
            for earlier in queue.waiting:
                if earlier is request:
                    break
                if earlier.txn_id != txn_id and not mode_compatible(
                    request.mode, earlier.mode
                ):
                    blockers.add(earlier.txn_id)
        return blockers

    def _detect_deadlock(self, start_txn):
        """DFS over the waits-for graph from ``start_txn``.

        Returns the chosen victim txn_id if a cycle through ``start_txn``
        exists, else ``None``. Victim = youngest (max txn_id) on the cycle.
        """
        cycle = self._find_cycle(start_txn)
        if cycle is None:
            return None
        return max(cycle)

    def _find_cycle(self, start_txn):
        path = []
        on_path = set()
        visited = set()

        def dfs(txn):
            if txn in on_path:
                idx = path.index(txn)
                return path[idx:]
            if txn in visited:
                return None
            visited.add(txn)
            path.append(txn)
            on_path.add(txn)
            for blocker in sorted(self.blockers_of(txn)):
                found = dfs(blocker)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(txn)
            return None

        return dfs(start_txn)

    def _cycle_through(self, txn_id):
        cycle = self._find_cycle(txn_id)
        return tuple(cycle) if cycle is not None else (txn_id,)
