"""The transaction manager: admission, execution, commit, restart (§3.2).

The TM runs an *open* system: the SOURCE submits transactions at their
arrival rate; at most ``MPL`` are active concurrently, the rest wait in
a FIFO input queue.  Execution charges CPU at BOT, per object reference
and at EOT (exponentially distributed instruction counts), requests
locks from the lock manager (granularity per partition), fixes pages
through the buffer manager, and commits in two phases: (1) the buffer
manager writes log data and — under FORCE — forces modified pages;
(2) locks are released.

A transaction denied by deadlock detection aborts, releases its locks
and restarts after a short randomized backoff with the *same* reference
string (access invariance [FRT90]); its response time keeps
accumulating across restarts.

:meth:`TransactionManager._execute` is the only lifecycle loop.  The
multi-node TMs (shared-disk data sharing, the 2PC cluster) override its
hooks — remote work, commit protocol, abort notice — not the loop.
"""

from __future__ import annotations

from typing import Generator, List

from repro.core.bm import BufferManager
from repro.core.cc import LockManager, LockMode, LockOutcome
from repro.core.config import CCMode, PartitionConfig, SystemConfig
from repro.core.cpu import CPUPool
from repro.core.metrics import MetricsCollector
from repro.core.transaction import ObjectRef, Transaction
from repro.sim import Environment, Event, Interrupt, Resource

__all__ = ["TransactionManager"]


class TransactionManager:
    """Controls the execution of transactions on one computing module."""

    def __init__(self, env: Environment, config: SystemConfig,
                 cpu: CPUPool, locks: LockManager, bm: BufferManager,
                 metrics: MetricsCollector, streams=None):
        self.env = env
        self.config = config
        self.cm = config.cm
        self.cpu = cpu
        self.locks = locks
        self.bm = bm
        self.metrics = metrics
        #: RNG for the randomized restart backoff (optional; without it
        #: aborted transactions restart immediately).
        self.streams = streams
        self.partitions: List[PartitionConfig] = list(config.partitions)
        #: Span sink (:class:`repro.trace.Tracer`) when the run enabled
        #: tracing, else ``None``.  The lifecycle reads it once per
        #: transaction into a local ``traced`` flag; untraced, each
        #: phase costs one test of that flag and no tracer call.
        self.tracer = None
        self.mpl_slots = Resource(env, self.cm.mpl, name="mpl")
        self.active = 0
        self.submitted = 0
        self.completed = 0
        #: Live lifecycle processes by tx id — the crash controller
        #: interrupts all of them when the CM fails.
        self._lifecycles = {}
        #: Pending while the CM is down (crash/restart); admission and
        #: execution wait on it.  ``None`` means online.
        self._offline_gate: "Event | None" = None

    # -- admission ------------------------------------------------------
    def submit(self, tx: Transaction):
        """Accept a new transaction from the SOURCE (open system).

        Returns the lifecycle :class:`~repro.sim.Process` so callers
        implementing external abort policies can ``interrupt()`` it.
        """
        tx.arrival_time = self.env.now
        self.submitted += 1
        if self.tracer is not None:
            self.tracer.admit(tx)
        proc = self.env.process(self._lifecycle(tx))
        # env.process schedules lazily, so the lifecycle has not run
        # (and cannot have deregistered itself) yet.
        self._lifecycles[tx.tx_id] = proc
        return proc

    @property
    def input_queue_length(self) -> int:
        return self.mpl_slots.queue_length

    # -- crash support (see repro.recovery.crash) -----------------------
    @property
    def is_online(self) -> bool:
        """False while a crash/restart outage is in progress."""
        return self._offline_gate is None

    def take_offline(self) -> None:
        """Shut the admission gate: nothing starts until go_online()."""
        if self._offline_gate is None:
            self._offline_gate = Event(self.env)

    def go_online(self) -> None:
        """Reopen the gate; every transaction waiting on it proceeds."""
        gate = self._offline_gate
        if gate is not None:
            self._offline_gate = None
            gate.succeed()

    def interrupt_active(self, cause="crash") -> int:
        """Interrupt every live lifecycle; returns how many there were.

        Transactions submitted *after* this call (e.g. arrivals during
        the restart) are untouched — they wait at the offline gate.
        """
        victims = list(self._lifecycles.values())
        for proc in victims:
            proc.interrupt(cause)
        return len(victims)

    def _lifecycle(self, tx: Transaction) -> Generator:
        try:
            yield from self._lifecycle_body(tx)
        finally:
            self._lifecycles.pop(tx.tx_id, None)

    def _lifecycle_body(self, tx: Transaction) -> Generator:
        gate = self._offline_gate
        if gate is not None:
            # The CM is down (crash/restart): wait out the outage.  The
            # wait counts as input-queue time, so availability shows up
            # in the response-time composition.
            queued_at = self.env.now
            try:
                yield gate
            except Interrupt:
                self.metrics.record_abort(tx, restarted=False)
                return
            tx.wait_input_queue += self.env.now - queued_at
            if tx.traced and self.tracer is not None \
                    and self.env.now > queued_at:
                self.tracer.span("queue", tx.tx_id, queued_at, self.env.now)
        slot = self.mpl_slots.request()
        queued_at = self.env.now
        self.metrics.note_input_queue(self.mpl_slots.queue_length)
        try:
            yield slot
        except Interrupt:
            # Interrupted while queueing for admission.  The kernel has
            # already withdrawn the request (Request._abandoned); the
            # explicit cancel is an idempotent belt-and-braces for
            # callers that resume this generator by hand.  Count the
            # shed transaction as an abort so submitted stays equal to
            # completed + aborted + in-flight.
            self.mpl_slots.cancel(slot)
            self.metrics.record_abort(tx, restarted=False)
            return
        tx.wait_input_queue += self.env.now - queued_at
        if tx.traced and self.tracer is not None \
                and self.env.now > queued_at:
            self.tracer.span("queue", tx.tx_id, queued_at, self.env.now)
        self.active += 1
        try:
            yield from self._execute(tx)
            # Only a committed lifecycle counts as completed: the
            # distributed layer reports ``completed`` as the node's
            # committed count.
            self.completed += 1
        except Interrupt:
            # Externally aborted mid-flight (crash or an abort policy
            # beyond the paper's requester-aborts default): back out any
            # pending lock wait and release everything held, then fall
            # through to the finally block to free the MPL slot.  The
            # CPU / device / NVEM units the transaction held are
            # returned by the interrupt-safe service generators
            # themselves.
            self.locks.withdraw(tx)
            self.locks.release_all(tx)
            self.metrics.record_abort(tx, restarted=False)
        finally:
            self.active -= 1
            self.mpl_slots.release(slot)

    # -- execution ------------------------------------------------------
    def _lock_id(self, part_index: int, part: PartitionConfig,
                 ref: ObjectRef):
        if part.cc_mode is CCMode.PAGE:
            return (part_index, 0, ref.page_no)
        return (part_index, 1, ref.object_no)

    def _execute(self, tx: Transaction) -> Generator:
        """The transaction lifecycle, from BOT to commit or restart.

        BOT CPU, the remote-work hook, the per-reference step for every
        reference, EOT CPU, the commit-protocol hook, then lock release.
        Subclasses change how work and commit reach other nodes by
        overriding the hooks (:meth:`_remote_work`, :meth:`_commit`,
        :meth:`_abort`), never this loop.

        A traced transaction also emits one phase span per
        time-advancing segment ("cpu.bot", "lock" — emitted by the lock
        manager —, "cpu.ref", "fix", "cpu.eot", the commit hook's
        spans, "backoff"); with the lifecycle's "queue" span they tile
        the whole arrival-to-commit interval, so the attribution table
        sums to the measured response time.  Span names are the
        literals from :data:`repro.trace.tracer.PHASE_SPANS` (no import:
        core must not depend on the observability package).
        """
        env = self.env
        tracer = self.tracer
        traced = tx.traced and tracer is not None
        while True:
            tx.start_time = env.now
            t0 = env.now
            burst = self.cpu.execute_event(tx, self.cm.instr_bot)
            if burst is not None:
                yield burst
                if traced and env.now > t0:
                    tracer.span("cpu.bot", tx.tx_id, t0, env.now)
            if (yield from self._remote_work(tx, traced)) and \
                    (yield from self._references(tx, tx.refs, traced)):
                t0 = env.now
                burst = self.cpu.execute_event(tx, self.cm.instr_eot)
                if burst is not None:
                    yield burst
                    if traced and env.now > t0:
                        tracer.span("cpu.eot", tx.tx_id, t0, env.now)
                if (yield from self._commit(tx, traced)):
                    # Commit phase 2: release locks.
                    self.locks.release_all(tx)
                    self.metrics.record_commit(
                        tx, env.now - tx.arrival_time
                    )
                    if traced:
                        tracer.span("tx", tx.tx_id, tx.arrival_time,
                                    env.now)
                    return
            # Abort: back out and retry with the same reference string.
            # A small randomized backoff breaks the livelock where two
            # transactions keep re-colliding in lockstep (the paper is
            # silent on restart timing).
            self._abort(tx)
            self.locks.release_all(tx)
            self.metrics.record_abort(tx)
            tx.reset_for_restart()
            if self.streams is not None:
                backoff = self.streams.exponential(
                    "restart-backoff", 0.002 * min(tx.restarts, 5)
                )
                if backoff > 0:
                    t0 = env.now
                    yield env.timeout(backoff)
                    if traced:
                        tracer.span("backoff", tx.tx_id, t0, env.now)

    def _references(self, tx: Transaction, refs, traced: bool) -> Generator:
        """The per-reference step for each of ``refs``: lock, CPU, fix.

        Returns False as soon as deadlock detection denies a lock (the
        caller aborts ``tx``), True once every reference is fixed.
        """
        env = self.env
        for ref in refs:
            part = self.partitions[ref.partition_index]
            if part.cc_mode is not CCMode.NONE:
                mode = LockMode.X if ref.is_write else LockMode.S
                outcome = yield from self.locks.acquire(
                    tx, self._lock_id(ref.partition_index, part, ref), mode,
                )
                if outcome is LockOutcome.DEADLOCK:
                    return False
            t0 = env.now
            burst = self.cpu.execute_event(tx, self.cm.instr_or)
            if burst is not None:
                yield burst
                if traced and env.now > t0:
                    self.tracer.span("cpu.ref", tx.tx_id, t0, env.now)
            # Hot path: a buffer hit costs no simulated time, so it is a
            # plain call — only misses enter the generator.
            if self.bm.fix_page_fast(tx, ref) is None:
                t0 = env.now
                yield from self.bm.fix_page_miss(tx, ref)
                if traced and env.now > t0:
                    self.tracer.span("fix", tx.tx_id, t0, env.now)
        return True

    # -- lifecycle hooks ------------------------------------------------
    def _remote_work(self, tx: Transaction, traced: bool) -> Generator:
        """Hook run after BOT, before any local lock: work on other nodes.

        Returns False when that work failed and ``tx`` must abort.  A
        single node has none.
        """
        return True
        yield  # unreachable: makes this hook a generator like overrides

    def _commit(self, tx: Transaction, traced: bool) -> Generator:
        """Commit-protocol hook, run after EOT with every lock held.

        Returns True once ``tx`` is committed, False when the protocol
        decided to abort it.  Here: commit phase 1 — the buffer manager
        writes the log and, under FORCE, the modified pages.
        """
        t0 = self.env.now
        yield from self.bm.commit(tx)
        if traced and self.env.now > t0:
            self.tracer.span("commit", tx.tx_id, t0, self.env.now)
        return True

    def _abort(self, tx: Transaction) -> None:
        """Hook run on abort before the locks are released."""
