"""The buffer manager: caching, write buffering, logging, FORCE/NOFORCE.

This module implements §3.2's buffer manager:

* a main-memory database buffer under a registry-selected replacement
  policy (global LRU in the paper; CLOCK and 2Q are available);
* an optional second-level database cache in NVEM with per-partition
  migration modes (modified / unmodified / all pages);
* the NOFORCE single-copy invariant — a page is cached in at most one
  of {main memory, NVEM}; under FORCE, forced pages stay in main memory
  and may be replicated in NVEM (the paper's double-caching effect);
* immediate asynchronous disk writes for modified pages entering NVEM
  (with the paper's discussed *deferred propagation* available as an
  extension flag);
* an optional write buffer in NVEM, shared by database partitions and
  the log, which absorbs writes while slots are free and falls through
  to synchronous disk writes when saturated;
* logging (one log page per update transaction) to NVEM, SSD, a disk
  with either kind of write buffer, or a plain disk — plus a group
  commit extension (off by default, as in the paper);
* FORCE / NOFORCE update strategies.

Timing rules: NVEM transfers hold the CPU (synchronous, §3.2); disk-unit
I/O charges ``InstrIO`` of CPU overhead and then releases the CPU while
the device works (asynchronous), unless the partition is configured
``AccessMode.SYNC``.
"""

from __future__ import annotations

from typing import (
    Callable, Generator, Iterable, List, Optional, Set, Tuple,
)

from repro.core.config import (
    NVEM,
    AccessMode,
    NVEMCachingMode,
    PartitionConfig,
    SystemConfig,
    UpdateStrategy,
)
from repro.core.cpu import CPUPool
from repro.core.metrics import (
    LEVEL_BATTERY_DRAM,
    LEVEL_DISK,
    LEVEL_DISK_CACHE,
    LEVEL_FLASH,
    LEVEL_MAIN_MEMORY,
    LEVEL_MEMORY_RESIDENT,
    LEVEL_NVEM_CACHE,
    LEVEL_NVEM_RESIDENT,
    LEVEL_SSD,
    MetricsCollector,
)
from repro.core.transaction import Transaction
from repro.sim import Environment, Interrupt, RandomStreams
from repro.sim.core import Event
from repro.storage.hierarchy import StorageSubsystem
from repro.storage.policies import ReplacementPolicy
from repro.storage.registry import make_policy

__all__ = ["BufferManager"]

#: Map device-level IOResult levels onto metrics levels (identical names).
#: User-registered device kinds may report their own level strings;
#: those pass through as their own hit-ratio category (the metrics
#: counters accept arbitrary level names).
_DEVICE_LEVELS = {
    "disk": LEVEL_DISK,
    "disk_cache": LEVEL_DISK_CACHE,
    "ssd": LEVEL_SSD,
    "flash": LEVEL_FLASH,
    "battery_dram": LEVEL_BATTERY_DRAM,
}

#: Migration-mode predicates: does a page with this dirtiness migrate?
_MIGRATES = {
    NVEMCachingMode.NONE: lambda dirty: False,
    NVEMCachingMode.MODIFIED: lambda dirty: dirty,
    NVEMCachingMode.UNMODIFIED: lambda dirty: not dirty,
    NVEMCachingMode.ALL: lambda dirty: True,
}


class _GroupCommitBatch:
    """One in-progress group commit (extension; §3.2 footnote 3)."""

    __slots__ = ("members", "flush_event", "done_event", "flush_proc")

    def __init__(self, env: Environment):
        self.members = 0
        self.flush_event = Event(env)
        self.done_event = Event(env)
        #: The batch's flush process, so a CM crash can kill it.
        self.flush_proc = None


class BufferManager:
    """Main-memory buffer + NVEM tiers + logging for one CM."""

    def __init__(self, env: Environment, streams: RandomStreams,
                 config: SystemConfig, cpu: CPUPool,
                 storage: StorageSubsystem, metrics: MetricsCollector):
        self.env = env
        self.config = config
        self.cm = config.cm
        self.cpu = cpu
        self.storage = storage
        self.metrics = metrics
        self._streams = streams
        self.partitions: List[PartitionConfig] = list(config.partitions)
        # Per-partition lookups for the per-reference fast path: the
        # allocation map is fixed after construction, so residency and
        # the default statistics tag reduce to list indexing.
        self._part_tags: List[str] = [p.name for p in self.partitions]
        self._part_mem_resident: List[bool] = [
            storage.is_memory_resident(p.name) for p in self.partitions
        ]
        self._noforce: bool = \
            self.cm.update_strategy is UpdateStrategy.NOFORCE

        self.mm: ReplacementPolicy = make_policy(
            self.cm.mm_policy, self.cm.buffer_size
        )
        self.nvem_cache: Optional[ReplacementPolicy] = (
            make_policy(self.cm.nvem_policy, self.cm.nvem_cache_size)
            if self.cm.nvem_cache_size > 0 else None
        )
        #: Shared NVEM write-buffer occupancy (database + log pages).
        self._wb_pending = 0
        #: Pages currently being evicted (victim reservation).
        self._evicting: Set[Tuple[int, int]] = set()
        #: Group-commit state (only used when group_commit_size > 1).
        self._group: Optional[_GroupCommitBatch] = None
        #: Dirty-page/LSN tracking for the crash-recovery subsystem
        #: (:mod:`repro.recovery`); ``None`` unless recovery is enabled,
        #: so the per-reference hooks below cost one ``is None`` test.
        self.recovery_tracker = None
        #: Per-page admission gate during online redo
        #: (:class:`repro.recovery.crash.RedoGate`); ``None`` outside
        #: the redo window.
        self.redo_gate = None
        #: Span sink when tracing is on (``None`` otherwise); only the
        #: miss/log generators touch it, never the fast hit path.
        self.tracer = None
        #: Dual-copy NVEM log mirroring: every commit forces both copies.
        self._log_mirror = config.recovery.log_mirror
        #: Diagnostics.
        self.eviction_stalls = 0
        #: Per-partition prewarm routing (see :meth:`prewarm_step`).
        self._prewarm_tables = None

    # ------------------------------------------------------------------
    # Page access (fix)
    # ------------------------------------------------------------------
    def fix_page_fast(self, tx: Transaction, ref) -> Optional[str]:
        """Synchronous hit path for :meth:`fix_page`.

        A memory-resident reference or a main-memory buffer hit involves
        no simulated time, no I/O and no RNG draw, so it needs no
        generator at all: callers on the per-reference hot path (the
        transaction managers) try this plain call first and only fall
        back to the :meth:`fix_page_miss` generator when it returns
        ``None``.  Semantics are identical to the first iteration of the
        miss loop: recency touch, dirty marking, hit accounting.
        """
        idx = ref.partition_index
        if self._part_mem_resident[idx]:
            if self.redo_gate is not None and \
                    (idx, ref.page_no) in self.redo_gate.pending:
                # Online redo has not reached this page yet: fall into
                # the miss path, which waits on the gate.
                return None
            # 100% hit; NOFORCE propagation assumed (§3.2) — nothing to
            # track for commit beyond logging.
            self.metrics.record_page_access(
                ref.tag or self._part_tags[idx], LEVEL_MEMORY_RESIDENT
            )
            return LEVEL_MEMORY_RESIDENT
        key = (idx, ref.page_no)
        entry = self.mm.get(key)
        if entry is None:
            return None
        if ref.is_write:
            entry.dirty = True
            tx.modified_pages.add(key)
            if self.recovery_tracker is not None:
                self.recovery_tracker.note_dirty(key)
        self.metrics.record_page_access(
            ref.tag or self._part_tags[idx], LEVEL_MAIN_MEMORY
        )
        return LEVEL_MAIN_MEMORY

    def fix_page(self, tx: Transaction, ref) -> Generator:
        """Bring the referenced page into main memory; returns the level
        of the storage hierarchy that satisfied the access.

        Buffer bookkeeping is synchronous, as in TPSIM: on a miss the
        frame is claimed and the page table updated immediately; only
        the missing transaction then pays the fetch latency.  Concurrent
        accesses to the same page during the fetch window count as main
        memory hits — each page causes exactly one miss, which keeps the
        hit-ratio accounting of Table 4.2 exact and avoids artificial
        convoy wake-ups that the paper's model does not exhibit.
        """
        level = self.fix_page_fast(tx, ref)
        if level is not None:
            return level
        result = yield from self.fix_page_miss(tx, ref)
        return result

    def fix_page_miss(self, tx: Transaction, ref) -> Generator:
        """Miss continuation of :meth:`fix_page`.

        Only valid immediately after :meth:`fix_page_fast` returned
        ``None`` (the reference is not memory-resident and missed main
        memory); the loop still re-checks the buffer after every wait
        because a concurrent transaction may fetch the page meanwhile.
        """
        part = self.partitions[ref.partition_index]
        tag = ref.tag or part.name
        key = ref.page_key

        gate = self.redo_gate
        if gate is not None and key in gate.pending:
            wait_start = self.env.now
            yield from gate.wait(key)
            if tx is not None:
                tx.wait_sync_io += self.env.now - wait_start
                if tx.traced and self.tracer is not None:
                    self.tracer.span("redo.wait", tx.tx_id, wait_start,
                                     self.env.now)
        if gate is not None and self._part_mem_resident[ref.partition_index]:
            # Memory-resident references only reach the miss path while
            # gated; once released they are plain residency hits.
            self.metrics.record_page_access(tag, LEVEL_MEMORY_RESIDENT)
            return LEVEL_MEMORY_RESIDENT

        source = None
        carried_dirty = False
        while True:
            entry = self.mm.get(key)
            if entry is not None:
                if ref.is_write or carried_dirty:
                    entry.dirty = True
                    if self.recovery_tracker is not None:
                        self.recovery_tracker.note_dirty(key)
                if ref.is_write:
                    tx.modified_pages.add(key)
                self.metrics.record_page_access(tag, LEVEL_MAIN_MEMORY)
                return LEVEL_MAIN_MEMORY
            if source is None:
                # Decide (and claim) the page's source *before* making
                # room: an NVEM-cache hit frees its NVEM frame now, so
                # the MM victim's migration cannot displace the very
                # page being fetched — preserving the aggregate-LRU
                # property of MM + NVEM under NOFORCE (§4.5).
                source, carried_dirty = self._claim_source(part, key)
            if len(self.mm) < self.mm.capacity:
                break
            # Evicting may take I/O time; afterwards the page may have
            # been fetched by a concurrent transaction — re-check.  The
            # requested key itself is never a victim candidate.
            progressed = yield from self._evict_one(tx, exclude_key=key)
            if not progressed:
                self.eviction_stalls += 1
                yield self.env.timeout(1e-5)

        entry = self.mm.insert(key, dirty=ref.is_write or carried_dirty)
        if entry.dirty and self.recovery_tracker is not None:
            self.recovery_tracker.note_dirty(key)
        if ref.is_write:
            tx.modified_pages.add(key)
        # Pin the frame while its contents are in flight: a page being
        # fetched must not be chosen as a replacement victim.
        entry.fix_count += 1
        tracer = self.tracer
        fetch_from = self.env.now if tracer is not None else 0.0
        try:
            level = yield from self._pay_fetch(tx, part, key, source)
        finally:
            entry.fix_count -= 1
        if tracer is not None and tx is not None and tx.traced:
            tracer.span("io.read", tx.tx_id, fetch_from, self.env.now,
                        level)
        self.metrics.record_page_access(tag, level)
        return level

    def _claim_source(self, part: PartitionConfig, key):
        """Decide where a missing page comes from; claim NVEM hits.

        Pure state transition (no simulated time): an NVEM-cache hit
        under NOFORCE removes the NVEM copy immediately (single-copy
        invariant) so its frame is free for the migration that the MM
        eviction is about to perform.  Returns ``(source,
        carried_dirty)``; ``carried_dirty`` is True when the page moves
        out of NVEM while its disk copy is stale (deferred-propagation
        extension only).
        """
        if self.storage.is_nvem_resident(part.name):
            return LEVEL_NVEM_RESIDENT, False
        if self.nvem_cache is not None and \
                part.nvem_caching is not NVEMCachingMode.NONE:
            cached = self.nvem_cache.get(key)
            if cached is not None:
                carried_dirty = False
                if self.cm.update_strategy is UpdateStrategy.NOFORCE:
                    if cached.dirty and cached.pending_write is None:
                        carried_dirty = True
                    self.nvem_cache.remove(key)
                return LEVEL_NVEM_CACHE, carried_dirty
        return "unit", False

    def _sync_nvem(self, tx: Optional[Transaction],
                   kind: str) -> Generator:
        """One synchronous NVEM page transfer with the CPU held.

        When the NVEM bank is behind a media-fault gate, the loss wait
        happens here, CPU-free, *before* the CPU is acquired: a blocked
        transfer must not pin a CPU server for the whole rebuild (the
        rebuild needs those CPUs to make progress).
        """
        device = self.storage.nvem_device
        wait = getattr(device, "loss_wait", None)
        if wait is not None:
            yield from wait(kind)
        yield from self.cpu.execute_with_sync_access(
            tx, self.cm.instr_nvem, device.access(kind))

    def _sync_unit_loss_wait(self, part: PartitionConfig,
                             key) -> Generator:
        """CPU-free loss wait before a SYNC-mode disk access (the gate's
        own per-page block would otherwise run with the CPU held)."""
        unit = self.storage.unit_of(part.name)
        wait = getattr(unit, "loss_wait", None)
        if wait is not None:
            yield from wait(key)

    def _pay_fetch(self, tx: Transaction, part: PartitionConfig, key,
                   source: str) -> Generator:
        """Pay the latency of a page fetch decided by _claim_source."""
        if source == LEVEL_NVEM_RESIDENT:
            yield from self._sync_nvem(tx, "read")
            self.metrics.record_io("nvem_read")
            return LEVEL_NVEM_RESIDENT
        if source == LEVEL_NVEM_CACHE:
            yield from self._sync_nvem(tx, "read")
            self.metrics.record_io("nvem_cache_read")
            return LEVEL_NVEM_CACHE

        # Read from the partition's home disk unit.
        pidx = key[0]
        if part.access_mode is AccessMode.SYNC:
            yield from self._sync_unit_loss_wait(part, key)
            result = yield from self.cpu.execute_with_sync_access(
                tx, self.cm.instr_io,
                self.storage.read_page(pidx, part.name, key[1]),
            )
        else:
            burst = self.cpu.execute_event(tx, self.cm.instr_io,
                                           exponential=False)
            if burst is not None:
                yield burst
            io_start = self.env.now
            result = yield from self.storage.read_page(
                pidx, part.name, key[1]
            )
            tx.wait_async_io += self.env.now - io_start
        self.metrics.record_io("db_read")
        return _DEVICE_LEVELS.get(result.level, result.level)

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def _make_room(self, tx: Transaction, exclude_key=None) -> Generator:
        """Ensure at least one free main-memory frame.

        Victims under eviction remain in the buffer until their
        write-back/migration completes, so concurrent misses each start
        their own eviction — which is exactly the paper's "every buffer
        miss resulted in an additional I/O to write back the page to be
        replaced" behaviour.
        """
        while len(self.mm) >= self.mm.capacity:
            progressed = yield from self._evict_one(tx, exclude_key)
            if not progressed:
                self.eviction_stalls += 1
                yield self.env.timeout(1e-5)

    def _evict_one(self, tx: Transaction, exclude_key=None) -> Generator:
        """Evict the LRU unfixed frame, migrating/writing as configured."""
        victim = self.mm.victim(
            lambda e: e.fix_count == 0 and e.key not in self._evicting
            and e.key != exclude_key
        )
        if victim is None:
            return False
        key = victim.key
        self._evicting.add(key)
        try:
            part = self.partitions[key[0]]
            was_dirty = victim.dirty
            if was_dirty:
                yield from self._write_back(tx, key, part,
                                            replacement=True)
                # A concurrent writer may have re-dirtied the page during
                # the write-back; then the eviction is abandoned.
                if victim.dirty:
                    return True
            elif self._migrates_to_nvem(part, dirty=False):
                yield from self._nvem_insert(tx, key, dirty=False)
            if key in self.mm:
                current = self.mm.peek(key)
                if current is victim and victim.fix_count == 0:
                    self.mm.remove(key)
            return True
        finally:
            self._evicting.discard(key)

    def _migrates_to_nvem(self, part: PartitionConfig, dirty: bool) -> bool:
        if self.nvem_cache is None:
            return False
        return _MIGRATES[part.nvem_caching](dirty)

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _write_back(self, tx: Optional[Transaction], key,
                    part: PartitionConfig,
                    replacement: bool) -> Generator:
        """Persist a modified page (replacement write-back or FORCE).

        The main-memory entry (if any) is marked clean *before* the I/O
        starts: it represents the state being persisted.  Routing
        follows Fig. 3.2: NVEM-resident partition -> NVEM write; NVEM
        caching -> migrate into the NVEM cache plus an immediate
        asynchronous disk write; NVEM write buffer -> absorb if a slot
        is free; otherwise a write I/O against the partition's unit
        (whose own cache, if any, applies its policy).
        """
        entry = self.mm.peek(key)
        if entry is not None:
            entry.dirty = False
        if self.recovery_tracker is not None:
            # The DPT mirrors the volatile dirty bits: the write-back to
            # a non-volatile destination starts here, and a page
            # re-dirtied meanwhile re-enters through note_dirty.
            self.recovery_tracker.note_clean(key)

        if self.storage.is_nvem_resident(part.name):
            if self.storage.media_tracker is not None:
                self.storage.media_tracker.note_write(NVEM, key)
            yield from self._sync_nvem(tx, "write")
            self.metrics.record_io("nvem_write")
            return

        if self._migrates_to_nvem(part, dirty=True):
            yield from self._nvem_insert(tx, key, dirty=True)
            return

        if part.nvem_write_buffer and \
                self._wb_pending < self.cm.nvem_write_buffer_size:
            self._wb_pending += 1
            yield from self._sync_nvem(tx, "write")
            self.metrics.record_io("db_write_buffered")
            self.env.process(self._async_disk_write(key, part,
                                                    wb_slot=True))
            return

        # Plain write I/O against the partition's disk unit.
        if self.cm.async_replacement and replacement:
            # Extension (§4.3): a more sophisticated buffer manager
            # writes replacement victims asynchronously.
            self.metrics.record_io("db_write_async")
            self.env.process(self._async_disk_write(key, part,
                                                    wb_slot=False))
            return
        yield from self._unit_write(tx, key, part)

    def _unit_write(self, tx: Optional[Transaction], key,
                    part: PartitionConfig) -> Generator:
        pidx = key[0]
        if part.access_mode is AccessMode.SYNC:
            yield from self._sync_unit_loss_wait(part, key)
            result = yield from self.cpu.execute_with_sync_access(
                tx, self.cm.instr_io,
                self.storage.write_page(pidx, part.name, key[1]),
            )
        else:
            burst = self.cpu.execute_event(tx, self.cm.instr_io,
                                           exponential=False)
            if burst is not None:
                yield burst
            io_start = self.env.now
            result = yield from self.storage.write_page(
                pidx, part.name, key[1]
            )
            if tx is not None:
                tx.wait_async_io += self.env.now - io_start
        if result.level == "disk_cache":
            self.metrics.record_io("db_write_absorbed")
        else:
            self.metrics.record_io("db_write_sync")

    def _async_disk_write(self, key, part: PartitionConfig,
                          wb_slot: bool, nvem_entry=None) -> Generator:
        """Background disk update for a page absorbed by NVEM.

        NVEM-to-disk transfers are host-initiated (§2: "all data
        transfers between ES and disk must go through main memory"), so
        the I/O overhead is charged to a CPU, but to no transaction.
        """
        burst = self.cpu.execute_event(None, self.cm.instr_io,
                                       exponential=False)
        if burst is not None:
            yield burst
        yield from self.storage.write_page(key[0], part.name, key[1])
        self.metrics.record_io("db_write_async")
        if wb_slot:
            self._wb_pending -= 1
        if nvem_entry is not None and self.nvem_cache is not None:
            current = self.nvem_cache.peek(key)
            if current is nvem_entry:
                nvem_entry.dirty = False
                nvem_entry.pending_write = None

    # ------------------------------------------------------------------
    # NVEM cache management
    # ------------------------------------------------------------------
    def _nvem_insert(self, tx: Optional[Transaction], key,
                     dirty: bool) -> Generator:
        """Migrate a page into the NVEM cache (one NVEM page transfer).

        A modified page entering the cache immediately starts its
        asynchronous disk write (§3.2), unless the deferred-propagation
        extension is enabled — then dirty pages are destaged only when
        replaced from NVEM, at the replacer's expense.
        """
        cache = self.nvem_cache
        part = self.partitions[key[0]]

        # Make room.  The loop may yield (waiting for a disk update, or
        # destaging a deferred page); afterwards a concurrent migration
        # may have inserted this very key — re-check each iteration.
        while True:
            existing = cache.get(key)
            if existing is not None:
                if dirty and not existing.dirty:
                    existing.dirty = True
                    if not self.cm.deferred_nvem_propagation:
                        existing.pending_write = self.env.process(
                            self._async_disk_write(key, part,
                                                   wb_slot=False,
                                                   nvem_entry=existing)
                        )
                yield from self._sync_nvem(tx, "migrate")
                self.metrics.record_io("nvem_cache_write")
                return
            if not cache.is_full:
                break
            victim = cache.victim(lambda e: not e.dirty)
            if victim is not None:
                cache.remove(victim.key)
                continue
            # Everything is dirty.
            victim = cache.victim()
            if victim.pending_write is not None:
                # Wait for the oldest outstanding disk update.
                wait_start = self.env.now
                yield victim.pending_write
                if tx is not None:
                    tx.wait_async_io += self.env.now - wait_start
                continue
            # Deferred propagation: the replacer reads the page from
            # NVEM and writes it to disk synchronously (§3.2's noted
            # "extra overhead").
            vpart = self.partitions[victim.key[0]]
            yield from self._sync_nvem(tx, "read")
            yield from self._unit_write(tx, victim.key, vpart)
            victim.dirty = False
            if victim.key in cache:
                cache.remove(victim.key)

        # Slot reservation (insert) happens before the transfer time is
        # paid, so concurrent migrations cannot oversubscribe frames.
        entry = cache.insert(key, dirty=dirty)
        if dirty and not self.cm.deferred_nvem_propagation:
            entry.pending_write = self.env.process(
                self._async_disk_write(key, part, wb_slot=False,
                                       nvem_entry=entry)
            )
        yield from self._sync_nvem(tx, "migrate")
        self.metrics.record_io("nvem_cache_write")

    # ------------------------------------------------------------------
    # Commit processing (phase 1 of §3.2's two-phase commit)
    # ------------------------------------------------------------------
    def commit(self, tx: Transaction) -> Generator:
        """Write log data and, under FORCE, force modified pages."""
        yield from self.write_log(tx)
        if self.cm.update_strategy is UpdateStrategy.FORCE:
            for key in sorted(tx.modified_pages):
                entry = self.mm.peek(key)
                if entry is None:
                    continue  # already written back at replacement
                # Forced regardless of the dirty flag: per-transaction
                # FORCE does not coordinate across transactions, so a
                # page shared with a concurrent committer (the HISTORY
                # tail) is written by every commit — footnote 7's
                # "three write I/Os to force out the modifications".
                part = self.partitions[key[0]]
                yield from self._write_back(tx, key, part,
                                            replacement=False)

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def write_log(self, tx: Transaction) -> Generator:
        """One log page per update transaction (§3.2)."""
        if not self.cm.logging or not tx.is_update:
            return
        if self.cm.group_commit_size > 1:
            yield from self._group_commit_join(tx)
            return
        yield from self._log_write_once(tx)

    def _log_write_once(self, tx: Optional[Transaction]) -> Generator:
        """Write one log page; returns its page number (the LSN).

        With dual-copy mirroring both NVEM copies are forced
        sequentially before the commit proceeds — the second force *is*
        the commit-latency penalty the ``ablation_mirroring`` experiment
        measures.  A lost copy is skipped (the survivor carries the
        log); losing every copy is unrecoverable.
        """
        page_no = self.storage.next_log_page()
        # "log.force" spans carry the io kind as attrs, so attribution
        # can split forces by placement (the §4 NVEM-vs-disk gap).
        traced = (self.tracer is not None and tx is not None
                  and tx.traced)
        t0 = self.env.now if traced else 0.0
        if self.storage.log_on_nvem:
            state = self.storage.media_state
            if not self._log_mirror and (
                    state is None or not state.lost_log_copies):
                yield from self.cpu.execute_with_sync_access(
                    tx, self.cm.instr_nvem,
                    self.storage.nvem_device.access("log"),
                )
                self.metrics.record_io("log_nvem")
                if traced:
                    self.tracer.span("log.force", tx.tx_id, t0,
                                     self.env.now, "log_nvem")
                return page_no
            lost = state.lost_log_copies if state is not None else ()
            wrote = False
            for copy in ((0, 1) if self._log_mirror else (0,)):
                if copy in lost:
                    continue
                if traced:
                    t0 = self.env.now
                yield from self.cpu.execute_with_sync_access(
                    tx, self.cm.instr_nvem,
                    self.storage.nvem_device.access("log"),
                )
                kind = "log_nvem" if copy == 0 else "log_nvem_mirror"
                self.metrics.record_io(kind)
                if traced:
                    self.tracer.span("log.force", tx.tx_id, t0,
                                     self.env.now, kind)
                wrote = True
            if not wrote:
                from repro.storage.faults import MediaUnrecoverableError
                raise MediaUnrecoverableError(
                    "every copy of the NVEM log is lost")
            return page_no
        if self.config.log.nvem_write_buffer and \
                self._wb_pending < self.cm.nvem_write_buffer_size:
            self._wb_pending += 1
            yield from self.cpu.execute_with_sync_access(
                tx, self.cm.instr_nvem,
                self.storage.nvem_device.access("log"),
            )
            self.metrics.record_io("log_buffered")
            if traced:
                self.tracer.span("log.force", tx.tx_id, t0,
                                 self.env.now, "log_buffered")
            self.env.process(self._async_log_write(page_no))
            return page_no
        burst = self.cpu.execute_event(tx, self.cm.instr_io,
                                       exponential=False)
        if burst is not None:
            yield burst
        io_start = self.env.now
        result = yield from self.storage.write_log_to_unit(page_no)
        if tx is not None:
            tx.wait_async_io += self.env.now - io_start
        if result.level == "disk_cache":
            kind = "log_absorbed"
        elif result.level in (LEVEL_SSD, LEVEL_FLASH, LEVEL_BATTERY_DRAM):
            kind = f"log_{result.level}"
        else:
            kind = "log_disk"
        self.metrics.record_io(kind)
        if traced:
            self.tracer.span("log.force", tx.tx_id, t0, self.env.now,
                             kind)
        return page_no

    def write_checkpoint_record(self) -> Generator:
        """One checkpoint record through the configured log path.

        Used by the fuzzy checkpointer (:mod:`repro.recovery`); returns
        the record's log page number — the LSN a restart scans from.
        """
        page_no = yield from self._log_write_once(None)
        return page_no

    def force_log_record(self, tx: Optional[Transaction]) -> Generator:
        """Force one log record for ``tx`` through the configured log
        path, returning its page number.

        The two-phase commit protocol (:mod:`repro.cluster.twopc`) pays
        this once per phase: the participant's prepare record and the
        coordinator's decision record must both hit non-volatile
        storage before the protocol advances, so the log device's
        latency (NVEM vs disk) enters commit time once per phase —
        exactly the placement effect of the paper's §4.
        """
        page_no = yield from self._log_write_once(tx)
        return page_no

    def _async_log_write(self, page_no: int) -> Generator:
        """Background flush of a log page absorbed by the NVEM buffer."""
        burst = self.cpu.execute_event(None, self.cm.instr_io,
                                       exponential=False)
        if burst is not None:
            yield burst
        yield from self.storage.write_log_to_unit(page_no)
        self.metrics.record_io("log_async")
        self._wb_pending -= 1

    # -- group commit (extension) -----------------------------------------
    def _group_commit_join(self, tx: Transaction) -> Generator:
        batch = self._group
        if batch is None:
            batch = self._group = _GroupCommitBatch(self.env)
            batch.flush_proc = self.env.process(
                self._group_commit_flush(batch))
        batch.members += 1
        if batch.members >= self.cm.group_commit_size and \
                not batch.flush_event.triggered:
            batch.flush_event.succeed()
        wait_start = self.env.now
        yield batch.done_event
        tx.wait_async_io += self.env.now - wait_start

    def _group_commit_flush(self, batch: _GroupCommitBatch) -> Generator:
        try:
            timeout = self.env.timeout(self.cm.group_commit_timeout)
            yield self.env.any_of([batch.flush_event, timeout])
            if self._group is batch:
                self._group = None
            self.metrics.record_io("group_commits")
            yield from self._log_write_once(None)
        except Interrupt:
            # CM crash (crash_reset): the batch died with its members —
            # no log write happens on behalf of aborted transactions.
            return
        batch.done_event.succeed()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """Discard the volatile state a CM crash destroys.

        The main-memory buffer and any in-progress group-commit batch
        are lost; the NVEM cache, the NVEM write buffer and the disk
        caches are non-volatile and survive, as do the background
        destage processes draining them (their work targets
        non-volatile state).  Callers must have interrupted the
        in-flight transactions first — their teardown only touches
        entry objects it already holds, never the buffer map.
        """
        self.mm.clear()
        self._evicting.clear()
        group = self._group
        if group is not None:
            # Kill the batch's pending flush: its members all aborted
            # at the crash, so no log write may run on their behalf.
            if group.flush_proc is not None and \
                    not group.flush_proc.triggered:
                group.flush_proc.interrupt("crash")
            self._group = None

    def drop_volatile_caches(self):
        """Clear every *volatile* disk-controller cache and return the
        database page keys they held, in deterministic order.

        Called at a crash when ``RecoveryConfig.volatile_cache_loss`` is
        on: a volatile controller cache dies with the power, so its read
        copies are gone (post-restart reads miss) and its pages
        conservatively re-enter the redo set.  Log pages (partition
        index -1) have no redo entry and are skipped.
        """
        keys = []
        for unit in self.storage.units.values():
            cache = unit.cache
            if cache is None or cache.nonvolatile:
                continue
            keys.extend(k for k in cache.lru.keys() if k[0] >= 0)
            cache.lru.clear()
        return sorted(keys)

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def prewarm_reference(self, partition_index: int, page_no: int,
                          is_write: bool) -> None:
        """Replay one reference; see :meth:`prewarm_references`."""
        self.prewarm_references(((partition_index, page_no, is_write),))

    def prewarm_references(
            self, refs: Iterable[Tuple[int, int, bool]]) -> None:
        """Replay ``(partition_index, page_no, is_write)`` references
        through the cache levels without timing.

        The paper reports steady-state measurements; reaching LRU steady
        state for a 2000-frame buffer over a 5-million-page ACCOUNT file
        by simulation alone wastes most of a run on warm-up.  Prewarming
        replays a representative reference stream through the *state* of
        every cache level — main memory, NVEM cache and the disk-unit
        caches — with no simulated time, no I/O and immediate "destage"
        of displaced dirty pages.  Measurement then starts from realistic
        buffer contents.  ``refs`` is consumed lazily, so a workload may
        pass a generator that draws its references as it goes.
        """
        step = self.prewarm_step()
        for partition_index, page_no, is_write in refs:
            step(partition_index, page_no, is_write)

    def prewarm_step(self) -> Callable[[int, int, bool], None]:
        """The replay of one reference, with this buffer's per-partition
        routing bound once (:meth:`prewarm_references` calls it per
        reference; the shared-disk fan-out interleaves one per node)."""
        tables = self._prewarm_tables
        if tables is None:
            tables = self._prewarm_tables = self._build_prewarm_tables()
        skip, nvem_resident, nvem_cached, migrates_clean, migrates_dirty, \
            unit_caches = tables
        # Under FORCE, resident pages are clean at steady state (forced
        # at every commit); only NOFORCE leaves modifications in place.
        noforce = self._noforce
        mm = self.mm
        mm_get, mm_victim, mm_remove, mm_insert = \
            mm.get, mm.victim, mm.remove, mm.insert
        capacity = mm.capacity
        nvem_cache = self.nvem_cache
        nvem_insert = self._prewarm_nvem_insert

        def step(partition_index: int, page_no: int, is_write: bool) -> None:
            if skip[partition_index]:
                return
            is_write = is_write and noforce
            key = (partition_index, page_no)
            entry = mm_get(key)
            if entry is not None:
                if is_write and not entry.dirty:
                    entry.dirty = True
                return
            if not nvem_resident[partition_index]:
                if nvem_cached[partition_index] and key in nvem_cache:
                    nvem_cache.get(key)  # touch
                    if noforce:
                        nvem_cache.remove(key)
                else:
                    cache = unit_caches[partition_index]
                    if cache is not None and not cache.on_read(key).hit:
                        cache.on_read_fill(key)
            # Displaced pages go where a replacement would send them,
            # their disk update treated as already complete.
            while len(mm) >= capacity:
                victim = mm_victim()
                vkey = victim.key
                vindex = vkey[0]
                if not nvem_resident[vindex]:
                    migrates = migrates_dirty if victim.dirty \
                        else migrates_clean
                    if migrates[vindex]:
                        nvem_insert(vkey)
                    elif victim.dirty:
                        cache = unit_caches[vindex]
                        if cache is not None:
                            cache.on_disk_write_complete(
                                cache.on_write(vkey).entry)
                mm_remove(vkey)
            mm_insert(key, dirty=is_write)

        return step

    def _build_prewarm_tables(self):
        """Per-partition routing of :meth:`prewarm_step`.  Built on first
        use, not in ``__init__``: subclasses finish their own set-up
        (e.g. the shared-disk GEM) after ``super().__init__()`` and may
        override :meth:`_migrates_to_nvem`."""
        parts = self.partitions
        storage = self.storage
        nvem_resident = [storage.is_nvem_resident(p.name) for p in parts]
        units = [storage.unit_of(p.name) for p in parts]
        return (
            self._part_mem_resident,
            nvem_resident,
            [self.nvem_cache is not None
             and p.nvem_caching is not NVEMCachingMode.NONE
             for p in parts],
            [self._migrates_to_nvem(p, dirty=False) for p in parts],
            [self._migrates_to_nvem(p, dirty=True) for p in parts],
            [None if unit is None else unit.cache for unit in units],
        )

    def _prewarm_nvem_insert(self, key) -> None:
        cache = self.nvem_cache
        if key in cache:
            cache.get(key)
            return
        while cache.is_full:
            victim = cache.victim()
            cache.remove(victim.key)
        cache.insert(key, dirty=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mm_occupancy(self) -> int:
        return len(self.mm)

    def nvem_occupancy(self) -> int:
        return len(self.nvem_cache) if self.nvem_cache is not None else 0

    def write_buffer_pending(self) -> int:
        return self._wb_pending

    def check_invariants(self) -> List[str]:
        """Sanity checks used by tests; returns violation descriptions."""
        problems: List[str] = []
        if len(self.mm) > self.mm.capacity:
            problems.append("main memory buffer over capacity")
        if self.nvem_cache is not None:
            if len(self.nvem_cache) > self.nvem_cache.capacity:
                problems.append("NVEM cache over capacity")
            if self.cm.update_strategy is UpdateStrategy.NOFORCE:
                mm_keys = set(self.mm.keys())
                overlap = mm_keys & set(self.nvem_cache.keys())
                # Pages mid-eviction may transiently exist in both.
                overlap -= self._evicting
                if overlap:
                    problems.append(
                        f"NOFORCE single-copy violated for {sorted(overlap)[:5]}"
                    )
        if self._wb_pending < 0:
            problems.append("negative write-buffer occupancy")
        return problems
