"""Data sharing: the ``sharing="disk"`` mode of the cluster.

The paper's TPSIM "supports centralized and distributed transaction
systems" (§3); its conclusions point at global extended memory for
locally distributed systems ([BHR91], [Ra91]).  In this mode the
cluster's nodes — each with its own CPUs, main-memory buffer and
transaction manager — share *one* database on one storage subsystem
instead of owning shards.  Concurrency and coherency control follow
the data-sharing designs of [Ra88]/[BHR91]:

* **Central locking**: node 0 hosts the global lock manager; lock
  requests from other nodes pay a message round trip (CPU overhead on
  each end and coupling latency — NVEM coupling makes it cheap,
  [Ra91]).  Releases piggyback on the commit broadcast.
* **Global extended memory (GEM)**: an optional shared second-level
  page cache (``gem_capacity > 0``).  Buffer misses probe GEM before
  disk; pages replaced from any node migrate into it; at commit the new
  versions of modified pages are written to GEM (update propagation at
  NVEM speed), and an invalidation broadcast removes stale copies from
  the other nodes' buffers.
* **Broadcast invalidation** keeps node buffers coherent; without GEM
  the invalidated page is re-read from disk on the next access.

Transactions carry no home node here, so the cluster's router deals
them out round-robin and every single-system workload runs unchanged.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.bm import BufferManager
from repro.core.cc import LockManager, LockMode
from repro.core.cpu import CPUPool
from repro.core.metrics import LEVEL_NVEM_CACHE
from repro.core.tm import TransactionManager
from repro.core.transaction import Transaction
from repro.distributed.gem import GlobalExtendedMemory
from repro.sim.stats import CategoryCounter
from repro.storage.hierarchy import StorageSubsystem

__all__ = ["SharedDisk", "SharedDiskNode"]

#: Node hosting the global lock manager.
LOCK_NODE = 0


class SharedDisk:
    """What the nodes share: storage, GEM, the lock table, coherency.

    It is also the system a single-system workload's ``prewarm`` sees:
    the shared database's ``config``, the cluster's ``streams`` and a
    ``bm`` whose ``prewarm_references`` replays every reference into
    each node's buffer.  Hot pages end up replicated in all node
    buffers — the steady state of a data-sharing system where every
    node serves the same workload.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.config = cluster.config.node
        self.streams = cluster.streams
        env = cluster.env
        self.storage = StorageSubsystem(env, self.streams, self.config)
        self.invalidation_stats = CategoryCounter()
        self.gem: Optional[GlobalExtendedMemory] = None
        if cluster.config.gem_capacity > 0:
            self.gem = GlobalExtendedMemory(
                env, self.storage.nvem_device, cluster.config.gem_capacity)
        self.locks = LockManager(env, cluster.metrics)
        self.bm = self  # the prewarm fan-out below

    def prewarm_references(self, refs) -> None:
        """Replay each reference into every node's buffer before the
        next one: node 0 ref 1, node 1 ref 1, node 0 ref 2, ...  The
        nodes share the disk-unit caches and GEM, so replaying node by
        node would leave them in another state."""
        steps = [node.bm.prewarm_step() for node in self.cluster.nodes]
        for partition_index, page_no, is_write in refs:
            for step in steps:
                step(partition_index, page_no, is_write)

    def broadcast_invalidation(self, tx: Transaction,
                               sender: "SharedDiskNode") -> Generator:
        """One message per remote node; stale copies are dropped."""
        keys = list(tx.modified_pages)
        bus = self.cluster.bus
        for node in self.cluster.nodes:
            if node is sender:
                continue
            yield from bus.one_way(tx, sender.cpu, node.cpu,
                                   kind="invalidation")
            node.bm.invalidate_pages(keys)
        self.invalidation_stats.add("broadcasts")

    def reset_stats(self) -> None:
        self.storage.reset_stats()
        self.invalidation_stats.reset()


class SharedDiskBufferManager(BufferManager):
    """Per-node buffer manager with GEM integration.

    Overrides the single-system NVEM-cache paths: misses probe the
    shared GEM (copies stay there — no single-copy rule across nodes),
    evictions migrate into GEM, and commit propagates modified pages to
    GEM so other nodes always find the latest committed version.
    """

    def __init__(self, *args, gem: Optional[GlobalExtendedMemory],
                 invalidations: CategoryCounter, **kwargs):
        super().__init__(*args, **kwargs)
        self.gem = gem
        self.invalidation_stats = invalidations

    # -- fetch path ------------------------------------------------------
    def _claim_source(self, part, key):
        if self.gem is not None and not \
                self.storage.is_nvem_resident(part.name) and not \
                self.storage.is_memory_resident(part.name):
            if self.gem.probe(key) is not None:
                return LEVEL_NVEM_CACHE, False  # copy stays in GEM
        return super()._claim_source(part, key)

    # -- write/migration path -----------------------------------------------
    def _migrates_to_nvem(self, part, dirty: bool) -> bool:
        if self.gem is not None:
            return not self.storage.is_nvem_resident(part.name)
        return super()._migrates_to_nvem(part, dirty)

    def _gem_async_write(self, key, part, entry) -> Generator:
        burst = self.cpu.execute_event(None, self.cm.instr_io,
                                       exponential=False)
        if burst is not None:
            yield burst
        yield from self.storage.write_page(key[0], part.name, key[1])
        self.metrics.record_io("db_write_async")
        self.gem.mark_clean(key, entry)

    def _nvem_insert(self, tx, key, dirty: bool) -> Generator:
        if self.gem is None:
            yield from super()._nvem_insert(tx, key, dirty)
            return
        part = self.partitions[key[0]]
        entry = self.gem.install(key, dirty)
        if entry is None:
            # GEM saturated with in-flight pages: write through to disk.
            if dirty:
                yield from self._unit_write(tx, key, part)
            return
        if dirty and entry.pending_write is None:
            entry.pending_write = self.env.process(
                self._gem_async_write(key, part, entry)
            )
        yield from self.cpu.execute_with_sync_access(
            tx, self.cm.instr_nvem, self.gem.access("migrate"),
        )
        self.metrics.record_io("nvem_cache_write")

    # -- commit propagation ---------------------------------------------
    def propagate_commit(self, tx: Transaction) -> Generator:
        """Write committed page versions to GEM (update propagation)."""
        if self.gem is None:
            return
        for key in sorted(tx.modified_pages):
            part = self.partitions[key[0]]
            if self.storage.is_nvem_resident(part.name) or \
                    self.storage.is_memory_resident(part.name):
                continue
            mm_entry = self.mm.peek(key)
            if mm_entry is not None:
                mm_entry.dirty = False  # GEM now owns persistence
            yield from self._nvem_insert(tx, key, dirty=True)

    # -- warm start ------------------------------------------------------
    def _prewarm_nvem_insert(self, key) -> None:
        if self.gem is None:
            super()._prewarm_nvem_insert(key)
            return
        self.gem.install(key, dirty=False)

    # -- coherency ------------------------------------------------------
    def invalidate_pages(self, keys) -> int:
        """Drop stale copies after another node's commit."""
        dropped = 0
        for key in keys:
            entry = self.mm.peek(key)
            if entry is not None and entry.fix_count == 0 and \
                    not entry.dirty and key not in self._evicting:
                self.mm.remove(key)
                dropped += 1
        if dropped:
            self.invalidation_stats.add("pages_dropped", dropped)
        return dropped


class _CentralLocks:
    """A node's lock manager: the shared lock table, reached by a
    message round trip from every node but :data:`LOCK_NODE`."""

    def __init__(self, node: "SharedDiskNode", cluster):
        self.node = node
        self.cluster = cluster
        self.table = cluster.shared.locks

    def acquire(self, tx, resource_id, mode: LockMode) -> Generator:
        if self.node.node_id != LOCK_NODE:
            yield from self.cluster.bus.round_trip(
                tx, self.node.cpu, self.cluster.nodes[LOCK_NODE].cpu,
                kind="lock_request",
            )
        outcome = yield from self.table.acquire(tx, resource_id, mode)
        return outcome

    def release_all(self, tx) -> None:
        # Releases piggyback on the commit message; the CPU cost of that
        # message is charged in the commit broadcast, not here.
        self.table.release_all(tx)


class _SharedDiskTM(TransactionManager):
    """Node TM: commit additionally propagates + broadcasts."""

    def __init__(self, node: "SharedDiskNode", cluster):
        super().__init__(cluster.env, node.config, node.cpu, node.locks,
                         node.bm, cluster.metrics, streams=cluster.streams)
        self.node = node
        self.shared = cluster.shared

    def _commit(self, tx: Transaction, traced: bool) -> Generator:
        """Commit phase 1, then GEM propagation and the invalidation
        broadcast (phase 1.5) before the shared loop releases locks.
        Tracing is rejected for this mode: no span."""
        yield from self.bm.commit(tx)
        yield from self.bm.propagate_commit(tx)
        if tx.modified_pages:
            yield from self.shared.broadcast_invalidation(tx, self.node)
        return True


class SharedDiskNode:
    """One computing module over the shared database: own CPUs,
    GEM-aware buffer and TM; storage and locks are the cluster's."""

    def __init__(self, node_id: int, cluster):
        shared = cluster.shared
        self.node_id = node_id
        self.config = shared.config
        self.cpu = CPUPool(cluster.env, cluster.streams, self.config.cm)
        self.bm = SharedDiskBufferManager(
            cluster.env, cluster.streams, self.config, self.cpu,
            shared.storage, cluster.metrics,
            gem=shared.gem, invalidations=shared.invalidation_stats,
        )
        self.locks = _CentralLocks(self, cluster)
        self.tm = _SharedDiskTM(self, cluster)
