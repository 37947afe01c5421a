"""Global extended memory (GEM): a shared second-level page cache.

Following [BHR91]/[Ra91], the nodes of a locally distributed system
share one non-volatile extended memory.  Unlike the single-system NVEM
cache of §3.2 (which enforces a single-copy invariant with main
memory), GEM keeps its copy when a node reads a page — the whole point
is that *other* nodes hit it too.  Semantics:

* a node's buffer miss probes GEM before going to disk (one NVEM
  access); hits leave the GEM copy in place;
* pages replaced from any node's buffer migrate into GEM; modified
  pages immediately start an asynchronous disk write, exactly like the
  single-system write path;
* when a transaction commits, the current version of its modified
  pages is written to GEM (at NVEM speed) so other nodes always find
  the newest committed version — their own stale buffer copies are
  invalidated by the commit broadcast (see
  :mod:`repro.cluster.shared_disk`).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment
from repro.sim.stats import CategoryCounter
from repro.storage.policies import ReplacementPolicy
from repro.storage.registry import make_policy

__all__ = ["GlobalExtendedMemory"]


class GlobalExtendedMemory:
    """Shared NVEM page cache + write buffer for all nodes.

    ``device`` is the shared NVEM device (anything exposing the
    ``access(kind)`` generator); ``policy`` selects the replacement
    structure from the policy registry.
    """

    def __init__(self, env: Environment, device, capacity: int,
                 policy="lru"):
        if capacity < 1:
            raise ValueError("GEM needs capacity >= 1")
        self.env = env
        self.device = device
        self.cache: ReplacementPolicy = make_policy(policy, capacity)
        self.stats = CategoryCounter()

    def __len__(self) -> int:
        return len(self.cache)

    def __contains__(self, key) -> bool:
        return key in self.cache

    # -- state transitions (no simulated time) ---------------------------
    def probe(self, key) -> Optional[object]:
        """Look up a page for a node's buffer miss; copy stays in GEM."""
        entry = self.cache.get(key)
        self.stats.add("hit" if entry is not None else "miss")
        return entry

    def make_room(self) -> bool:
        """Drop the LRU clean entry; False if everything is in flight."""
        if not self.cache.is_full:
            return True
        victim = self.cache.victim(lambda e: not e.dirty)
        if victim is None:
            return False
        self.cache.remove(victim.key)
        self.stats.add("evict")
        return True

    def install(self, key, dirty: bool) -> Optional[object]:
        """Insert/refresh a page; returns the entry (None if no room)."""
        entry = self.cache.get(key)
        if entry is not None:
            entry.dirty = entry.dirty or dirty
            return entry
        if not self.make_room():
            self.stats.add("install_skipped")
            return None
        self.stats.add("install")
        return self.cache.insert(key, dirty=dirty)

    def invalidate(self, key) -> bool:
        """Drop a (stale) page version, e.g. on an aborted propagation."""
        if key in self.cache:
            entry = self.cache.peek(key)
            if not entry.dirty:
                self.cache.remove(key)
                self.stats.add("invalidate")
                return True
        return False

    def mark_clean(self, key, entry) -> None:
        """Disk copy is current (async write finished)."""
        current = self.cache.peek(key)
        if current is entry:
            entry.dirty = False
            entry.pending_write = None

    # -- timed access ------------------------------------------------------
    def access(self, kind: str) -> Generator:
        """One page transfer between a node and GEM."""
        result = yield from self.device.access(kind)
        return result
