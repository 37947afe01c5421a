"""Property-based tests for buffer-manager invariants (hypothesis).

The buffer manager is driven with random access streams under random
configurations; after every simulated run the §3.2 invariants must
hold:

* frame counts never exceed capacities;
* NOFORCE: no page cached in both main memory and NVEM;
* the write-buffer occupancy is never negative;
* every page access is attributed to exactly one hierarchy level;
* the batched prewarm leaves every cache level exactly as a
  reference-at-a-time replay does.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.config import (
    MEMORY,
    NVEM,
    DiskUnitType,
    NVEMCachingMode,
    PolicySpec,
    UpdateStrategy,
)
from repro.core.transaction import ObjectRef, Transaction
from tests.core.test_bm import build_system


def drive(env, bm, accesses):
    """Run a stream of (page, is_write) accesses as one process each."""
    def tx_proc(tx, ref):
        yield from bm.fix_page(tx, ref)

    for i, (page, is_write) in enumerate(accesses):
        tx = Transaction(i + 1, "t", [])
        ref = ObjectRef(0, page, page, is_write)
        env.process(tx_proc(tx, ref))
    env.run()


access_stream = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=1, max_size=120,
)


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
)
@settings(max_examples=60, deadline=None)
def test_mm_buffer_invariants(accesses, buffer_size, strategy):
    env, bm, metrics, _ = build_system(buffer_size=buffer_size,
                                       update_strategy=strategy)
    drive(env, bm, accesses)
    assert bm.check_invariants() == []
    assert len(bm.mm) <= buffer_size
    # Every access was classified to a level.
    assert metrics.page_access.total() == len(accesses)


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=1, max_value=6),
    cache_size=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from([NVEMCachingMode.MODIFIED,
                          NVEMCachingMode.UNMODIFIED,
                          NVEMCachingMode.ALL]),
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
)
@settings(max_examples=60, deadline=None)
def test_nvem_cache_invariants(accesses, buffer_size, cache_size, mode,
                               strategy):
    env, bm, metrics, _ = build_system(
        buffer_size=buffer_size, update_strategy=strategy,
        nvem_caching=mode, nvem_cache_size=cache_size,
    )
    drive(env, bm, accesses)
    assert bm.check_invariants() == []
    assert len(bm.nvem_cache) <= cache_size
    if strategy is UpdateStrategy.NOFORCE:
        overlap = set(bm.mm.keys()) & set(bm.nvem_cache.keys())
        assert not overlap


@given(
    accesses=access_stream,
    wb_size=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_write_buffer_occupancy_never_negative(accesses, wb_size):
    env, bm, metrics, _ = build_system(
        buffer_size=2, nvem_write_buffer=True,
        nvem_write_buffer_size=wb_size,
    )
    drive(env, bm, accesses)
    assert bm.write_buffer_pending() == 0  # all drained at quiescence
    absorbed = metrics.io_counts.get("db_write_buffered")
    drained = metrics.io_counts.get("db_write_async")
    assert absorbed == drained


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_prewarm_then_run_consistent(accesses, buffer_size):
    """Prewarming must leave a state from which simulation is sound."""
    env, bm, metrics, _ = build_system(buffer_size=buffer_size)
    for page, is_write in accesses:
        bm.prewarm_reference(0, page, is_write)
    assert len(bm.mm) <= buffer_size
    drive(env, bm, accesses)
    assert bm.check_invariants() == []


@given(accesses=access_stream)
@settings(max_examples=30, deadline=None)
def test_force_leaves_no_dirty_pages_after_commits(accesses):
    """Under FORCE, committing every writer leaves a clean buffer."""
    env, bm, _, _ = build_system(buffer_size=16,
                                 update_strategy=UpdateStrategy.FORCE)

    def tx_proc(tx, refs):
        for ref in refs:
            yield from bm.fix_page(tx, ref)
        yield from bm.commit(tx)

    for i, (page, is_write) in enumerate(accesses):
        tx = Transaction(i + 1, "t", [])
        tx.is_update = is_write
        env.process(tx_proc(tx, [ObjectRef(0, page, page, is_write)]))
    env.run()
    dirty = [e.key for e in bm.mm.items_mru_to_lru() if e.dirty]
    assert dirty == []


# -- batched prewarm ≡ reference-at-a-time replay -----------------------------
#
# The oracle is the reference-at-a-time prewarm the buffer manager had
# before ``prewarm_references`` replaced it, kept verbatim apart from
# ``self`` becoming ``bm``.

def oracle_prewarm_reference(bm, partition_index, page_no, is_write):
    if bm._part_mem_resident[partition_index]:
        return
    is_write = is_write and bm._noforce
    key = (partition_index, page_no)
    entry = bm.mm.get(key)
    if entry is not None:
        if is_write and not entry.dirty:
            entry.dirty = True
        return
    part = bm.partitions[partition_index]
    nvem_resident = bm.storage.is_nvem_resident(part.name)
    if not nvem_resident:
        if bm.nvem_cache is not None and \
                part.nvem_caching is not NVEMCachingMode.NONE and \
                key in bm.nvem_cache:
            bm.nvem_cache.get(key)  # touch
            if bm.cm.update_strategy is UpdateStrategy.NOFORCE:
                bm.nvem_cache.remove(key)
        else:
            unit = bm.storage.unit_of(part.name)
            if unit is not None and unit.cache is not None:
                decision = unit.cache.on_read(key)
                if not decision.hit:
                    unit.cache.on_read_fill(key)
    while len(bm.mm) >= bm.mm.capacity:
        victim = bm.mm.victim()
        oracle_prewarm_displace(bm, victim)
        bm.mm.remove(victim.key)
    bm.mm.insert(key, dirty=is_write)


def oracle_prewarm_displace(bm, victim):
    vpart = bm.partitions[victim.key[0]]
    if bm.storage.is_nvem_resident(vpart.name):
        return
    if bm._migrates_to_nvem(vpart, dirty=victim.dirty):
        oracle_prewarm_nvem_insert(bm, victim.key)
        return
    if victim.dirty:
        unit = bm.storage.unit_of(vpart.name)
        if unit is not None and unit.cache is not None:
            decision = unit.cache.on_write(victim.key)
            unit.cache.on_disk_write_complete(decision.entry)


def oracle_prewarm_nvem_insert(bm, key):
    cache = bm.nvem_cache
    if key in cache:
        cache.get(key)
        return
    while cache.is_full:
        victim = cache.victim()
        cache.remove(victim.key)
    cache.insert(key, dirty=False)


def cache_state(policy):
    """Entries in the policy's own order, with dirty (and CLOCK
    reference) bits; ``None`` for an absent level."""
    if policy is None:
        return None
    return [(e.key, e.dirty, getattr(e, "referenced", None))
            for e in policy.entries()]


def hierarchy_state(bm):
    disk_caches = {}
    for name, unit in sorted(bm.storage.units.items()):
        cache = getattr(unit, "cache", None)
        if cache is not None:
            disk_caches[name] = (cache_state(cache.lru),
                                 cache.stats.as_dict())
    return (cache_state(bm.mm), cache_state(bm.nvem_cache), disk_caches)


prewarm_refs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=8), st.booleans()),
    min_size=1, max_size=80,
)


@given(
    refs=prewarm_refs,
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
    mode=st.sampled_from(list(NVEMCachingMode)),
    unit_type=st.sampled_from([DiskUnitType.REGULAR,
                               DiskUnitType.VOLATILE_CACHE,
                               DiskUnitType.NONVOLATILE_CACHE]),
    allocation=st.sampled_from(["db0", "db0", NVEM, MEMORY]),
    mm_policy=st.sampled_from(["lru", "clock", "2q"]),
    buffer_size=st.integers(min_value=1, max_value=3),
    nvem_cache_size=st.integers(min_value=1, max_value=3),
    disk_cache_size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_batched_prewarm_matches_reference_at_a_time(
        refs, strategy, mode, unit_type, allocation, mm_policy, buffer_size,
        nvem_cache_size, disk_cache_size):
    def build():
        return build_system(
            buffer_size=buffer_size, update_strategy=strategy,
            nvem_caching=mode,
            nvem_cache_size=0 if mode is NVEMCachingMode.NONE
            else nvem_cache_size,
            allocation=allocation, unit_type=unit_type,
            cache_size=0 if unit_type is DiskUnitType.REGULAR
            else disk_cache_size,
            mm_policy=PolicySpec(mm_policy),
        )[1]

    try:
        oracle = build()
    except ValueError:
        assume(False)  # e.g. NVEM caching over a caching disk unit
    batched = build()
    for partition_index, page_no, is_write in refs:
        oracle_prewarm_reference(oracle, partition_index, page_no, is_write)
    batched.prewarm_references(iter(refs))
    assert hierarchy_state(batched) == hierarchy_state(oracle)
    # The one-reference wrapper takes the same path.
    single = build()
    for partition_index, page_no, is_write in refs:
        single.prewarm_reference(partition_index, page_no, is_write)
    assert hierarchy_state(single) == hierarchy_state(oracle)
