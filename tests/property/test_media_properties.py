"""Property-based tests for the media-fault subsystem (hypothesis).

Four contracts the rest of the subsystem leans on:

* deterministic fault schedules replay bit-identically under the same
  seed — the experiments' cache keys assume it;
* the post-crash redo set is always a superset of the dirty-page table
  once volatile controller caches re-enter their pages;
* the fault gates' success path (no open window, device not lost) is a
  pure delegation: it never touches the RNG streams, so a schedule
  that stays in the future leaves the run identical to a media-free
  one;
* extent-based restore progress answers every availability query
  exactly as a per-page set of restored keys would.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import DeviceFault, MediaConfig
from repro.experiments.export import results_to_dict
from repro.recovery.tracker import RecoveryTracker
from repro.sim import Environment
from repro.storage.faults import MediaState

from tests.recovery.conftest import media_synthetic_system

RUN = dict(warmup=1.0, duration=6.0)

page_keys = st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=500))

transient_schedules = st.lists(
    st.builds(
        DeviceFault,
        device=st.sampled_from(["db0", "log0"]),
        time=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        kind=st.just("transient"),
        duration=st.floats(min_value=0.01, max_value=0.4,
                           allow_nan=False),
    ),
    min_size=1, max_size=3,
)


@given(faults=transient_schedules, seed=st.integers(1, 2**16))
@settings(max_examples=8, deadline=None)
def test_fault_schedule_replays_identically(faults, seed):
    """Same seed, same schedule: the whole results export matches."""
    exports = []
    for _ in range(2):
        system = media_synthetic_system(seed=seed, faults=tuple(faults))
        exports.append(results_to_dict(system.run(**RUN)))
    assert exports[0] == exports[1]


@given(faults=transient_schedules, seed=st.integers(1, 2**16))
@settings(max_examples=8, deadline=None)
def test_future_schedule_is_invisible(faults, seed):
    """Gates on the success path draw nothing and add no events: a
    schedule pushed past the end of the run leaves everything but the
    (all-zero) degraded block identical to a media-disabled run."""
    future = tuple(
        DeviceFault(device=fault.device, time=fault.time + 10_000.0,
                    kind="transient", duration=fault.duration)
        for fault in faults)
    gated = media_synthetic_system(seed=seed, faults=future)
    plain = media_synthetic_system(seed=seed, media_enabled=False)
    gated_dict = results_to_dict(gated.run(**RUN))
    plain_dict = results_to_dict(plain.run(**RUN))
    degraded = gated_dict.pop("degraded")
    assert degraded["io_retries"] == 0
    assert degraded["degraded_window"] == 0
    assert "degraded" not in plain_dict
    assert gated_dict == plain_dict


@given(
    dirty=st.lists(page_keys, max_size=30, unique=True),
    cleaned=st.lists(page_keys, max_size=10, unique=True),
    extra=st.lists(page_keys, max_size=30, unique=True),
    log_tail=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_redo_set_covers_dpt_and_cache_loss(dirty, cleaned, extra,
                                            log_tail):
    """on_crash returns DPT ∪ extra_redo: re-entering the volatile
    controller caches' pages can only grow the redo set, never shadow a
    dirty page."""
    clock = [0.0]
    tracker = RecoveryTracker(now=lambda: clock[0])
    for key in dirty:
        clock[0] += 0.001
        tracker.note_dirty(key)
    for key in cleaned:
        tracker.note_clean(key)
    dpt = set(dirty) - set(cleaned)
    snapshot = tracker.on_crash(time=clock[0], log_tail=log_tail,
                                in_flight=0, extra_redo=extra)
    redo = set(snapshot.dirty_pages)
    assert redo >= dpt
    assert redo >= set(extra)
    assert redo == dpt | set(extra)
    # A crash wipes the volatile bookkeeping with the buffer.
    assert tracker.dirty_page_count() == 0


@st.composite
def rebuilds(draw):
    """A device layout, its stale pages, and one rebuild's publication
    order: archive batches in any order (several workers finish out of
    order), then the stale pages redone one by one, with some stale
    keys republished early through ``page_restored``."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=120),
                          min_size=1, max_size=3))
    batch = draw(st.integers(min_value=1, max_value=40))
    extents = [(pidx, first, min(first + batch, size))
               for pidx, size in enumerate(sizes)
               for first in range(0, size, batch)]
    extents = draw(st.permutations(extents))
    keys = [(pidx, page) for pidx, size in enumerate(sizes)
            for page in range(size)]
    stale = draw(st.lists(st.sampled_from(keys), unique=True,
                          max_size=min(len(keys), 25)))
    early = draw(st.lists(st.sampled_from(stale), unique=True)
                 if stale else st.just([]))
    steps = [("extent", extent) for extent in extents]
    for key in early:
        steps.insert(draw(st.integers(0, len(steps))), ("page", key))
    steps.extend(("page", key) for key in sorted(stale))
    return sizes, stale, steps


@given(rebuild=rebuilds())
@settings(max_examples=150, deadline=None)
def test_restore_progress_matches_per_page_set(rebuild):
    sizes, stale, steps = rebuild
    state = MediaState(Environment(), MediaConfig(
        enabled=True,
        faults=(DeviceFault(device="db0", time=1.0, kind="loss"),)))
    state.mark_lost("db0")
    state.begin_restore("db0", set(stale))
    reference = set()
    # Every key of the layout plus a page past each partition's end, a
    # partition the device does not hold, and the NVEM gate's None.
    probes = [(pidx, page) for pidx, size in enumerate(sizes)
              for page in range(size + 1)]
    probes += [(len(sizes), 0), None]

    def agree():
        for key in probes:
            assert state.available("db0", key) == (key in reference), key

    agree()
    for kind, payload in steps:
        if kind == "extent":
            pidx, first, stop = payload
            state.extent_restored("db0", pidx, first, stop)
            reference.update(key for key in
                             ((pidx, page) for page in range(first, stop))
                             if key not in stale)
        else:
            state.page_restored("db0", payload)
            reference.add(payload)
        agree()
    # Everything the rebuild published is readable, the rest (None
    # included) waits for finish_restore.
    assert not state.available("db0", None)
    assert state.restoring["db0"].entries() <= (
        sum(1 for kind, _ in steps if kind == "extent") + len(stale))
    state.finish_restore("db0")
    assert all(state.available("db0", key) for key in probes)
    assert not state.restoring
