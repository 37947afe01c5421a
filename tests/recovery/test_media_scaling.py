"""Restore progress of a full-size media rebuild scales with the
rebuild's batches and stale pages, not with the device's page count.

The rebuild below is the ``media_redo`` kernel benchmark's: ``db0`` of
the paper's Debit-Credit layout (5.5M pages) restored from the archive
in 8192-page batches, with 1500 stale pages redone from the log.  The
assertions are on deterministic state size and on traced allocation,
never on wall-clock time.
"""

import tracemalloc

from repro.core.config import DeviceFault
from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.recovery.media import MediaRecoveryStats

WRITTEN_PAGES = 1500
LOG_PAGES = 600
BATCH_PAGES = 8192
#: Traced-allocation ceiling for the whole rebuild.  A per-page set of
#: restored keys needs hundreds of MB here.
PEAK_BYTES = 16 * 1024 * 1024


class _IdleWorkload:
    def start(self, system):
        pass


def _armed_system():
    config = debit_credit_config(disk_only())
    config.media.enabled = True
    # Never fires inside the test: it only arms gate, tracker, archive.
    config.media.faults = (
        DeviceFault(device="db0", time=1e9, kind="loss"),)
    config.media.archive_batch_pages = BATCH_PAGES
    system = TransactionSystem(config, _IdleWorkload(), seed=11)
    tracker = system.storage.media_tracker
    for page in range(WRITTEN_PAGES):
        tracker.note_write("db0", (0, page))
    system.storage._log_page = LOG_PAGES
    return system


def test_full_db0_rebuild_state_and_peak_stay_small():
    system = _armed_system()
    state = system.storage.media_state
    last_pages = [(pidx, part.num_pages - 1)
                  for pidx, part in enumerate(system.config.partitions)
                  if part.allocation == "db0"]
    device_pages = sum(page + 1 for _, page in last_pages)
    assert device_pages > 5_000_000

    # Capture the progress object just before finish_restore drops it.
    final = {}
    finish = state.finish_restore

    def finish_restore(device):
        final["entries"] = state.restoring[device].entries()
        final["probe"] = [state.available(device, key) for key in
                          [(0, 0), (0, WRITTEN_PAGES)] + last_pages]
        finish(device)

    state.finish_restore = finish_restore
    state.mark_lost("db0")
    stats = MediaRecoveryStats("db0", system.env.now)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        done = system.env.process(
            system.media.recoverer.recover_device("db0", stats))
        system.env.run(until=done)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert stats.restore_pages == device_pages
    assert stats.redo_pages == WRITTEN_PAGES
    assert stats.log_pages == LOG_PAGES
    assert stats.restore_batches > 600
    assert final["entries"] <= stats.restore_batches + WRITTEN_PAGES
    assert all(final["probe"])
    assert not state.lost and not state.restoring
    assert peak < PEAK_BYTES, f"rebuild traced peak {peak / 2**20:.1f} MB"
