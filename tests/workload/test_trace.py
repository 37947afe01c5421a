"""Unit tests for traces: format, I/O, workload, generator."""

import hashlib
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.core.model import TransactionSystem
from repro.experiments import trace_setup

from repro.workload.trace import (
    Trace,
    TraceFile,
    TraceTransaction,
    TraceWorkload,
    build_trace_partitions,
    read_trace,
    write_trace,
)
from repro.workload.tracegen import RealWorkloadProfile, generate_trace


def tiny_trace():
    files = [TraceFile("f0", 100), TraceFile("f1", 50)]
    txs = [
        TraceTransaction("query", [(0, 1, False), (0, 2, False)]),
        TraceTransaction("update", [(1, 3, True), (0, 1, False)]),
        TraceTransaction("query", [(1, 4, False)]),
    ]
    return Trace.from_transactions(files, txs)


class TestTraceContainer:
    def test_lengths(self):
        trace = tiny_trace()
        assert len(trace) == 3
        assert trace.num_accesses == 5

    def test_transaction_roundtrip(self):
        trace = tiny_trace()
        tx = trace.transaction(1)
        assert tx.type_name == "update"
        assert tx.refs == [(1, 3, True), (0, 1, False)]
        assert tx.is_update

    def test_statistics(self):
        trace = tiny_trace()
        assert trace.write_fraction == pytest.approx(0.2)
        assert trace.update_tx_fraction == pytest.approx(1 / 3)
        assert trace.distinct_pages == 4  # (0,1),(0,2),(1,3),(1,4)
        assert trace.largest_tx == 2
        assert trace.mean_tx_size == pytest.approx(5 / 3)

    def test_iter_transactions(self):
        trace = tiny_trace()
        types = [tx.type_name for tx in trace.iter_transactions()]
        assert types == ["query", "update", "query"]

    def test_offset_validation(self):
        import numpy as np
        with pytest.raises(ValueError):
            Trace([], [], np.zeros(1, dtype=np.int16),
                  np.zeros(1, dtype=np.int64),
                  np.zeros(0, dtype=np.int16),
                  np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))


class TestTraceIO:
    def test_write_read_roundtrip(self, tmp_path):
        trace = tiny_trace()
        path = str(tmp_path / "trace.txt")
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.num_accesses == trace.num_accesses
        assert [f.name for f in loaded.files] == ["f0", "f1"]
        for i in range(len(trace)):
            a, b = trace.transaction(i), loaded.transaction(i)
            assert a.type_name == b.type_name
            assert a.refs == b.refs

    def test_read_rejects_access_before_transaction(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A 0 1 R\n")
        with pytest.raises(ValueError, match="before any transaction"):
            read_trace(str(path))

    def test_read_rejects_bad_mode(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T q\nA 0 1 Z\n")
        with pytest.raises(ValueError, match="bad mode"):
            read_trace(str(path))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("WHAT 1 2 3\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_trace(str(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\n\nF f0 10\nT q\nA 0 1 R\n")
        trace = read_trace(str(path))
        assert len(trace) == 1


class TestBuildPartitions:
    def test_one_partition_per_file(self):
        parts = build_trace_partitions(tiny_trace(), allocation="db0")
        assert [p.name for p in parts] == ["f0", "f1"]
        assert parts[0].num_objects == 100
        assert parts[0].block_factor == 1


class TestTraceWorkload:
    def test_requires_exactly_one_rate_spec(self):
        trace = tiny_trace()
        with pytest.raises(ValueError):
            TraceWorkload(trace)
        with pytest.raises(ValueError):
            TraceWorkload(trace, arrival_rate=1.0,
                          per_type_rates={"query": 1.0})

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TraceWorkload(tiny_trace(), arrival_rate=0.0)

    def test_per_type_rates_unknown_type(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, per_type_rates={"ghost": 1.0})
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        with pytest.raises(ValueError, match="no transactions of type"):
            system.start_workload()

    def test_replay_preserves_order_and_converts_refs(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, arrival_rate=100.0, loop=False)
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        submitted = []
        original = system.tm.submit

        def spy(tx):
            submitted.append(tx)
            original(tx)

        system.tm.submit = spy
        system.start_workload()
        system.env.run(until=5.0)
        assert [tx.tx_type for tx in submitted] == \
            ["query", "update", "query"]
        names = [file.name for file in trace.files]
        for i, tx in enumerate(submitted):
            assert [(ref.partition_index, ref.object_no, ref.page_no,
                     ref.is_write, ref.tag) for ref in tx.refs] == \
                [(file_id, page, page, is_write, names[file_id])
                 for file_id, page, is_write in trace.transaction(i).refs]
        assert submitted[1].is_update and not submitted[0].is_update

    def test_loop_wraps_around(self):
        from repro.core.config import CMConfig, LogAllocation, NVEM, NVEMConfig, SystemConfig
        from repro.core.model import TransactionSystem

        trace = tiny_trace()
        workload = TraceWorkload(trace, arrival_rate=100.0, loop=True,
                                 limit=7)
        config = SystemConfig(
            partitions=build_trace_partitions(trace, allocation=NVEM),
            disk_units=[],
            nvem=NVEMConfig(),
            cm=CMConfig(),
            log=LogAllocation(device=NVEM),
        )
        system = TransactionSystem(config, workload)
        system.start_workload()
        system.env.run(until=5.0)
        assert workload.submitted == 7


class TestTraceGenerator:
    @pytest.fixture(scope="class")
    def trace(self):
        profile = RealWorkloadProfile(
            num_transactions=800,
            target_accesses=45_000,
            adhoc_count=1,
            adhoc_accesses=3_000,
            total_pages=20_000,
        )
        return generate_trace(profile, seed=7)

    def test_transaction_count(self, trace):
        assert len(trace) == 800

    def test_access_volume_near_target(self, trace):
        assert trace.num_accesses == pytest.approx(45_000, rel=0.15)

    def test_twelve_types(self, trace):
        assert len(trace.type_names) == 12

    def test_write_fraction_near_published(self, trace):
        assert trace.write_fraction == pytest.approx(0.016, rel=0.35)

    def test_update_tx_fraction_near_published(self, trace):
        assert trace.update_tx_fraction == pytest.approx(0.20, abs=0.05)

    def test_adhoc_is_largest_and_sequential(self, trace):
        assert trace.largest_tx == 3_000
        for tx in trace.iter_transactions():
            if tx.type_name == "adhoc-query":
                pages = [page for _, page, _ in tx.refs]
                file_size = trace.files[0].num_pages
                for prev, nxt in zip(pages, pages[1:]):
                    assert nxt == (prev + 1) % file_size
                assert not tx.is_update
                break
        else:  # pragma: no cover
            pytest.fail("no ad-hoc query found")

    def test_thirteen_files_and_footprint(self, trace):
        assert len(trace.files) == 13
        assert sum(f.num_pages for f in trace.files) == 20_000

    def test_pages_within_file_bounds(self, trace):
        for i in range(len(trace)):
            for file_id, page, _ in trace.transaction(i).refs:
                assert 0 <= page < trace.files[file_id].num_pages

    def test_update_transactions_write_at_least_once(self, trace):
        for tx in trace.iter_transactions():
            writes = sum(1 for _, _, w in tx.refs if w)
            if writes:
                assert tx.is_update

    def test_deterministic_for_seed(self):
        profile = RealWorkloadProfile(
            num_transactions=100, target_accesses=4000,
            adhoc_count=0, total_pages=5000,
        )
        a = generate_trace(profile, seed=3)
        b = generate_trace(profile, seed=3)
        assert a.num_accesses == b.num_accesses
        assert a.transaction(50).refs == b.transaction(50).refs

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RealWorkloadProfile(num_types=5).validate()
        with pytest.raises(ValueError):
            RealWorkloadProfile(locality_sizes=(0.5, 0.5, 0.5)).validate()
        with pytest.raises(ValueError):
            RealWorkloadProfile(update_tx_fraction=1.5).validate()


class TestGeneratedTracePins:
    """The experiments' traces, pinned column by column: any change to
    the generator's draws or to the columnar encoding moves a digest."""

    @pytest.mark.parametrize("fast, seed, digest", [
        (True, 42,
         "1d7d4a57d4dcebc0d6415e5e991fd3a513ef95df0f2f23ce6677651b7dfb710f"),
        (True, 7,
         "8cbfbde728528a1ff48e407b0e454f05807bdfb8ae52305ed700d68230c32ade"),
        (False, 42,
         "53e57cc99f3025063a4bd0d36dc9b352513381bce0d0e33cc21c196d7e1b0b65"),
        (False, 7,
         "a9e9d4e9fd012cce053eaf86da3ea90242534feed5c07808121b5f9dcfe12a5b"),
    ])
    def test_trace_columns_digest(self, fast, seed, digest):
        trace = trace_setup.trace_for.__wrapped__(fast=fast, seed=seed)
        sha = hashlib.sha256()
        for column in (trace.tx_types, trace.offsets, trace.file_ids,
                       trace.pages, trace.writes):
            sha.update(column.tobytes())
        assert sha.hexdigest() == digest


class TestTraceGenerationMemory:
    def test_generation_peak_stays_bounded(self):
        """Generation appends each reference straight into typed
        columns: the peak allocation is the columns themselves (~1 MB
        for the fast trace's 90k references), not a Python tuple per
        reference (~8 MB)."""
        tiny_trace()  # loads numpy: its import is not the generator's
        tracemalloc.start()
        try:
            trace = trace_setup.trace_for.__wrapped__(fast=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.num_accesses > 80_000
        assert peak < 4 * 2**20


class TestTracePrewarm:
    def test_prewarm_feeds_whole_transactions_up_to_budget(self):
        class Recorder:
            def __init__(self):
                self.refs = []

            def prewarm_references(self, refs):
                self.refs.extend(refs)

        trace = tiny_trace()  # transactions of 2, 2 and 1 references
        expected = [(0, 1, False), (0, 2, False), (1, 3, True),
                    (0, 1, False), (1, 4, False)]
        for budget, count in ((0, 2), (2, 2), (3, 4), (4, 4), (5, 5),
                              (10**6, 5)):
            system = SimpleNamespace(bm=Recorder())
            TraceWorkload(trace, arrival_rate=1.0).prewarm(
                system, max_accesses=budget)
            assert system.bm.refs == expected[:count], budget

    def test_references_span_chunks(self):
        trace = trace_setup.trace_for(fast=True)
        lo, hi = 10, 10 + 3 * 4096 + 7
        refs = list(trace.references(lo, hi))
        assert len(refs) == hi - lo
        assert refs[5000] == (int(trace.file_ids[lo + 5000]),
                              int(trace.pages[lo + 5000]),
                              bool(trace.writes[lo + 5000]))

    def test_full_trace_prewarm_memory_stays_bounded(self):
        """Replaying the full trace unboxes its columns a bounded chunk
        at a time: the peak allocation is the buffers' entries plus one
        chunk, never a whole column as Python objects (~20 MB)."""
        trace = trace_setup.trace_for(fast=False)
        assert trace.num_accesses > 300_000
        config = trace_setup.trace_config(trace, "nvem", 500,
                                          second_level=2000)
        workload = trace_setup.trace_workload(trace)
        system = TransactionSystem(config, workload)
        tracemalloc.start()
        try:
            workload.prewarm(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(system.bm.mm) == 500
        assert peak < 2 * 2**20
