"""Database traces: format, I/O and the trace-driven SOURCE (§3.1).

A trace records, per transaction, its type and every page reference
with its access mode.  The trace-driven SOURCE replays transactions in
their original order at a configurable arrival rate (one common rate,
or one rate per transaction type — both as in the paper).

Storage is columnar (numpy arrays) so the million-access trace of
§4.6 fits comfortably in memory; a line-oriented text format
(:func:`write_trace` / :func:`read_trace`) allows interchange with real
trace data.  A trace is recorded reference by reference into typed
stdlib ``array`` columns (:class:`TraceColumns`) and handed to numpy
once, when the :class:`Trace` is built.  numpy is imported only there
and in the few functions that use it, so the synthetic studies, which
never build a trace, run without loading (or installing) it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.core.config import CCMode, NVEMCachingMode, PartitionConfig
from repro.core.transaction import ObjectRef, Transaction

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Trace",
    "TraceColumns",
    "TraceFile",
    "TraceTransaction",
    "TraceWorkload",
    "build_trace_partitions",
    "read_trace",
    "write_trace",
]

#: References unboxed per step when replaying the columns: bounded so a
#: replay never holds a whole column as Python objects.
REPLAY_CHUNK = 4096


def _numpy():
    """The numpy module, imported on first use by a trace."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "trace-driven workloads need numpy (pip install numpy); the "
            "synthetic Debit-Credit, cluster and recovery studies run "
            "without it"
        ) from exc
    return numpy


@dataclass(frozen=True)
class TraceFile:
    """One database file referenced by the trace."""

    name: str
    num_pages: int


class TraceTransaction:
    """A materialized trace transaction: type + (file, page, write) refs."""

    __slots__ = ("type_name", "refs")

    def __init__(self, type_name: str,
                 refs: Sequence[Tuple[int, int, bool]]):
        self.type_name = type_name
        self.refs = list(refs)

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def is_update(self) -> bool:
        return any(w for _, _, w in self.refs)


class TraceColumns:
    """A trace being recorded: references are appended straight into
    typed ``array`` columns (``'h'`` file, ``'q'`` page, ``'b'`` write)
    and :meth:`end_transaction` closes the ones appended since the last
    close into one transaction (``'h'`` type index, ``'q'`` end offset).
    :meth:`to_trace` hands the columns over to a :class:`Trace`; nothing
    may be appended after that.
    """

    __slots__ = ("type_names", "_type_index", "tx_types", "offsets",
                 "file_ids", "pages", "writes")

    def __init__(self) -> None:
        self.type_names: List[str] = []
        self._type_index: Dict[str, int] = {}
        self.tx_types = array("h")
        self.offsets = array("q", (0,))
        self.file_ids = array("h")
        self.pages = array("q")
        self.writes = array("b")

    def append(self, file_id: int, page: int, is_write: bool) -> None:
        self.file_ids.append(file_id)
        self.pages.append(page)
        self.writes.append(is_write)

    def end_transaction(self, type_name: str) -> None:
        """Close the references appended since the last close into one
        transaction of ``type_name`` (types are numbered by first use)."""
        index = self._type_index.get(type_name)
        if index is None:
            index = self._type_index[type_name] = len(self.type_names)
            self.type_names.append(type_name)
        self.tx_types.append(index)
        self.offsets.append(len(self.file_ids))

    def to_trace(self, files: List[TraceFile]) -> "Trace":
        return Trace(files, self.type_names, self.tx_types, self.offsets,
                     self.file_ids, self.pages, self.writes)


class Trace:
    """Columnar trace: flat reference arrays + transaction boundaries.

    The columns may be given as anything numpy converts (numpy arrays,
    stdlib ``array`` columns, sequences); they are held as numpy arrays
    of fixed dtypes: ``int16`` types and file ids, ``int64`` offsets and
    pages, ``bool`` writes.  A column whose buffer already has its dtype
    is viewed, not copied.
    """

    def __init__(self, files: List[TraceFile], type_names: List[str],
                 tx_types: Sequence[int], offsets: Sequence[int],
                 file_ids: Sequence[int], pages: Sequence[int],
                 writes: Sequence[bool]):
        numpy = _numpy()
        self.files = files
        self.type_names = type_names
        self.tx_types: np.ndarray = numpy.asarray(tx_types, dtype=numpy.int16)
        self.offsets: np.ndarray = numpy.asarray(offsets, dtype=numpy.int64)
        self.file_ids: np.ndarray = numpy.asarray(file_ids, dtype=numpy.int16)
        self.pages: np.ndarray = numpy.asarray(pages, dtype=numpy.int64)
        self.writes: np.ndarray = numpy.asarray(writes, dtype=bool)
        if len(self.offsets) != len(self.tx_types) + 1:
            raise ValueError("offsets must have len(tx_types) + 1 entries")
        if not (len(self.file_ids) == len(self.pages) == len(self.writes)):
            raise ValueError("reference columns must have equal length")
        if len(self.offsets) and self.offsets[-1] != len(self.file_ids):
            raise ValueError("last offset must equal the reference count")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_transactions(cls, files: List[TraceFile],
                          transactions: Sequence[TraceTransaction]) -> "Trace":
        columns = TraceColumns()
        for tx in transactions:
            for file_id, page, is_write in tx.refs:
                columns.append(file_id, page, is_write)
            columns.end_transaction(tx.type_name)
        return columns.to_trace(files)

    def fingerprint_data(self) -> dict:
        """Point-cache identity: file table, type table and content
        digests of the columnar arrays (hashing the raw column bytes is
        exact and avoids materializing a million-access trace as JSON).
        """
        return {
            "files": self.files,
            "type_names": list(self.type_names),
            "columns": {
                "tx_types": self.tx_types,
                "offsets": self.offsets,
                "file_ids": self.file_ids,
                "pages": self.pages,
                "writes": self.writes,
            },
        }

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tx_types)

    def transaction(self, index: int) -> TraceTransaction:
        lo, hi = self.offsets[index:index + 2].tolist()
        refs = zip(self.file_ids[lo:hi].tolist(), self.pages[lo:hi].tolist(),
                   self.writes[lo:hi].tolist())
        return TraceTransaction(self.type_names[self.tx_types[index]], refs)

    def references(self, lo: int, hi: int) -> Iterator[Tuple[int, int, bool]]:
        """``(file_id, page, is_write)`` of flat references ``lo..hi-1``,
        unboxed :data:`REPLAY_CHUNK` at a time (never a whole column)."""
        for start in range(lo, hi, REPLAY_CHUNK):
            stop = min(start + REPLAY_CHUNK, hi)
            yield from zip(self.file_ids[start:stop].tolist(),
                           self.pages[start:stop].tolist(),
                           self.writes[start:stop].tolist())

    def iter_transactions(self) -> Iterator[TraceTransaction]:
        for i in range(len(self)):
            yield self.transaction(i)

    # -- statistics (the published marginals of §4.6) ------------------------
    @property
    def num_accesses(self) -> int:
        return len(self.file_ids)

    @property
    def write_fraction(self) -> float:
        if not len(self.writes):
            return 0.0
        return (float(_numpy().count_nonzero(self.writes))
                / len(self.writes))

    @property
    def update_tx_fraction(self) -> float:
        if not len(self):
            return 0.0
        updates = 0
        for i in range(len(self)):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            if self.writes[lo:hi].any():
                updates += 1
        return updates / len(self)

    @property
    def distinct_pages(self) -> int:
        numpy = _numpy()
        combined = self.file_ids.astype(numpy.int64) * (1 << 40) + self.pages
        return int(numpy.unique(combined).size)

    @property
    def largest_tx(self) -> int:
        if len(self) == 0:
            return 0
        return int(_numpy().diff(self.offsets).max())

    @property
    def mean_tx_size(self) -> float:
        if len(self) == 0:
            return 0.0
        return self.num_accesses / len(self)


def write_trace(trace: Trace, path: str) -> None:
    """Serialize a trace to the line-oriented interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# tpsim-trace v1\n")
        for file in trace.files:
            fh.write(f"F {file.name} {file.num_pages}\n")
        for tx in trace.iter_transactions():
            fh.write(f"T {tx.type_name}\n")
            for file_id, page, is_write in tx.refs:
                mode = "W" if is_write else "R"
                fh.write(f"A {file_id} {page} {mode}\n")


def read_trace(path: str) -> Trace:
    """Parse the interchange format back into a :class:`Trace`."""
    files: List[TraceFile] = []
    columns = TraceColumns()
    current_type: Optional[str] = None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "F" and len(parts) == 3:
                files.append(TraceFile(parts[1], int(parts[2])))
            elif parts[0] == "T" and len(parts) == 2:
                if current_type is not None:
                    columns.end_transaction(current_type)
                current_type = parts[1]
            elif parts[0] == "A" and len(parts) == 4:
                if current_type is None:
                    raise ValueError(
                        f"{path}:{lineno}: access before any transaction"
                    )
                mode = parts[3]
                if mode not in ("R", "W"):
                    raise ValueError(f"{path}:{lineno}: bad mode {mode!r}")
                columns.append(int(parts[1]), int(parts[2]), mode == "W")
            else:
                raise ValueError(f"{path}:{lineno}: unparseable line {line!r}")
    if current_type is not None:
        columns.end_transaction(current_type)
    return columns.to_trace(files)


def build_trace_partitions(
    trace: Trace,
    allocation: str = "db0",
    cc_mode: CCMode = CCMode.PAGE,
    nvem_caching: NVEMCachingMode = NVEMCachingMode.NONE,
    nvem_write_buffer: bool = False,
) -> List[PartitionConfig]:
    """One partition per trace file (page-granular objects)."""
    return [
        PartitionConfig(
            name=file.name,
            num_objects=file.num_pages,
            block_factor=1,
            cc_mode=cc_mode,
            allocation=allocation,
            nvem_caching=nvem_caching,
            nvem_write_buffer=nvem_write_buffer,
        )
        for file in trace.files
    ]


class TraceWorkload:
    """SOURCE replaying a trace at a Poisson arrival rate.

    ``arrival_rate`` applies to all transactions in original order; or
    pass ``per_type_rates`` (type name -> rate) for independent per-type
    replay, each preserving that type's internal order.  ``limit`` caps
    total submissions; ``loop`` wraps around the trace (useful for
    steady-state measurement windows longer than the trace).
    """

    def __init__(self, trace: Trace, arrival_rate: Optional[float] = None,
                 per_type_rates: Optional[Dict[str, float]] = None,
                 limit: Optional[int] = None, loop: bool = True):
        if (arrival_rate is None) == (per_type_rates is None):
            raise ValueError(
                "specify exactly one of arrival_rate / per_type_rates"
            )
        if arrival_rate is not None and arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.trace = trace
        self.arrival_rate = arrival_rate
        self.per_type_rates = per_type_rates
        self.limit = limit
        self.loop = loop
        self.submitted = 0
        self._tx_counter = 0
        #: Statistics tag of each file's references (bound in start()).
        self._tags: List[str] = []

    def fingerprint_data(self) -> dict:
        """Point-cache identity: replay parameters plus the trace
        content (``submitted``/counters are per-run state)."""
        return {
            "trace": self.trace,
            "arrival_rate": self.arrival_rate,
            "per_type_rates": self.per_type_rates,
            "limit": self.limit,
            "loop": self.loop,
        }

    def _to_transaction(self, index: int) -> Transaction:
        trace = self.trace
        tags = self._tags
        lo, hi = trace.offsets[index:index + 2].tolist()
        refs = [
            ObjectRef(file_id, page, page, is_write, tags[file_id])
            for file_id, page, is_write in zip(
                trace.file_ids[lo:hi].tolist(), trace.pages[lo:hi].tolist(),
                trace.writes[lo:hi].tolist())
        ]
        self._tx_counter += 1
        return Transaction(self._tx_counter,
                           trace.type_names[trace.tx_types[index]], refs)

    def _replay(self, system, indices: List[int], rate: float,
                stream: str):
        env = system.env
        mean_gap = 1.0 / rate
        position = 0
        while True:
            if self.limit is not None and self.submitted >= self.limit:
                return
            if position >= len(indices):
                if not self.loop:
                    return
                position = 0
            yield env.timeout(system.streams.exponential(stream, mean_gap))
            tx = self._to_transaction(indices[position])
            position += 1
            self.submitted += 1
            system.tm.submit(tx)

    def prewarm(self, system, max_accesses: int = 120_000) -> None:
        """Warm the cache levels by silently replaying trace references:
        whole transactions, up to the first one that brings the count
        of replayed references to ``max_accesses``."""
        offsets = self.trace.offsets
        start = int(offsets[0])
        # First transaction whose end reaches the budget (else the end).
        last = int(_numpy().searchsorted(offsets[1:], start + max_accesses))
        stop = int(offsets[min(last + 1, len(offsets) - 1)])
        system.bm.prewarm_references(self.trace.references(start, stop))

    def start(self, system) -> None:
        self._tags = [file.name for file in self.trace.files]
        if self.arrival_rate is not None:
            indices = list(range(len(self.trace)))
            system.env.process(
                self._replay(system, indices, self.arrival_rate,
                             "trace-arrivals")
            )
            return
        by_type: Dict[str, List[int]] = {}
        for i in range(len(self.trace)):
            name = self.trace.type_names[self.trace.tx_types[i]]
            by_type.setdefault(name, []).append(i)
        for name, rate in self.per_type_rates.items():
            if name not in by_type:
                raise ValueError(f"trace has no transactions of type {name!r}")
            if rate <= 0:
                continue
            system.env.process(
                self._replay(system, by_type[name], rate,
                             f"trace-arrivals-{name}")
            )
