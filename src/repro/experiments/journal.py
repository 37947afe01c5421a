"""Per-run checkpoint journals: append-only JSONL records of a sweep.

A journal makes one ``repro experiment run`` invocation *resumable* and
*observable*:

* **Resumable** — every completed point is appended (and flushed) as
  its own line, full serialized :class:`~repro.core.metrics.Results`
  included.  An interrupted run leaves a valid journal behind;
  ``--resume`` reloads it and recomputes only the missing points.
* **Observable** — ``repro watch`` tails the file and renders live
  per-figure progress (:mod:`repro.experiments.watch`).

Format (one JSON object per line)::

    {"type": "header", "version": 1, "run_key": ..., "ids": [...],
     "profile": ..., "seed": ..., "total_points": N,
     "per_experiment": {id: n}, ...}
    {"type": "point", "experiment": ..., "series": ..., "x": ...,
     "fingerprint": ..., "source": "computed|cache|resume",
     "response_ms": ..., "throughput": ..., "saturated": ...,
     "results": {...}}
    {"type": "done", "hits": ..., "misses": ..., ...}

The ``run_key`` identifies the *command* (experiment ids, profile, seed
override, code-version salt): ``--resume`` only
reuses a journal whose run key matches, so a journal from different
code or a different selection can never leak stale points into a run.
A torn final line (the writer died mid-append) is ignored on read.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["JOURNAL_VERSION", "JournalView", "RunJournal",
           "find_latest_journal", "read_run"]

JOURNAL_VERSION = 1

#: Name of the marker file (inside a runs directory) holding the file
#: name of the journal most recently written — what ``repro watch``
#: follows by default.
LATEST_MARKER = "LATEST"


@dataclass
class JournalView:
    """A parsed journal: header, point records, optional done record."""

    path: str
    header: Optional[Dict] = None
    points: List[Dict] = field(default_factory=list)
    done: Optional[Dict] = None

    @property
    def total_points(self) -> int:
        if self.header is None:
            return 0
        return int(self.header.get("total_points", 0))


def read_run(path: str) -> JournalView:
    """Parse a journal file, tolerating a torn trailing line."""
    view = JournalView(path=str(path))
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return view
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            # A writer died mid-append; everything before is valid.
            break
        kind = record.get("type")
        if kind == "header" and view.header is None:
            view.header = record
        elif kind == "point":
            view.points.append(record)
        elif kind == "done":
            view.done = record
    return view


class RunJournal:
    """Append-only writer for one run's journal file."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = None

    # -- lifecycle ---------------------------------------------------------
    def load_for_resume(self, run_key: str) -> Optional[JournalView]:
        """The existing journal, if it belongs to the same run.

        Returns ``None`` (caller starts fresh) when the file is missing
        or was written by a different command/run key.
        """
        view = read_run(self.path)
        if view.header is None:
            return None
        if view.header.get("version") != JOURNAL_VERSION:
            return None
        if view.header.get("run_key") != run_key:
            return None
        return view

    def start(self, header: Dict, append: bool = False) -> None:
        """Open the journal; write ``header`` unless appending to a
        resumed file (whose header is already on disk)."""
        path = Path(self.path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a" if append else "w",
                        encoding="utf-8")
        if not append:
            self._write({"type": "header", "version": JOURNAL_VERSION,
                         "created": time.time(), **header})
        marker = path.parent / LATEST_MARKER
        try:
            marker.write_text(path.name + "\n", encoding="utf-8")
        except OSError:  # pragma: no cover - marker is best-effort
            pass

    def record_point(self, record: Dict) -> None:
        self._write({"type": "point", **record})

    def finish(self, summary: Dict) -> None:
        self._write({"type": "done", "finished": time.time(), **summary})
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- internals ---------------------------------------------------------
    def _write(self, record: Dict) -> None:
        if self._fh is None:
            raise RuntimeError("journal not started")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        # Flush per record: a tail -f / `repro watch` reader and a
        # post-crash resume both see every completed point.
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - fsync is best-effort
            pass


def find_latest_journal(runs_dir: str) -> Optional[str]:
    """The journal to watch by default: the LATEST marker if valid,
    else the most recently modified ``*.jsonl`` in ``runs_dir``."""
    base = Path(runs_dir)
    marker = base / LATEST_MARKER
    try:
        name = marker.read_text(encoding="utf-8").strip()
        candidate = base / name
        if name and candidate.is_file():
            return str(candidate)
    except OSError:
        pass
    journals = sorted(base.glob("*.jsonl"),
                      key=lambda p: p.stat().st_mtime, reverse=True)
    return str(journals[0]) if journals else None
