"""Write-ahead build journal: crash-consistent preprocessing state.

The journaled builder (:func:`repro.core.persistence.build_persistent_dataset`)
records its progress in a ``build.journal`` file next to the artifacts it
is producing.  The journal is the *only* authority on how far an
interrupted build got; everything else in the directory is either a
``.partial``/``.tmp`` staging file (invisible to readers) or a fully
committed artifact that was published with an atomic ``os.replace``.

Format
------
One JSON object per line, append-only, ``fsync``\\ 'd per append::

    {"type": "begin", "fingerprint": {...}, "n_records": N,
     "record_size": R, "group_records": G, "rev": 1, "crc": ...}
    {"type": "group", "index": 0, "records_done": G, "cum_crc": C0, "crc": ...}
    {"type": "group", "index": 1, "records_done": 2*G, "cum_crc": C1, "crc": ...}
    ...
    {"type": "commit", "crc": ...}

* ``fingerprint`` ties the journal to one exact build input (volume CRC,
  shapes, dtype, layout parameters).  A resumed build with a different
  fingerprint discards the journal and starts over — resuming someone
  else's half-built layout would corrupt it silently.
* each ``group`` record is appended *after* the group's record bytes are
  written **and fsync'd** to the ``.partial`` brick store, so a group
  mentioned in the journal is durable on disk up to the torn tail the
  crash itself produced.  ``cum_crc`` is the cumulative CRC32 of the
  record stream through ``records_done`` records — resuming verifies the
  claim against the actual file bytes and walks back to the last group
  that still checks out.
* ``commit`` is appended after the last artifact rename; its presence
  means the dataset is fully published and the journal is garbage.

Every line carries a ``crc`` of its own canonical serialization, so a
line torn by the crash (the exact failure mode the journal exists to
survive) is detected and treated as absent — tail-tolerant parsing, the
same discipline as any WAL.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Journal file name inside a dataset directory.
JOURNAL_FILE = "build.journal"

#: Bump when the journal record schema changes incompatibly.
JOURNAL_REV = 1


def _canonical(record: dict) -> str:
    """Deterministic serialization used for both writing and the line CRC."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _seal(record: dict) -> str:
    """Attach the self-CRC and return the final line (without newline)."""
    body = _canonical(record)
    return _canonical({**record, "crc": zlib.crc32(body.encode("ascii"))})


def _unseal(line: str) -> "dict | None":
    """Parse one journal line; ``None`` when torn or tampered."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record or "type" not in record:
        return None
    claimed = record.pop("crc")
    if zlib.crc32(_canonical(record).encode("ascii")) != claimed:
        return None
    return record


@dataclass
class JournalState:
    """What a parsed journal says about an interrupted build."""

    #: The ``begin`` record's fingerprint (``None``: no valid begin line).
    fingerprint: "dict | None" = None
    #: Layout parameters from the begin record.
    n_records: int = 0
    record_size: int = 0
    group_records: int = 0
    #: Journaled group records in append order.
    groups: "list[dict]" = field(default_factory=list)
    #: True when a ``commit`` record was found (dataset fully published).
    committed: bool = False
    #: Lines dropped by tail-tolerant parsing (torn/corrupt).
    torn_lines: int = 0

    @property
    def records_done(self) -> int:
        """Records the journal *claims* are durable (before re-verification)."""
        return int(self.groups[-1]["records_done"]) if self.groups else 0


class BuildJournal:
    """Append-only, fsync'd write-ahead journal for one build directory.

    Appends are durable before :meth:`group` / :meth:`commit` return:
    the line is written, flushed, and ``fsync``'d in one call, so a crash
    at any instruction boundary leaves at most one torn trailing line —
    which the parser drops.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.path = Path(directory) / JOURNAL_FILE
        self._fh = None

    # -- writing -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="ascii")
        self._fh.write(_seal(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def begin(
        self,
        fingerprint: dict,
        n_records: int,
        record_size: int,
        group_records: int,
    ) -> None:
        self._append(
            {
                "type": "begin",
                "rev": JOURNAL_REV,
                "fingerprint": fingerprint,
                "n_records": int(n_records),
                "record_size": int(record_size),
                "group_records": int(group_records),
            }
        )

    def group(self, index: int, records_done: int, cum_crc: int) -> None:
        self._append(
            {
                "type": "group",
                "index": int(index),
                "records_done": int(records_done),
                "cum_crc": int(cum_crc),
            }
        )

    def note(self, event: str) -> None:
        """Informational marker (e.g. ``resume``); ignored by recovery."""
        self._append({"type": "note", "event": event})

    def commit(self) -> None:
        self._append({"type": "commit"})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def unlink(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "BuildJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    @classmethod
    def read_state(cls, directory: "str | Path") -> "JournalState | None":
        """Parse the directory's journal; ``None`` when there is none.

        Tail-tolerant: parsing stops at the first line that fails its
        self-CRC (a crash can tear at most the trailing append), and the
        build state reflects only the intact prefix.
        """
        path = Path(directory) / JOURNAL_FILE
        if not path.exists():
            return None
        state = JournalState()
        try:
            text = path.read_text(encoding="ascii", errors="replace")
        except OSError:  # pragma: no cover - unreadable journal
            return state
        for line in text.splitlines():
            if not line.strip():
                continue
            record = _unseal(line)
            if record is None:
                state.torn_lines += 1
                break
            if record["type"] == "begin" and state.fingerprint is None:
                state.fingerprint = record.get("fingerprint")
                state.n_records = int(record.get("n_records", 0))
                state.record_size = int(record.get("record_size", 0))
                state.group_records = int(record.get("group_records", 0))
            elif record["type"] == "group":
                state.groups.append(record)
            elif record["type"] == "commit":
                state.committed = True
        return state
