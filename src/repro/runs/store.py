"""Persistent result store for experiment runs.

A :class:`RunStore` is a directory holding:

* ``manifest.json`` — the sweep declaration (written once, hash-checked on
  reopen so a journal can never be extended under a different manifest);
* ``journal.jsonl`` — an append-only journal with one JSON record per
  completed work unit, plus ``quarantine`` records for poison units that
  burned every execution attempt (resume skips them instead of re-running
  them forever) and ``warning`` records for degraded-execution events
  (serial fallback, pool rebuilds).

Appends are single ``O_APPEND`` writes of one line, so disjoint shard
processes can safely fill one journal concurrently.  On load, a corrupted,
truncated, or schema-invalid line (the signature of a crash mid-write) is
dropped and counted in :attr:`RunStore.recovered_lines`; the unit it
described simply re-runs.  A store remembers how many journal bytes it has
consumed, so :meth:`RunStore.refresh` picks up other writers' appends by
reading only the new tail.  ``RunStore.open()`` resolves the directory from
the ``REPRO_RUN_DIR`` environment variable when none is given;
``RunStore.ephemeral()`` keeps the journal purely in memory for library
callers that do not want persistence.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..bench.jobs import CheckOutcome
from .manifest import RunManifest, WorkUnit

#: Environment variable naming the default run directory.
RUN_DIR_ENV = "REPRO_RUN_DIR"

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "journal.jsonl"


class RunStoreError(RuntimeError):
    """Raised on store misuse (missing directory, manifest mismatch, ...)."""


#: An outcome payload missing any of these cannot rebuild a CheckOutcome.
_REQUIRED_OUTCOME_FIELDS = ("sample_index", "temperature", "syntax_ok")


def _valid_record(record) -> bool:
    """Schema gate for journal lines: parseable JSON is not enough.

    A torn write can leave a line that *is* valid JSON (e.g. the tail of one
    record completing the head of another) but describes nothing the
    aggregators can use; admitting it would crash reporting much later, far
    from the corruption.  Invalid lines are dropped at load like torn ones.
    """
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return False
    kind = record.get("kind", "unit")
    if kind == "unit":
        outcome = record.get("outcome")
        return isinstance(outcome, dict) and all(
            name in outcome for name in _REQUIRED_OUTCOME_FIELDS
        )
    if kind == "quarantine":
        return isinstance(record.get("quarantine"), dict)
    if kind == "warning":
        return isinstance(record.get("warning"), dict)
    return False


class RunStore:
    """Append-only journal + index of completed work units."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self.recovered_lines = 0
        self._records: list[dict] = []
        self._index: dict[str, dict] = {}
        #: Journal bytes consumed so far, and the inode they were read from.
        self._offset = 0
        self._inode: int | None = None
        #: Bumped whenever the in-memory journal is discarded and re-read, so
        #: holders of a position in :meth:`records` know to start over.
        self.generation = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_journal()

    # ------------------------------------------------------------------ constructors
    @classmethod
    def open(cls, directory: str | Path | None = None) -> "RunStore":
        """Open (creating if needed) the run directory, defaulting to $REPRO_RUN_DIR."""
        directory = directory or os.environ.get(RUN_DIR_ENV)
        if not directory:
            raise RunStoreError(
                f"no run directory given and {RUN_DIR_ENV} is not set"
            )
        return cls(directory)

    @classmethod
    def ephemeral(cls) -> "RunStore":
        """A store with no backing directory (in-memory journal only)."""
        return cls(None)

    @property
    def persistent(self) -> bool:
        return self.directory is not None

    # ------------------------------------------------------------------ manifest
    def write_manifest(self, manifest: RunManifest) -> None:
        """Persist the manifest, or validate it against the one already stored."""
        existing = self.load_manifest()
        if existing is not None:
            if existing.manifest_hash != manifest.manifest_hash:
                raise RunStoreError(
                    "run directory already holds a different manifest "
                    f"({existing.manifest_hash[:12]} != {manifest.manifest_hash[:12]})"
                )
            return
        if self.directory is not None:
            path = self.directory / MANIFEST_FILENAME
            path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
        self._manifest = manifest

    def load_manifest(self) -> RunManifest | None:
        """The stored manifest, or None when the store has none yet."""
        cached = getattr(self, "_manifest", None)
        if cached is not None:
            return cached
        if self.directory is None:
            return None
        path = self.directory / MANIFEST_FILENAME
        if not path.exists():
            return None
        manifest = RunManifest.from_dict(json.loads(path.read_text()))
        self._manifest = manifest
        return manifest

    # ------------------------------------------------------------------ journal
    def _journal_path(self) -> Path:
        assert self.directory is not None
        return self.directory / JOURNAL_FILENAME

    def _load_journal(self) -> None:
        """Consume the journal bytes appended since the last call.

        This is the only parse path: the constructor calls it from offset 0,
        :meth:`refresh` from the offset already consumed.  A journal that
        shrank below that offset or was replaced (new inode) is re-read from
        the start; one rewritten in place to at least its old length is not
        detected.
        """
        path = self._journal_path()
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            if self._inode is not None:
                self._reset()  # the journal was removed: as a fresh store sees it
            return
        with handle:
            stat = os.fstat(handle.fileno())
            if self._inode is not None and (
                stat.st_ino != self._inode or stat.st_size < self._offset
            ):
                self._reset()
            self._inode = stat.st_ino
            handle.seek(self._offset)
            data = handle.read()
            if data and not data.endswith((b"\n", b"\r")):
                # A crash tore the final append mid-line.  Terminate it so
                # later appends land on their own line instead of gluing onto
                # the torn tail (which would corrupt them too), then re-read:
                # an append that was merely still in flight is now whole.
                with open(path, "a") as repair:
                    repair.write("\n")
                handle.seek(self._offset)
                data = handle.read()
        # Consume whole lines only; a fragment still being appended by another
        # process waits for the next call.
        end = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        self._offset += end
        # Text-mode semantics: replacement decoding and universal newlines.
        text = data[:end].decode("utf-8", errors="replace")
        for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not _valid_record(record):
                    raise ValueError("not a journal record")
            except ValueError:
                # A torn, corrupted, or schema-invalid line — expected for the
                # trailing line after a crash mid-append; the unit it
                # described re-runs.
                self.recovered_lines += 1
                continue
            self._admit(record)

    def _reset(self) -> None:
        self.recovered_lines = 0
        self._records = []
        self._index = {}
        self._offset = 0
        self._inode = None
        self.generation += 1

    def _admit(self, record: dict) -> bool:
        key = record["key"]
        if key in self._index:
            return False
        self._records.append(record)
        self._index[key] = record
        return True

    def _append(self, record: dict) -> bool:
        if not self._admit(record):
            return False
        if self.directory is not None:
            line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            # One O_APPEND write per record: concurrent shard processes
            # interleave whole lines, never halves of them.
            fd = os.open(
                self._journal_path(), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                data = line.encode("utf-8")
                os.write(fd, data)
                # Our own line directly follows what this store has consumed:
                # step over it instead of re-reading it on the next refresh.
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if end - len(data) == self._offset:
                    inode = os.fstat(fd).st_ino
                    if self._inode in (None, inode):
                        self._inode = inode
                        self._offset = end
            finally:
                os.close(fd)
        return True

    def _unit_header(self, unit: WorkUnit) -> dict:
        return {
            "key": unit.key,
            "manifest": unit.manifest_hash,
            "profile": unit.profile_id,
            "suite": unit.suite_id,
            "task": unit.task_id,
            "temperature": unit.temperature,
            "sample": unit.sample_index,
        }

    def record(self, unit: WorkUnit, outcome: CheckOutcome) -> bool:
        """Journal one completed unit (idempotent; returns False on repeat)."""
        record = {"kind": "unit", "outcome": outcome.to_dict(), **self._unit_header(unit)}
        return self._append(record)

    def record_quarantine(
        self,
        unit: WorkUnit,
        *,
        attempts: int,
        error: str,
        degradation: Sequence[str] = (),
    ) -> bool:
        """Journal a poison unit: it burned every attempt and must not re-run.

        The record claims the unit's key, so resume treats the unit as done
        (skipping it) while the aggregators and ``status`` count it as
        quarantined rather than scored.
        """
        record = {
            "kind": "quarantine",
            "quarantine": {
                "attempts": int(attempts),
                "error": str(error),
                "degradation": list(degradation),
            },
            **self._unit_header(unit),
        }
        return self._append(record)

    def record_warning(
        self, category: str, message: str, detail: Mapping | None = None
    ) -> bool:
        """Journal a degraded-execution warning (serial fallback, pool churn).

        Warnings are keyed by their content hash, so the same condition
        reported by several shards (or re-invocations) lands once.
        """
        payload: dict = {"category": str(category), "message": str(message)}
        if detail:
            payload["detail"] = dict(detail)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        record = {
            "kind": "warning",
            "key": f"warning:{digest[:16]}",
            "warning": payload,
        }
        return self._append(record)

    # ------------------------------------------------------------------ queries
    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._records)

    def completed_keys(self) -> set[str]:
        return set(self._index)

    def records(self, start: int = 0) -> Iterator[dict]:
        """Journal records in append order, from position ``start`` on."""
        return iter(self._records[start:])

    def quarantined_records(self) -> list[dict]:
        """Quarantine records in append order."""
        return [r for r in self._records if r.get("kind") == "quarantine"]

    def warning_records(self) -> list[dict]:
        """Warning records in append order."""
        return [r for r in self._records if r.get("kind") == "warning"]

    def outcome_for(self, key: str) -> CheckOutcome | None:
        record = self._index.get(key)
        if record is None or "outcome" not in record:
            return None
        return CheckOutcome.from_dict(record["outcome"])

    def refresh(self) -> None:
        """Catch up on the journal lines appended since the last read.

        Costs work in proportion to the new bytes only.  A store that only
        reads then holds what a freshly constructed one would (records, keys
        and ``recovered_lines``).  A store that also appends without catching
        up first may order its own records differently, or keep its own
        record for a key another writer journaled first.
        """
        if self.directory is not None:
            self._load_journal()

    def reload(self) -> None:
        """Re-read the whole journal from disk (pick up other shards' appends)."""
        if self.directory is None:
            return
        self._reset()
        self._load_journal()


def outcome_from_record(record: Mapping) -> CheckOutcome:
    """Decode the outcome payload of one journal record."""
    return CheckOutcome.from_dict(record["outcome"])
