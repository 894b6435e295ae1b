"""Durable file-backed broker: submitted manifests → leased work units.

The broker owns a directory tree, one subtree per submitted run::

    <broker_dir>/runs/<run_id>/
        store/manifest.json     the submitted RunManifest (RunStore-managed)
        store/journal.jsonl     completed/quarantined units (RunStore journal)
        units.json              the manifest's deterministic unit expansion
        leases/<unit_key>       one live lease per in-flight unit
        events.jsonl            append-only requeue/complete/quarantine events
        journal.lock            completion mutex (flock) for exactly-once appends

``run_id`` is the manifest hash, so resubmitting the same manifest is
idempotent: the second submission joins the first run instead of duplicating
its work.  Completed units land in the ordinary :class:`~repro.runs.store.RunStore`
journal, so everything built on the journal — resume, sharding, the streaming
aggregators, ``python -m repro.runs status/report`` pointed at
``runs/<id>/store`` — works unchanged on a service-filled run.

Lease protocol (at-least-once by construction):

* a worker *leases* pending units — one lease file per unit, created with an
  atomic hard link so exactly one worker wins each unit;
* the worker *heartbeats* its leases while executing (atomic rewrite extending
  ``expires_at``);
* any broker client sweeps *expired* leases during :meth:`FileBroker.lease`
  — the unit requeues and the sweep is journaled as a ``requeue`` event (the
  ``/metrics`` requeue counter);
* *completion* happens under an exclusive ``flock`` on ``journal.lock``:
  inside the lock the broker catches up on the journal tail (the bytes
  appended since its last read, not the whole file) and appends the outcome
  only if the unit's key is still absent, so two workers racing a requeued
  unit yield exactly one journal record.  (Verdicts are deterministic and
  content-addressed, so the loser's discarded verdict is identical anyway.)
* a unit whose lease has expired :data:`MAX_LEASE_ATTEMPTS` times is not
  handed out again: :meth:`FileBroker.lease` journals it as quarantined, so a
  unit that kills every worker that takes it cannot requeue forever.

Each :class:`FileBroker` keeps per-run state for its lifetime: the parsed
``units.json`` (written once, atomically, never changed), one tailing
:class:`~repro.runs.store.RunStore` view of the journal, a tail of
``events.jsonl`` (requeue counts, completion timestamps) and a cursor at the
first unit not yet journaled.  Every read path — leasing, completion,
status, metrics — therefore costs work in proportion to what is new since
its last call, not to the size of the run.  The state is per process;
other processes' appends reach it through the tails.

Everything is stdlib-only.  ``fcntl`` is used for the completion lock where
available (POSIX); elsewhere completion degrades to lease-holder discipline
plus the journal's load-time key dedup — still at-least-once-safe, no longer
exactly-one-line.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

try:  # POSIX-only; the completion lock degrades gracefully without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..bench.jobs import CheckOutcome
from ..runs.manifest import RunManifest, WorkUnit
from ..runs.resolve import ManifestResolver
from ..runs.store import RunStore

#: Environment variable naming the default broker directory.
BROKER_DIR_ENV = "REPRO_BROKER_DIR"

UNITS_FILENAME = "units.json"
EVENTS_FILENAME = "events.jsonl"
LOCK_FILENAME = "journal.lock"

#: Lease expiries after which a unit is quarantined instead of leased again.
MAX_LEASE_ATTEMPTS = 3


class BrokerError(RuntimeError):
    """Raised on broker misuse (unknown run, corrupt run directory, ...)."""


class AdmissionError(BrokerError):
    """Raised when a submission would exceed the queued-unit admission limit."""

    def __init__(self, message: str, *, queued: int, incoming: int, limit: int):
        super().__init__(message)
        self.queued = queued
        self.incoming = incoming
        self.limit = limit


@dataclass(frozen=True)
class SubmitReceipt:
    """What :meth:`FileBroker.submit` did."""

    run_id: str
    total_units: int
    created: bool  # False when the manifest was already queued (idempotent)


@dataclass
class Lease:
    """One worker's claim on one work unit, valid until ``expires_at``."""

    run_id: str
    unit: WorkUnit
    worker_id: str
    expires_at: float
    path: Path


@dataclass(frozen=True)
class RunStatus:
    """Point-in-time accounting of one run's units."""

    run_id: str
    name: str
    experiment: str
    total: int
    completed: int  # scored units in the journal
    quarantined: int
    leased: int  # live (unexpired) leases on un-journaled units
    requeues: int  # lease-expiry requeue events so far

    @property
    def accounted(self) -> int:
        return self.completed + self.quarantined

    @property
    def pending(self) -> int:
        """Units neither journaled nor under a live lease (the queue depth)."""
        return max(0, self.total - self.accounted - self.leased)

    @property
    def complete(self) -> bool:
        return self.accounted >= self.total

    @property
    def healthy(self) -> bool:
        return self.complete and self.quarantined == 0

    @property
    def percent(self) -> float:
        return 100.0 * self.accounted / self.total if self.total else 100.0

    @property
    def exit_code(self) -> int:
        """The ``python -m repro.runs status`` exit-code semantics."""
        if self.quarantined:
            return 4
        if not self.complete:
            return 3
        return 0

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "name": self.name,
            "experiment": self.experiment,
            "total_units": self.total,
            "completed_units": self.completed,
            "quarantined_units": self.quarantined,
            "leased_units": self.leased,
            "pending_units": self.pending,
            "requeues": self.requeues,
            "percent_complete": round(self.percent, 1),
            "complete": self.complete,
            "healthy": self.healthy,
            "exit_code": self.exit_code,
        }


def _parse_event(line: str) -> dict | None:
    """One ``events.jsonl`` line as an event, or None (blank or torn line)."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) and "event" in record else None


@dataclass
class _RunCache:
    """One run's state as one broker has read it so far."""

    store_dir: Path
    units: list[WorkUnit]
    unit_keys: frozenset[str]
    view: RunStore | None = None  # tailing journal view, opened on first use
    #: Index of the first unit not yet journaled.  Journaled keys never
    #: leave the journal, so leasing never looks behind it.
    cursor: int = 0
    #: View records tallied below, and the view generation they came from.
    counted: int = 0
    generation: int = 0
    journaled: int = 0  # this run's units with a journal record
    quarantined: int = 0
    latencies: list[float] = field(default_factory=list)  # sorted duration_s
    #: ``events.jsonl`` bytes consumed so far, and their inode.
    events_offset: int = 0
    events_inode: int | None = None
    requeues: dict[str, int] = field(default_factory=dict)  # unit key → count
    requeue_total: int = 0
    completions: list[float] = field(default_factory=list)  # sorted ``ts``

    def open_view(self) -> RunStore:
        if self.view is None:
            self.view = RunStore(self.store_dir)
        return self.view

    def manifest(self) -> RunManifest:
        return self.open_view().load_manifest()

    def catch_up(self, events_path: Path) -> None:
        """Fold in the journal and event lines appended since the last call."""
        view = self.open_view()
        view.refresh()
        if view.generation != self.generation:  # journal replaced: recount
            self.generation = view.generation
            self.cursor = self.counted = self.journaled = self.quarantined = 0
            self.latencies = []
        manifest_hash = self.manifest().manifest_hash
        for record in view.records(self.counted):
            self.counted += 1
            if record["key"] in self.unit_keys:
                self.journaled += 1
            kind = record.get("kind", "unit")
            if kind == "quarantine" and record.get("manifest") == manifest_hash:
                self.quarantined += 1
            elif kind == "unit":
                duration = record.get("outcome", {}).get("duration_s")
                if duration:
                    bisect.insort(self.latencies, float(duration))
        while self.cursor < len(self.units) and self.units[self.cursor].key in view:
            self.cursor += 1
        self.tail_events(events_path)

    def tail_events(self, path: Path) -> None:
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return
        with handle:
            stat = os.fstat(handle.fileno())
            if stat.st_ino != self.events_inode or stat.st_size < self.events_offset:
                self.events_offset = self.requeue_total = 0
                self.requeues = {}
                self.completions = []
                self.events_inode = stat.st_ino
            handle.seek(self.events_offset)
            data = handle.read()
        end = data.rfind(b"\n") + 1  # a line still being appended waits
        self.events_offset += end
        for line in data[:end].decode("utf-8", errors="replace").split("\n"):
            event = _parse_event(line)
            if event is None:
                continue
            if event["event"] == "requeue":
                key = event.get("key", "")
                self.requeues[key] = self.requeues.get(key, 0) + 1
                self.requeue_total += 1
            elif event["event"] == "complete":
                bisect.insort(self.completions, float(event.get("ts", 0.0)))


class FileBroker:
    """Durable broker over a directory tree; safe for concurrent processes."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        lease_ttl_s: float = 10.0,
        clock: Callable[[], float] = time.time,
    ):
        directory = directory or os.environ.get(BROKER_DIR_ENV)
        if not directory:
            raise BrokerError(
                f"no broker directory given and {BROKER_DIR_ENV} is not set"
            )
        self.directory = Path(directory)
        self.lease_ttl_s = float(lease_ttl_s)
        self._clock = clock
        self._runs: dict[str, _RunCache] = {}
        # Guards the per-run caches: the HTTP server calls in from many threads.
        self._lock = threading.RLock()
        (self.directory / "runs").mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ paths
    def _run_dir(self, run_id: str) -> Path:
        return self.directory / "runs" / run_id

    def store_dir(self, run_id: str) -> Path:
        """The run's :class:`RunStore` directory (journal + manifest)."""
        return self._run_dir(run_id) / "store"

    def _leases_dir(self, run_id: str) -> Path:
        return self._run_dir(run_id) / "leases"

    def _units_path(self, run_id: str) -> Path:
        return self._run_dir(run_id) / UNITS_FILENAME

    def _events_path(self, run_id: str) -> Path:
        return self._run_dir(run_id) / EVENTS_FILENAME

    # ------------------------------------------------------------------ per-run cache
    def _cache(self, run_id: str) -> _RunCache:
        """The run's cache as last read (built on first use); hold ``_lock``."""
        cache = self._runs.get(run_id)
        if cache is None:
            path = self._units_path(run_id)
            if not path.exists():
                raise BrokerError(f"unknown run {run_id!r}")
            # The manifest is written before units.json, which never changes.
            units = [WorkUnit.from_dict(entry) for entry in json.loads(path.read_text())]
            cache = _RunCache(
                store_dir=self.store_dir(run_id),
                units=units,
                unit_keys=frozenset(unit.key for unit in units),
            )
            self._runs[run_id] = cache
        return cache

    def _current(self, run_id: str) -> _RunCache:
        """The run's cache, caught up with the journal and event tails."""
        cache = self._cache(run_id)
        cache.catch_up(self._events_path(run_id))
        return cache

    # ------------------------------------------------------------------ submission
    def submit(
        self, manifest: RunManifest, *, admission_limit: int | None = None
    ) -> SubmitReceipt:
        """Queue a manifest's work units; idempotent per manifest hash.

        ``admission_limit`` caps the broker's total queued (pending) units:
        a *new* submission that would push the backlog past the limit raises
        :class:`AdmissionError` before anything is written.  Resubmission of
        an already-queued manifest is always admitted (it adds no work).
        """
        run_id = manifest.manifest_hash
        units_path = self._units_path(run_id)
        if units_path.exists():
            units = self.units(run_id)
            return SubmitReceipt(run_id=run_id, total_units=len(units), created=False)

        resolver = ManifestResolver(manifest)
        units = manifest.expand(resolver.suite_task_ids())
        if admission_limit is not None:
            queued = self.queue_depth()
            if queued + len(units) > admission_limit:
                raise AdmissionError(
                    f"queue full: {queued} unit(s) pending + {len(units)} submitted"
                    f" exceeds the {admission_limit}-unit admission limit",
                    queued=queued,
                    incoming=len(units),
                    limit=admission_limit,
                )

        run_dir = self._run_dir(run_id)
        self._leases_dir(run_id).mkdir(parents=True, exist_ok=True)
        RunStore(self.store_dir(run_id)).write_manifest(manifest)
        payload = [unit.to_dict() for unit in units]
        tmp = run_dir / f".{UNITS_FILENAME}.{uuid.uuid4().hex}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, units_path)  # atomic: units.json is never half-written
        self._event(run_id, "submit", units=len(units))
        return SubmitReceipt(run_id=run_id, total_units=len(units), created=True)

    # ------------------------------------------------------------------ introspection
    def run_ids(self) -> list[str]:
        """Queued run ids, oldest submission first (stable tiebreak by id)."""
        runs_dir = self.directory / "runs"
        entries = [
            path
            for path in runs_dir.iterdir()
            if path.is_dir() and (path / UNITS_FILENAME).exists()
        ]
        entries.sort(key=lambda path: (path.stat().st_mtime, path.name))
        return [path.name for path in entries]

    def manifest(self, run_id: str) -> RunManifest:
        with self._lock:
            manifest = self._cache(run_id).manifest()
        if manifest is None:
            raise BrokerError(f"unknown run {run_id!r}")
        return manifest

    def units(self, run_id: str) -> list[WorkUnit]:
        """The run's unit expansion, in deterministic expansion order."""
        with self._lock:
            return list(self._cache(run_id).units)

    def store(self, run_id: str) -> RunStore:
        """A fresh view of the run's journal (re-read from disk)."""
        if not self._units_path(run_id).exists():
            raise BrokerError(f"unknown run {run_id!r}")
        return RunStore(self.store_dir(run_id))

    def view(self, run_id: str) -> RunStore:
        """This broker's live view of the run's journal, caught up to now.

        The same object on every call: it keeps up by reading the journal's
        tail, so holders see later appends after the next broker call (or
        their own :meth:`RunStore.refresh`).  Journal through the broker, not
        through the view.
        """
        with self._lock:
            return self._current(run_id).view

    def completions_since(self, run_id: str, since: float) -> int:
        """How many ``complete`` events carry a timestamp at or after ``since``."""
        with self._lock:
            completions = self._current(run_id).completions
            return len(completions) - bisect.bisect_left(completions, since)

    def check_latencies(self, run_id: str) -> list[float]:
        """Sorted ``duration_s`` of the run's journaled scored units."""
        with self._lock:
            return list(self._current(run_id).latencies)

    # ------------------------------------------------------------------ leases
    def _read_lease(self, path: Path) -> dict | None:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def _live_leases(self, run_id: str) -> dict[str, dict]:
        """unit key → lease payload, for unexpired lease files."""
        now = self._clock()
        live: dict[str, dict] = {}
        leases_dir = self._leases_dir(run_id)
        if not leases_dir.exists():
            return live
        for path in leases_dir.iterdir():
            payload = self._read_lease(path)
            if payload is None:
                continue
            if payload.get("expires_at", 0.0) > now:
                live[path.name] = payload
        return live

    def _sweep(self, run_id: str, store: RunStore) -> tuple[int, set[str]]:
        """Requeue expired leases: (units requeued, keys under a live lease)."""
        now = self._clock()
        requeued = 0
        live: set[str] = set()
        leases_dir = self._leases_dir(run_id)
        if not leases_dir.exists():
            return 0, live
        for path in list(leases_dir.iterdir()):
            payload = self._read_lease(path)
            if payload is None:
                self._unlink(path)
                continue
            if path.name in store:
                self._unlink(path)
                continue
            if payload.get("expires_at", 0.0) <= now:
                self._unlink(path)
                self._event(
                    run_id,
                    "requeue",
                    key=path.name,
                    worker=payload.get("worker", ""),
                )
                requeued += 1
            else:
                live.add(path.name)
        return requeued, live

    def sweep_expired(self, run_id: str) -> int:
        """Requeue expired leases; returns how many units were requeued.

        Lease files for already-journaled units are reaped silently (the
        normal end of a lease whose completion raced the sweep); expired
        leases on un-journaled units are deleted *and* journaled as
        ``requeue`` events — that unit goes back on the queue.
        """
        with self._lock:
            return self._sweep(run_id, self._current(run_id).view)[0]

    def lease(self, run_id: str, worker_id: str, limit: int = 1) -> list[Lease]:
        """Claim up to ``limit`` pending units for ``worker_id``.

        Pending = expanded units minus journaled (scored or quarantined)
        minus live-leased, in expansion order.  Expired leases are swept
        (requeued) first.  Claiming is an atomic hard link per unit, so
        concurrent workers never double-claim.  A pending unit whose lease
        already expired :data:`MAX_LEASE_ATTEMPTS` times is journaled as
        quarantined instead of claimed.
        """
        if limit < 1:
            return []
        with self._lock:
            cache = self._current(run_id)
            requeued, held = self._sweep(run_id, cache.view)
            if requeued:
                cache.tail_events(self._events_path(run_id))
            leases_dir = self._leases_dir(run_id)
            leases_dir.mkdir(parents=True, exist_ok=True)
            expires_at = self._clock() + self.lease_ttl_s
            leases: list[Lease] = []
            for index in range(cache.cursor, len(cache.units)):
                if len(leases) >= limit:
                    break
                unit = cache.units[index]
                if unit.key in cache.view or unit.key in held:
                    continue
                if cache.requeues.get(unit.key, 0) >= MAX_LEASE_ATTEMPTS:
                    self._quarantine_expired(run_id, cache, unit, worker_id)
                    continue
                path = leases_dir / unit.key
                payload = {
                    "unit": unit.to_dict(),
                    "worker": worker_id,
                    "expires_at": expires_at,
                }
                tmp = leases_dir / f".{uuid.uuid4().hex}.tmp"
                tmp.write_text(json.dumps(payload, sort_keys=True))
                try:
                    os.link(tmp, path)  # atomic claim: EEXIST → another worker won
                except OSError:
                    continue
                finally:
                    self._unlink(tmp)
                leases.append(
                    Lease(
                        run_id=run_id,
                        unit=unit,
                        worker_id=worker_id,
                        expires_at=expires_at,
                        path=path,
                    )
                )
            return leases

    def _quarantine_expired(
        self, run_id: str, cache: _RunCache, unit: WorkUnit, worker_id: str
    ) -> None:
        """Journal a unit that outlived every lease attempt as quarantined."""
        attempts = cache.requeues[unit.key]
        with self._locked_view(run_id) as view:
            recorded = view.record_quarantine(
                unit, attempts=attempts, error=f"lease expired {attempts} times"
            )
        if recorded:
            self._event(run_id, "quarantine", key=unit.key, worker=worker_id)

    def heartbeat(self, lease: Lease) -> bool:
        """Extend a lease's TTL; returns False when the lease was lost.

        A lost lease (expired and swept, or re-claimed by another worker)
        tells the holder to abandon the unit: whoever holds the journal lock
        at completion time still wins exactly once, so continuing is merely
        wasted work, not a correctness hazard.
        """
        payload = self._read_lease(lease.path)
        if payload is None or payload.get("worker") != lease.worker_id:
            return False
        payload["expires_at"] = self._clock() + self.lease_ttl_s
        tmp = lease.path.parent / f".{uuid.uuid4().hex}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, lease.path)
        lease.expires_at = payload["expires_at"]
        return True

    def release(self, lease: Lease) -> None:
        """Drop a lease without completing it (the unit requeues immediately)."""
        self._unlink(lease.path)

    # ------------------------------------------------------------------ completion
    @contextmanager
    def _journal_lock(self, run_id: str) -> Iterator[None]:
        path = self._run_dir(run_id) / LOCK_FILENAME
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    @contextmanager
    def _locked_view(self, run_id: str) -> Iterator[RunStore]:
        """The run's view, caught up on the journal tail under the completion lock.

        Every broker journal append takes this lock, so after the refresh the
        view holds every record and ``record``'s key check is exactly-once.
        """
        with self._lock:
            view = self._cache(run_id).open_view()
            with self._journal_lock(run_id):
                view.refresh()
                yield view

    def complete(self, lease: Lease, outcome: CheckOutcome) -> bool:
        """Journal a leased unit's verdict exactly once; release the lease.

        Returns False when another worker already journaled the unit (its
        record wins; verdicts are deterministic so nothing is lost).
        """
        with self._locked_view(lease.run_id) as view:
            recorded = view.record(lease.unit, outcome)
        self._unlink(lease.path)
        if recorded:
            self._event(
                lease.run_id,
                "complete",
                key=lease.unit.key,
                worker=lease.worker_id,
                duration_s=outcome.duration_s,
            )
        return recorded

    def complete_quarantine(
        self,
        lease: Lease,
        *,
        attempts: int,
        error: str,
        degradation: tuple[str, ...] = (),
    ) -> bool:
        """Journal a leased unit as poison exactly once; release the lease."""
        with self._locked_view(lease.run_id) as view:
            recorded = view.record_quarantine(
                lease.unit, attempts=attempts, error=error, degradation=degradation
            )
        self._unlink(lease.path)
        if recorded:
            self._event(
                lease.run_id, "quarantine", key=lease.unit.key, worker=lease.worker_id
            )
        return recorded

    def record_warning(
        self, run_id: str, category: str, message: str, detail: Mapping | None = None
    ) -> bool:
        """Journal a degraded-execution warning under the completion lock."""
        with self._locked_view(run_id) as view:
            return view.record_warning(category, message, detail)

    # ------------------------------------------------------------------ events
    def _event(self, run_id: str, kind: str, **payload) -> None:
        record = {"event": kind, "ts": self._clock(), **payload}
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        fd = os.open(
            self._events_path(run_id), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def events(self, run_id: str) -> list[dict]:
        """The run's event log in append order (torn lines dropped)."""
        path = self._events_path(run_id)
        if not path.exists():
            return []
        lines = path.read_text(errors="replace").split("\n")
        return [event for event in map(_parse_event, lines) if event is not None]

    # ------------------------------------------------------------------ status
    def run_status(self, run_id: str) -> RunStatus:
        """Read-only accounting of one run (does not sweep leases)."""
        with self._lock:
            cache = self._current(run_id)
            manifest = cache.manifest()
            live = self._live_leases(run_id)
            return RunStatus(
                run_id=run_id,
                name=manifest.name,
                experiment=manifest.experiment,
                total=len(cache.units),
                completed=max(0, cache.journaled - cache.quarantined),
                quarantined=cache.quarantined,
                leased=sum(1 for key in live if key not in cache.view),
                requeues=cache.requeue_total,
            )

    def queue_depth(self) -> int:
        """Pending (neither journaled nor live-leased) units across all runs."""
        return sum(self.run_status(run_id).pending for run_id in self.run_ids())

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
