"""FileBroker lease protocol: exclusivity, expiry, heartbeats, exactly-once.

The broker promises at-least-once *delivery* (a unit may be leased again
after its holder goes silent) but exactly-one *journal record* per unit.
These tests drive both halves with a hand-cranked clock so expiry is
deterministic.
"""

from __future__ import annotations

import json
import sys
import threading
from types import SimpleNamespace

import pytest

import repro.runs.store as store_module
from repro.bench.jobs import CheckOutcome
from repro.runs.store import JOURNAL_FILENAME
from repro.service import ServiceWorker
from repro.service.broker import (
    MAX_LEASE_ATTEMPTS,
    AdmissionError,
    BrokerError,
    FileBroker,
)
from conftest import small_manifest


def outcome(unit) -> CheckOutcome:
    return CheckOutcome(
        sample_index=unit.sample_index,
        temperature=unit.temperature,
        syntax_ok=True,
        functional_passed=True,
        total_checks=5,
        design_key="d" * 64,
        duration_s=0.25,
    )


@pytest.fixture()
def broker(tmp_path, clock) -> FileBroker:
    return FileBroker(tmp_path / "broker", lease_ttl_s=10.0, clock=clock)


@pytest.fixture()
def queued(broker):
    """A submitted small manifest: (run_id, units in expansion order)."""
    receipt = broker.submit(small_manifest())
    return receipt.run_id, broker.units(receipt.run_id)


class TestSubmit:
    def test_run_id_is_manifest_hash(self, broker):
        manifest = small_manifest()
        receipt = broker.submit(manifest)
        assert receipt.run_id == manifest.manifest_hash
        assert receipt.created
        assert receipt.total_units == len(broker.units(receipt.run_id))
        assert receipt.total_units > 0

    def test_resubmission_is_idempotent(self, broker):
        manifest = small_manifest()
        first = broker.submit(manifest)
        second = broker.submit(manifest)
        assert not second.created
        assert second.run_id == first.run_id
        assert broker.run_ids().count(first.run_id) == 1

    def test_admission_limit_rejects_before_writing(self, broker):
        with pytest.raises(AdmissionError) as excinfo:
            broker.submit(small_manifest(), admission_limit=1)
        assert excinfo.value.limit == 1
        assert excinfo.value.incoming > 1
        assert broker.run_ids() == []

    def test_resubmission_bypasses_admission(self, broker):
        receipt = broker.submit(small_manifest())
        again = broker.submit(small_manifest(), admission_limit=0)
        assert not again.created
        assert again.run_id == receipt.run_id

    def test_unknown_run_raises(self, broker):
        with pytest.raises(BrokerError):
            broker.manifest("0" * 64)
        with pytest.raises(BrokerError):
            broker.units("0" * 64)


class TestLeasing:
    def test_leases_are_exclusive_and_in_order(self, broker, queued):
        run_id, units = queued
        first = broker.lease(run_id, "worker-a", limit=2)
        second = broker.lease(run_id, "worker-b", limit=len(units))
        assert [lease.unit for lease in first] == units[:2]
        assert [lease.unit for lease in second] == units[2:]
        held = {lease.unit.key for lease in first} & {
            lease.unit.key for lease in second
        }
        assert held == set()
        # Everything is out: nothing left to lease.
        assert broker.lease(run_id, "worker-c", limit=1) == []

    def test_expired_lease_requeues_with_event(self, broker, queued, clock):
        run_id, units = queued
        stale = broker.lease(run_id, "worker-a", limit=1)[0]
        done = broker.lease(run_id, "worker-b", limit=1)[0]
        assert done.unit == units[1]
        broker.complete(done, outcome(done.unit))

        clock.advance(11.0)  # past the 10s TTL: worker-a went silent
        reclaimed = broker.lease(run_id, "worker-b", limit=1)
        assert reclaimed[0].unit == stale.unit
        requeues = [e for e in broker.events(run_id) if e["event"] == "requeue"]
        assert len(requeues) == 1
        assert requeues[0]["worker"] == "worker-a"
        assert broker.run_status(run_id).requeues == 1

    def test_heartbeat_extends_the_lease(self, broker, queued, clock):
        run_id, _ = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(8.0)
        assert broker.heartbeat(lease)
        clock.advance(8.0)  # 16s after claim, but only 8s after the beat
        assert broker.run_status(run_id).leased == 1
        assert all(e["event"] != "requeue" for e in broker.events(run_id))

    def test_heartbeat_reports_a_lost_lease(self, broker, queued, clock):
        run_id, _ = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(11.0)
        broker.sweep_expired(run_id)
        assert not broker.heartbeat(lease)

    def test_release_requeues_immediately(self, broker, queued):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        broker.release(lease)
        assert broker.lease(run_id, "worker-b", limit=1)[0].unit == units[0]


class TestCompletion:
    def test_complete_journals_and_frees_the_lease(self, broker, queued):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        assert broker.complete(lease, outcome(lease.unit))
        status = broker.run_status(run_id)
        assert status.completed == 1
        assert status.leased == 0
        assert status.pending == len(units) - 1
        store = broker.store(run_id)
        assert store.outcome_for(lease.unit.key) == outcome(lease.unit)

    def test_duplicate_completion_is_exactly_once(self, broker, queued, clock):
        """Two workers racing one requeued unit yield one journal record."""
        run_id, units = queued
        stale = broker.lease(run_id, "worker-a", limit=1)[0]
        clock.advance(11.0)
        fresh = broker.lease(run_id, "worker-b", limit=1)[0]
        assert fresh.unit == stale.unit

        assert broker.complete(fresh, outcome(fresh.unit))
        assert not broker.complete(stale, outcome(stale.unit))

        journal = broker.store_dir(run_id) / JOURNAL_FILENAME
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [r["key"] for r in records] == [fresh.unit.key]
        assert broker.run_status(run_id).completed == 1

    def test_journaled_unit_is_never_leased_again(self, broker, queued, clock):
        run_id, units = queued
        lease = broker.lease(run_id, "worker-a", limit=1)[0]
        broker.complete(lease, outcome(lease.unit))
        clock.advance(100.0)
        leased = broker.lease(run_id, "worker-b", limit=len(units))
        assert units[0] not in [entry.unit for entry in leased]

    def test_quarantine_counts_toward_completion_but_not_health(self, broker, queued):
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-a", limit=len(units)):
            if lease.unit == units[0]:
                assert broker.complete_quarantine(
                    lease, attempts=3, error="worker died", degradation=("pool->serial",)
                )
            else:
                assert broker.complete(lease, outcome(lease.unit))
        status = broker.run_status(run_id)
        assert status.complete
        assert not status.healthy
        assert status.quarantined == 1
        assert status.exit_code == 4

    def test_complete_run_exit_code_zero(self, broker, queued):
        run_id, units = queued
        for lease in broker.lease(run_id, "worker-a", limit=len(units)):
            broker.complete(lease, outcome(lease.unit))
        status = broker.run_status(run_id)
        assert status.complete and status.healthy
        assert status.exit_code == 0
        assert status.percent == pytest.approx(100.0)


class TestQueueDepth:
    def test_depth_sums_pending_across_runs(self, broker):
        first = broker.submit(small_manifest(num_samples=2))
        second = broker.submit(small_manifest(num_samples=3))
        total = first.total_units + second.total_units
        assert broker.queue_depth() == total
        lease = broker.lease(first.run_id, "worker-a", limit=1)[0]
        assert broker.queue_depth() == total - 1
        broker.complete(lease, outcome(lease.unit))
        assert broker.queue_depth() == total - 1


class TestLeaseAttemptCap:
    def test_unit_quarantined_after_max_lease_expiries(self, broker, queued, clock):
        run_id, units = queued
        for attempt in range(MAX_LEASE_ATTEMPTS):
            lease = broker.lease(run_id, f"worker-{attempt}", limit=1)[0]
            assert lease.unit == units[0]
            clock.advance(11.0)  # the holder goes silent; its lease expires

        leased = broker.lease(run_id, "worker-x", limit=len(units))
        assert [lease.unit for lease in leased] == units[1:]
        [record] = broker.store(run_id).quarantined_records()
        assert record["key"] == units[0].key
        assert record["quarantine"]["attempts"] == MAX_LEASE_ATTEMPTS
        assert record["quarantine"]["error"] == (
            f"lease expired {MAX_LEASE_ATTEMPTS} times"
        )
        events = broker.events(run_id)
        assert [e["key"] for e in events if e["event"] == "quarantine"] == [units[0].key]

        for lease in leased:
            assert broker.complete(lease, outcome(lease.unit))
        clock.advance(100.0)
        assert broker.lease(run_id, "worker-y", limit=len(units)) == []
        status = broker.run_status(run_id)
        assert status.requeues == MAX_LEASE_ATTEMPTS
        assert status.quarantined == 1
        assert status.complete
        assert status.exit_code == 4


class TestStaleView:
    def test_stale_view_never_double_journals(self, tmp_path, clock):
        """A's warm view misses B's completion: the lock still catches it."""
        a = FileBroker(tmp_path / "broker", lease_ttl_s=10.0, clock=clock)
        b = FileBroker(tmp_path / "broker", lease_ttl_s=10.0, clock=clock)
        run_id = a.submit(small_manifest()).run_id
        units = a.units(run_id)
        stale = a.lease(run_id, "worker-a", limit=1)[0]
        assert a.run_status(run_id).leased == 1  # A's view is warm

        clock.advance(11.0)
        fresh = b.lease(run_id, "worker-b", limit=1)[0]
        assert fresh.unit == stale.unit
        assert b.complete(fresh, outcome(fresh.unit))

        assert not a.complete(stale, outcome(stale.unit))
        journal = a.store_dir(run_id) / JOURNAL_FILENAME
        keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
        assert keys == [stale.unit.key]
        leased = a.lease(run_id, "worker-a", limit=len(units))
        assert stale.unit.key not in {lease.unit.key for lease in leased}
        assert len(leased) == len(units) - 1


class TestIncrementalWork:
    def test_drain_decodes_each_journal_record_a_bounded_number_of_times(
        self, tmp_path, monkeypatch
    ):
        """Re-reading the journal per lease and completion grows as ~N²/2."""
        directory = tmp_path / "broker"
        run_id = FileBroker(directory).submit(small_manifest(num_samples=4)).run_id
        decoded = []

        def loads(text, *args, **kwargs):
            decoded.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(
            store_module, "json", SimpleNamespace(loads=loads, dumps=json.dumps)
        )
        broker = FileBroker(directory)
        total = len(broker.units(run_id))
        stats = ServiceWorker(
            broker, "linear-worker", lease_limit=1, exit_when_idle=True
        ).run_forever()
        assert stats.completed == total
        assert broker.run_status(run_id).complete
        assert len(decoded) <= 2 * total


class TestThreadedBroker:
    def test_threads_sharing_one_broker_journal_each_unit_once(self, tmp_path):
        """The HTTP server calls one broker from many threads at once."""
        broker = FileBroker(tmp_path / "broker", lease_ttl_s=60.0)
        run_id = broker.submit(small_manifest(num_samples=16)).run_id
        total = len(broker.units(run_id))
        completed: list[str] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def drain(worker_id: str) -> None:
            try:
                while leases := broker.lease(run_id, worker_id, limit=1):
                    for lease in leases:
                        if broker.complete(lease, outcome(lease.unit)):
                            completed.append(lease.unit.key)
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)

        def poll() -> None:
            try:
                while not done.is_set():
                    broker.run_status(run_id)
                    broker.check_latencies(run_id)
                    broker.completions_since(run_id, 0.0)
            except BaseException as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pollers = [threading.Thread(target=poll) for _ in range(4)]
            drainers = [
                threading.Thread(target=drain, args=(f"worker-{index}",))
                for index in range(4)
            ]
            for thread in pollers + drainers:
                thread.start()
            for thread in drainers:
                thread.join(timeout=60)
            done.set()
            for thread in pollers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pollers + drainers)
        assert errors == []
        assert sorted(completed) == sorted(unit.key for unit in broker.units(run_id))
        status = broker.run_status(run_id)
        assert (status.completed, status.leased, status.pending) == (total, 0, 0)
        assert len(broker.check_latencies(run_id)) == total
        assert broker.completions_since(run_id, 0.0) == total
