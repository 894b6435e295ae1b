"""Manifest hashing, expansion and round-trip serialization."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.evaluator import EvaluationConfig
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.manifest import ProfileSpec, RunManifest, SuiteSpec, WorkUnit
from repro.runs.presets import table4_manifest
from repro.runs.store import RunStore


def tiny_manifest(temperatures=(0.2,), num_samples=2) -> RunManifest:
    return RunManifest(
        name="test",
        experiment="custom",
        scale=ExperimentScale.tiny().to_dict(),
        config=EvaluationConfig(num_samples=num_samples, ks=(1,), temperatures=temperatures),
        profiles=[
            ProfileSpec(profile_id="baseline:gpt-4", kind="baseline", key="gpt-4", display="GPT-4"),
            ProfileSpec(
                profile_id="baseline:gpt-3.5", kind="baseline", key="gpt-3.5", display="GPT-3.5"
            ),
        ],
        suites=[SuiteSpec("machine"), SuiteSpec("human")],
    )


class TestManifestHash:
    def test_round_trip_preserves_hash(self):
        manifest = tiny_manifest()
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone.manifest_hash == manifest.manifest_hash

    def test_hash_changes_with_config(self):
        assert (
            tiny_manifest(temperatures=(0.2,)).manifest_hash
            != tiny_manifest(temperatures=(0.5,)).manifest_hash
        )

    def test_hash_changes_with_profiles(self):
        manifest = tiny_manifest()
        manifest.profiles = manifest.profiles[:1]
        assert manifest.manifest_hash != tiny_manifest().manifest_hash

    def test_profile_lookup(self):
        manifest = tiny_manifest()
        assert manifest.profile("baseline:gpt-4").key == "gpt-4"
        with pytest.raises(KeyError):
            manifest.profile("nope")


class TestExpansion:
    def test_unit_count_and_order(self):
        manifest = tiny_manifest(temperatures=(0.2, 0.5), num_samples=3)
        task_ids = {"machine": ["m0", "m1"], "human": ["h0"]}
        units = manifest.expand(task_ids)
        # profiles × (machine 2 + human 1 tasks) × 2 temperatures × 3 samples
        assert len(units) == 2 * 3 * 2 * 3
        first = units[0]
        assert (first.profile_id, first.suite_id, first.task_id) == (
            "baseline:gpt-4",
            "machine",
            "m0",
        )
        assert first.temperature == 0.2 and first.sample_index == 0
        # Sample index varies fastest, then temperature, then task.
        assert [u.sample_index for u in units[:6]] == [0, 1, 2, 0, 1, 2]
        assert [u.temperature for u in units[:6]] == [0.2] * 3 + [0.5] * 3

    def test_unit_keys_unique_and_temperature_sensitive(self):
        manifest = tiny_manifest(temperatures=(0.2, 0.5), num_samples=2)
        units = manifest.expand({"machine": ["m0"], "human": ["h0"]})
        keys = [unit.key for unit in units]
        assert len(set(keys)) == len(keys)
        a = WorkUnit("h", "p", "s", "t", 0.2, 0)
        b = WorkUnit("h", "p", "s", "t", 0.5, 0)
        assert a.key != b.key

    def test_unit_key_canonicalises_temperature_type(self):
        # An int-typed temperature is the same draw as its float twin.
        assert WorkUnit("h", "p", "s", "t", 0, 0).key == WorkUnit("h", "p", "s", "t", 0.0, 0).key


#: A run planned and executed before the engine-selection config keys were
#: retired: tiny-scale Table IV, GPT-4 only, RTLLM only (6 units).
LEGACY_RUN = Path(__file__).parent / "fixtures" / "legacy_run"
#: ``manifest_hash`` of that run as it was written (its broker ``run_id``).
LEGACY_HASH = "b21bf00973987ba04b6d93edef6865d9673a7e1a738d5469075e58e22fd70874"
#: ``manifest_hash`` of the full tiny GPT-4 Table IV preset in formal mode,
#: as planned at the same time.
LEGACY_FORMAL_HASH = "ee5d8a2eccd4ee859d55b3db8594911bb2b8a7b657ded99c2f553993ff55a410"


class TestLegacyManifest:
    """Manifests written while the engine was selectable keep their identity."""

    def test_legacy_manifest_loads_with_the_same_hash(self):
        manifest = RunManifest.from_dict(json.loads((LEGACY_RUN / "manifest.json").read_text()))
        assert manifest.manifest_hash == LEGACY_HASH
        journal = (LEGACY_RUN / "journal.jsonl").read_text().splitlines()
        assert {json.loads(line)["manifest"] for line in journal} == {LEGACY_HASH}

    def test_presets_still_plan_the_legacy_hashes(self):
        manifest = table4_manifest(
            ExperimentScale.tiny(), baseline_keys=["gpt-4"], include_haven=False
        )
        formal = RunManifest.from_dict(
            {**manifest.to_dict(), "config": {**manifest.config.to_dict(), "mode": "formal"}}
        )
        assert formal.manifest_hash == LEGACY_FORMAL_HASH
        manifest.name = "legacy-fixture"
        manifest.suites = [SuiteSpec("rtllm")]
        assert manifest.manifest_hash == LEGACY_HASH

    def test_resuming_the_legacy_journal_executes_zero_units(self, tmp_path):
        shutil.copytree(LEGACY_RUN, tmp_path / "run")
        store = RunStore(tmp_path / "run")
        stats = RunEngine(store.load_manifest(), store).run()
        assert stats.executed == 0
        assert stats.skipped == stats.total_units == 6

    def test_retired_key_at_a_non_default_value_is_rejected(self):
        payload = json.loads((LEGACY_RUN / "manifest.json").read_text())
        payload["config"]["induction_depth"] = 0
        with pytest.raises(ValueError, match="induction_depth"):
            RunManifest.from_dict(payload)
