"""Formal-mode job execution: incremental sessions, k-induction, stats plumbing.

Covers the acceptance contract of the incremental formal engine at the bench
layer: clocked task families are *proven* (k-induction) under ``mode="formal"``
instead of silently degrading to simulation, combinational candidates ride the
per-worker equivalence session, SAT accounting travels on
``TestbenchResult.proof_stats`` into :class:`CheckOutcome`, and the durable
result keys stay byte-identical to the ones written while the engine was
selectable.
"""

from __future__ import annotations

import pytest

from repro.bench.evaluator import (
    RETIRED_ENGINE_KEYS,
    EvaluationConfig,
    check_request_for,
    task_check_keys,
)
from repro.bench.families import make_counter_task, make_expression_task
from repro.bench.jobs import (
    CheckOutcome,
    ResultKey,
    design_key,
    execute_check,
    mode_key,
    run_checks,
)

#: Seed 1 → 4-bit counter, no enable, synchronous reset (inside the provable
#: sequential subset); seed 4 → enable flavour, also synchronous.
COUNTER_SEED = 1
COUNTER_EN_SEED = 4

#: Correct 4-bit counter, structurally different from the family reference
#: (adds through a subtract) so the proof is a real SAT query.
COUNTER_OK = """
module top_module(input clk, input rst, output reg [3:0] count);
    always @(posedge clk) begin
        if (rst) count <= 4'd0;
        else count <= count - 4'hF;
    end
endmodule
"""

#: Off-by-one increment: wrong from the second post-reset cycle on.
COUNTER_BAD = COUNTER_OK.replace("4'hF", "4'hE")


def _formal_request(task, code):
    config = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal")
    stimulus, stim_key, mkey = task_check_keys(task, config, 0.2)
    key = ResultKey(design_key=design_key(code), stimulus_key=stim_key, mode=mkey)
    return check_request_for(task, code, key, stimulus, config)


class TestModeKeyStability:
    def test_default_formal_key_is_unchanged(self):
        # Durable result stores index by this string: it must stay
        # byte-identical to the keys written while the engine was selectable.
        assert mode_key("formal", 50_000) == "formal:50000|batch=True|diff=False"
        assert mode_key("simulation", None) == "simulation|batch=True|diff=False"

    def test_task_check_keys_use_the_frozen_strings(self):
        task = make_expression_task("expr_keys", "unit", seed=3)
        for mode, expected in (
            ("simulation", "simulation|batch=True|diff=False"),
            ("formal", "formal:50000|batch=True|diff=False"),
        ):
            config = EvaluationConfig(mode=mode)
            assert task_check_keys(task, config, 0.2)[2] == expected


class TestCheckOutcomeProofStats:
    def test_empty_proof_stats_keep_old_payload_shape(self):
        outcome = CheckOutcome(sample_index=0, temperature=0.2, syntax_ok=True)
        assert "proof_stats" not in outcome.to_dict()
        assert CheckOutcome.from_dict(outcome.to_dict()).proof_stats == {}

    def test_proof_stats_roundtrip(self):
        stats = {"method": "induction", "conflicts": 12, "decisions": 30}
        outcome = CheckOutcome(
            sample_index=1, temperature=0.5, syntax_ok=True, proof_stats=stats
        )
        payload = outcome.to_dict()
        assert payload["proof_stats"] == stats
        assert CheckOutcome.from_dict(payload).proof_stats == stats


class TestSequentialFormalMode:
    def test_clocked_counter_family_proven_by_induction(self):
        task = make_counter_task("counter_formal", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_OK)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats is not None
        assert result.proof_stats["method"] == "induction"
        # Differential gate: the scalar simulation path must agree.
        sim_request = _formal_request(task, COUNTER_OK)
        sim_request.mode = "simulation"
        _, sim_result = execute_check(sim_request)
        assert sim_result.passed

    def test_enable_counter_family_proven_by_induction(self):
        task = make_counter_task("counter_en_formal", "unit", seed=COUNTER_EN_SEED)
        code = task.reference_source.replace("count + 1'b1", "count - {4{1'b1}}")
        request = _formal_request(task, code)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats["method"] == "induction"

    def test_buggy_counter_refuted_and_simulation_agrees(self):
        task = make_counter_task("counter_bug", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_BAD)
        _, result = execute_check(request)
        assert not result.passed
        assert result.proof_stats is not None
        assert result.mismatches  # replayable counterexample, not an error
        sim_request = _formal_request(task, COUNTER_BAD)
        sim_request.mode = "simulation"
        _, sim_result = execute_check(sim_request)
        assert not sim_result.passed

    def test_zero_degradations_through_the_executor(self):
        # The fault-tolerant executor must score the clocked task formally in
        # one clean attempt: no retries, no formal->simulation degradation.
        task = make_counter_task("counter_clean", "unit", seed=COUNTER_SEED)
        request = _formal_request(task, COUNTER_OK)
        report = run_checks([request], max_workers=1)
        execution = report.executions[request.key]
        assert execution.result.passed
        assert execution.attempts == 1
        assert execution.degradation == ()
        assert execution.result.proof_stats["method"] == "induction"


class TestCombinationalFormalMode:
    def test_candidates_ride_the_worker_session(self):
        from repro.bench import jobs

        task = make_expression_task("expr_formal", "unit", seed=3)
        jobs._worker_sessions.clear()
        request = _formal_request(task, task.reference_source)
        _, result = execute_check(request)
        assert result.passed
        assert result.proof_stats["method"] in ("sat", "structural")
        key = (
            design_key(task.reference_source),
            tuple(task.check_outputs) if task.check_outputs is not None else None,
        )
        assert key in jobs._worker_sessions
        # A second candidate against the same reference reuses the session.
        session = jobs._worker_sessions[key]
        _, again = execute_check(_formal_request(task, task.reference_source))
        assert again.passed
        assert jobs._worker_sessions[key] is session

    def test_incremental_off_matches_session_verdict(self):
        # The fresh-solver prover is the oracle for the worker session.
        from repro.bench.golden import formal_equivalence_check

        task = make_expression_task("expr_fresh", "unit", seed=3)
        inverted = task.reference_source.replace("assign out =", "assign out = ~")
        verdicts = []
        for code in (task.reference_source, inverted):
            _, with_session = execute_check(_formal_request(task, code))
            fresh = formal_equivalence_check(
                code,
                task.reference_source,
                outputs=task.check_outputs,
                conflict_limit=50_000,
                session=None,
            )
            assert with_session.passed == fresh.equivalent
            verdicts.append(fresh.equivalent)
        assert verdicts == [True, False]


class TestConfigSerialization:
    def test_retired_engine_keys_are_serialized_frozen(self):
        # Manifests hash ``to_dict``: the retired keys stay in it at their
        # frozen values so pre-existing run ids keep resolving.
        payload = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,)).to_dict()
        for name, frozen in RETIRED_ENGINE_KEYS.items():
            assert payload[name] == frozen

    def test_legacy_payload_at_defaults_loads(self):
        payload = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,)).to_dict()
        restored = EvaluationConfig.from_dict(payload)
        assert restored.to_dict() == payload
        for name in RETIRED_ENGINE_KEYS:
            payload.pop(name)
        assert EvaluationConfig.from_dict(payload).to_dict() == restored.to_dict()

    def test_non_default_retired_key_is_rejected(self):
        base = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,)).to_dict()
        for name, value in (
            ("use_batch_simulator", False),
            ("differential_oracle", True),
            ("simulator_backend", "interpret"),
            ("formal_incremental", False),
            ("induction_depth", 0),
        ):
            with pytest.raises(ValueError, match=name):
                EvaluationConfig.from_dict({**base, name: value})
