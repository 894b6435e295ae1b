"""The formal front end ticks the check deadline: a runaway proof times out.

Symbolic execution settles once per sweep and unrolls once per clock step;
each tick raises :class:`CheckTimeout` once the budget is gone, so a deep or
wide unrolling stops within about one step of its deadline instead of
running (and allocating) to the end.  Through the executor, the timed-out
proof degrades to simulation and the check still ends in a verdict.  An
equivalence session cut short in its SAT search proves its next candidate as
the fresh prover does.
"""

from __future__ import annotations

import pytest

from repro.bench.evaluator import EvaluationConfig, check_request_for, task_check_keys
from repro.bench.families import make_counter_task
from repro.bench.jobs import ResultKey, design_key, execute_check, run_checks
from repro.deadline import CheckTimeout, check_deadline, deadline_scope
from repro.formal import AIG, EquivalenceSession, prove_combinational_equivalence
from repro.formal import cone as cone_module
from repro.formal.cone import SequentialUnroller, SymbolicExecutor
from repro.verilog.design import compile_design

#: A 64-bit register squared through a data input every cycle: about 30k AIG
#: nodes and 50 ms of symbolic execution per unrolled step.
WIDE = """
module top_module(input clk, input rst, input en, output [3:0] count);
    reg [63:0] s;
    always @(posedge clk) begin
        if (rst) s <= 64'd1;
        else s <= (s ^ {64{en}}) * (s + 64'd3);
    end
    assign count = s[63:60];
endmodule
"""

#: Counter task seed with an enable input (ports clk, rst, en, count[3:0]).
COUNTER_EN_SEED = 4

#: A 6-bit product: proving it equal to ``b * a`` (multiplier commutativity)
#: takes the SAT solver tens of seconds.
PRODUCT = """
module top_module(input [5:0] a, input [5:0] b, output [11:0] p);
    assign p = a * b;
endmodule
"""


@pytest.fixture
def unrolled_steps(monkeypatch):
    """Counts the clock steps the symbolic unroller starts."""
    started = []

    def counting(site):
        if site == "SequentialUnroller.step":
            started.append(site)
        check_deadline(site)

    monkeypatch.setattr(cone_module, "check_deadline", counting)
    return started


def test_symbolic_settle_ticks_the_deadline():
    executor = SymbolicExecutor(compile_design(WIDE).elaborate(), AIG())
    with deadline_scope(0.0), pytest.raises(CheckTimeout) as info:
        executor.settle()
    assert info.value.site == "SymbolicExecutor.settle"


@pytest.mark.parametrize("from_reset", [True, False], ids=["from-reset", "symbolic-state"])
def test_deep_unroll_stops_at_its_deadline(from_reset, unrolled_steps):
    unroller = SequentialUnroller(WIDE, AIG(), reset="rst")
    steps = unroller.make_step_inputs(16)  # ~1 s of unrolling without ticks
    with deadline_scope(0.05), pytest.raises(CheckTimeout) as info:
        if from_reset:
            unroller.unroll(steps)
        else:
            unroller.unroll_from_symbolic_state(steps, "state:")
    assert info.value.site in ("SequentialUnroller.step", "SymbolicExecutor.settle")
    assert len(unrolled_steps) < 8  # ~50 ms a step: stopped near the first ones


def _request(task, code, mode: str, timeout_s: float | None):
    config = EvaluationConfig(
        num_samples=1, ks=(1,), temperatures=(0.2,), mode=mode, check_timeout_s=timeout_s
    )
    stimulus, stim_key, mkey = task_check_keys(task, config, 0.2)
    key = ResultKey(design_key=design_key(code), stimulus_key=stim_key, mode=mkey)
    return check_request_for(task, code, key, stimulus, config)


def test_timed_out_proof_ends_as_a_failed_verdict(unrolled_steps):
    task = make_counter_task("counter_wide_proof", "unit", seed=COUNTER_EN_SEED)
    # Warm the golden model and the reference's proof session, so the budget
    # and the step count cover the candidate only.
    _, reference = execute_check(_request(task, task.reference_source, "formal", None))
    assert reference.passed
    unrolled_steps.clear()

    request = _request(task, WIDE, "formal", 0.05)
    with pytest.raises(CheckTimeout) as info:
        execute_check(request)
    assert info.value.site in ("SequentialUnroller.step", "SymbolicExecutor.settle")
    # Base case and inductive step would unroll 2 * INDUCTION_DEPTH + 1 steps.
    assert len(unrolled_steps) <= 4

    report = run_checks([_request(task, WIDE, "formal", 0.05)])
    execution = report.executions[request.key]
    assert not execution.quarantined
    assert execution.degradation == ("formal->simulation",)
    assert not execution.result.passed  # the simulation verdict: count differs
    assert execution.result.mismatches


def test_session_cut_short_in_the_solver_proves_its_next_candidate():
    session = EquivalenceSession(PRODUCT)
    with deadline_scope(0.2), pytest.raises(CheckTimeout) as info:
        session.prove(PRODUCT.replace("a * b", "b * a"))
    assert info.value.site.startswith("SatSolver.")
    verdicts = []
    for candidate in (PRODUCT, PRODUCT.replace("a * b", "a * b + 12'd1")):
        fresh = prove_combinational_equivalence(candidate, PRODUCT)
        assert session.prove(candidate).equivalent == fresh.equivalent
        verdicts.append(fresh.equivalent)
    assert verdicts == [True, False]
