"""Differential parity suite for the incremental equivalence session.

The session must be *observably identical* to the fresh-solver provers: same
verdict on every candidate, and every refutation carries a counterexample that
reproduces as a real mismatch on the simulation engines.  Candidates are
randomized (correct rewrites and injected bugs alike) and round-tripped
through the Verilog writer before proving, so the sweep exercises the same
parse → write → parse surface the generation pipeline does.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from repro.bench import jobs
from repro.bench.golden import VerilogGolden, batch_equivalence_mismatches
from repro.formal import (
    ConflictLimitExceeded,
    EquivalenceSession,
    FormalEncodingError,
    prove_combinational_equivalence,
    proof_stats,
    reset_proof_stats,
)
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module


def _roundtrip(source: str) -> str:
    """Writer round-trip: the candidate text the pipeline would re-emit."""
    return write_module(parse_module(source))


REFERENCE = """
module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s, output p);
    assign s = a + b + c;
    assign p = ^(a ^ b);
endmodule
"""

#: Correct rewrites of the reference (distinct structure, same function).
GOOD_TEMPLATES = [
    "assign s = b + a + c;\n    assign p = (^a) ^ (^b);",
    "assign s = (a + c) + b;\n    assign p = ^{a, b};",
    "assign s = a + (b + c);\n    assign p = a[0]^a[1]^a[2]^a[3]^b[0]^b[1]^b[2]^b[3];",
]

#: Buggy rewrites: off-by-one sums, dropped carry, inverted parity.
BAD_TEMPLATES = [
    "assign s = a + b;\n    assign p = ^(a ^ b);",
    "assign s = a + b + c + 1;\n    assign p = ^(a ^ b);",
    "assign s = a + b + c;\n    assign p = ~(^(a ^ b));",
    "assign s = a - b + c;\n    assign p = ^(a ^ b);",
]


def _candidate(body: str) -> str:
    return _roundtrip(
        "module refmod(input [3:0] a, input [3:0] b, input c, "
        f"output [4:0] s, output p);\n    {body}\nendmodule"
    )


def _random_sweep(seed: int, length: int = 24) -> list[tuple[str, bool]]:
    """(candidate source, expected equivalent) pairs, randomized and repeated."""
    rng = random.Random(seed)
    pool = [(_candidate(body), True) for body in GOOD_TEMPLATES]
    pool += [(_candidate(body), False) for body in BAD_TEMPLATES]
    pool.append((_roundtrip(REFERENCE), True))
    return [pool[rng.randrange(len(pool))] for _ in range(length)]


@pytest.mark.parametrize("seed", range(4))
def test_session_matches_fresh_prover_on_randomized_sweeps(seed):
    session = EquivalenceSession(_roundtrip(REFERENCE))
    for code, expected in _random_sweep(seed):
        fresh = prove_combinational_equivalence(code, REFERENCE)
        incremental = session.prove(code)
        assert fresh.equivalent == incremental.equivalent == expected, code
        if not expected:
            # Both engines must produce *replayable* counterexamples: the
            # decoded assignment has to reproduce as a real mismatch on the
            # batched simulator (the differential oracle the bench uses).
            for result in (fresh, incremental):
                assert result.counterexample is not None
                assert batch_equivalence_mismatches(
                    code, REFERENCE, [result.counterexample.inputs]
                ), f"counterexample did not replay: {result.counterexample.inputs}"


def test_session_without_fraig_matches_fresh_prover():
    session = EquivalenceSession(REFERENCE, fraig=False)
    for code, expected in _random_sweep(99, length=12):
        assert session.prove(code).equivalent == expected


def test_missing_output_verdict_matches_fresh_prover():
    partial = _roundtrip(
        "module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s);\n"
        "    assign s = a + b + c;\nendmodule"
    )
    fresh = prove_combinational_equivalence(partial, REFERENCE)
    incremental = EquivalenceSession(REFERENCE).prove(partial)
    assert not fresh.equivalent and not incremental.equivalent
    assert incremental.counterexample.missing_outputs == ["p"]
    assert fresh.counterexample.missing_outputs == ["p"]


def test_repeat_candidates_reuse_the_encoded_cone():
    session = EquivalenceSession(REFERENCE)
    code = _candidate(GOOD_TEMPLATES[0])
    first = session.prove(code)
    again = session.prove(code)
    assert first.equivalent and again.equivalent
    assert session.proofs == 2
    # The cone is cached by content address, so the re-proof encodes nothing
    # new — but it still runs a genuine solve (no verdict memoization).
    assert again.method in ("sat", "structural")


def test_conflict_budget_is_per_proof_not_per_session():
    """Regression: candidate #N gets the same budget candidate #1 got.

    Before the incremental engine, each proof owned a fresh solver, so
    ``formal_conflict_limit`` was trivially per-proof.  The shared session
    must keep that contract: a budget that covers the *most expensive single
    proof* must never trip on a later candidate merely because the session's
    cumulative conflicts crossed it.
    """
    candidates = [_candidate(body) for body in GOOD_TEMPLATES] + [
        _roundtrip(REFERENCE)
    ]
    # Per-proof cost ceiling, measured on fresh sessions (fraig off so every
    # proof is a real CDCL search, not a structural fold).
    costs = []
    for code in candidates:
        fresh = EquivalenceSession(REFERENCE, fraig=False)
        costs.append(fresh.prove(code).stats.conflicts)
    assert max(costs) > 0, "workload no longer exercises the SAT search"
    budget = max(costs) + 5

    session = EquivalenceSession(REFERENCE, fraig=False, conflict_limit=budget)
    total = 0
    for _ in range(4):  # sweep the pool repeatedly to accumulate conflicts
        for code in candidates:
            result = session.prove(code)  # must never raise ConflictLimitExceeded
            assert result.equivalent
            total += result.stats.conflicts
    assert total == session.total_conflicts
    # The point of the regression: the session as a whole burned more
    # conflicts than any single proof's budget, yet no proof tripped it.
    if total <= budget:
        pytest.skip("sweep too cheap to distinguish per-proof from cumulative")


def test_conflict_limit_still_enforced_per_proof():
    session = EquivalenceSession(REFERENCE, fraig=False)
    with pytest.raises(ConflictLimitExceeded):
        session.prove(_candidate(GOOD_TEMPLATES[2]), conflict_limit=1)
    # The session survives an exhausted budget: later proofs run normally.
    assert session.prove(_candidate(GOOD_TEMPLATES[0])).equivalent


def test_proof_registry_records_session_verdicts():
    reset_proof_stats()
    try:
        session = EquivalenceSession(REFERENCE)
        session.prove(_candidate(GOOD_TEMPLATES[0]))
        session.prove(_candidate(BAD_TEMPLATES[0]))
        stats = proof_stats()
        assert stats["total"] == 2
        assert stats["results"]["equivalent"] == 1
        assert stats["results"]["counterexample"] == 1
    finally:
        reset_proof_stats()


def test_result_carries_sat_and_fraig_accounting():
    session = EquivalenceSession(REFERENCE)
    result = session.prove(_candidate(GOOD_TEMPLATES[1]))
    assert result.equivalent
    stats = result.stats
    assert stats.propagations >= 0 and stats.decisions >= 0
    assert result.fraig_merges >= 0
    # Width-mismatched shared inputs are rejected exactly like the fresh path.
    wide = _candidate(GOOD_TEMPLATES[0]).replace("input [3:0] a", "input [4:0] a")
    from repro.formal import FormalEncodingError

    with pytest.raises(FormalEncodingError):
        session.prove(wide)


#: Drives an undriven net into a checked output: admission raises after the
#: cone (and its undef inputs ``__undef__dut<N>:w[*]``) is already built.
UNDRIVEN_OUTPUT = _roundtrip(
    "module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s, output p);\n"
    "    wire [3:0] w;\n    assign s = a + b + w;\n    assign p = ^(a ^ b);\nendmodule"
)

#: Equivalent to the reference, but declares the same undriven net: its cone
#: has undef inputs too, only none feeds a checked output.
UNUSED_UNDRIVEN = _roundtrip(
    "module refmod(input [3:0] a, input [3:0] b, input c, output [4:0] s, output p);\n"
    "    wire [3:0] w;\n    assign s = a + b + c;\n    assign p = ^(a ^ b);\nendmodule"
)


def test_failed_admission_does_not_hand_its_undef_names_to_the_next_candidate():
    """Regression: the undef-name index came from the stored candidates.

    A candidate whose admission raises is never stored, so the next one got
    the same ``dut<N>:`` prefix and `AIG.add_input` raised ``already
    declared`` — in a sweep, a correct candidate was retried and quarantined.
    """
    session = EquivalenceSession(REFERENCE)
    with pytest.raises(FormalEncodingError):
        session.prove(UNDRIVEN_OUTPUT)
    with pytest.raises(FormalEncodingError):
        prove_combinational_equivalence(UNDRIVEN_OUTPUT, REFERENCE)
    fresh = prove_combinational_equivalence(UNUSED_UNDRIVEN, REFERENCE)
    assert session.prove(UNUSED_UNDRIVEN).equivalent == fresh.equivalent is True


def test_formal_batch_over_a_failed_admission_quarantines_nothing():
    stimulus = [
        {"a": a, "b": b, "c": c}
        for a, b, c in itertools.product(range(0, 16, 5), range(0, 16, 3), range(2))
    ]
    mode = jobs.mode_key("formal", 50_000)
    requests = [
        jobs.CheckRequest(
            key=jobs.ResultKey(jobs.design_key(code), "undef-reuse", mode),
            code=code,
            task_id="undef_reuse",
            golden_factory=functools.partial(VerilogGolden, REFERENCE),
            stimulus=stimulus,
            reference_source=REFERENCE,
            mode="formal",
        )
        for code in (UNDRIVEN_OUTPUT, UNUSED_UNDRIVEN)
    ]
    jobs._worker_sessions.clear()  # both proofs land on one fresh session
    report = jobs.run_checks(requests)
    assert not report.quarantined()
    undriven, unused = (report.executions[request.key] for request in requests)
    assert not undriven.result.passed  # the x-driven sum mismatches in simulation
    assert unused.result.passed and unused.attempts == 1
    assert unused.result.proof_stats["method"] in ("sat", "structural")
