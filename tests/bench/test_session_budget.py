"""The worker's proof sessions stay within their AIG-node budget.

A worker keeps one incremental equivalence session per combinational
reference (clocked checks are proven without one).  Whatever the sweep, the
AIG nodes its sessions hold must fit ``_WORKER_SESSION_NODE_BUDGET`` once a
check returns: least recently used sessions are evicted, and rebuilt on their
next use.  None of that may change a verdict.
"""

from __future__ import annotations

import functools
import itertools

from repro.bench import jobs
from repro.bench.evaluator import EvaluationConfig, check_request_for, task_check_keys
from repro.bench.families import make_counter_task, make_expression_task
from repro.bench.golden import VerilogGolden

#: Smaller than the sessions of one pass over the sweep below (130 nodes),
#: larger than any one of them (at most 29).
BUDGET = 40


def _request(task, code):
    config = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal")
    stimulus, stim_key, mkey = task_check_keys(task, config, 0.2)
    key = jobs.ResultKey(design_key=jobs.design_key(code), stimulus_key=stim_key, mode=mkey)
    return check_request_for(task, code, key, stimulus, config)


def _sweep() -> list:
    """Clocked and combinational candidates of eighteen tasks, twice."""
    requests = []
    for seed in range(1, 7):
        task = make_counter_task(f"counter_budget_{seed}", "unit", seed=seed)
        source = task.reference_source
        for code in (
            source,
            source.replace("count + 1'b1", "count - {8{1'b1}}"),  # equivalent
            source.replace("count + 1'b1", "count + 2'd2"),  # off by one
        ):
            requests.append(_request(task, code))
    for seed in range(1, 13):
        task = make_expression_task(f"expr_budget_{seed}", "unit", seed=seed)
        source = task.reference_source
        for code in (source, source.replace("assign out =", "assign out = ~")):
            requests.append(_request(task, code))
    return requests + requests[::-1]


def _verdicts(monkeypatch, budget: int) -> tuple[list, int]:
    """Verdicts of the sweep, and how many sessions were evicted."""
    monkeypatch.setattr(jobs, "_WORKER_SESSION_NODE_BUDGET", budget)
    trim = jobs._trim_sessions
    evicted = 0

    def tracked_trim():
        nonlocal evicted
        sessions = len(jobs._worker_sessions)
        trim()
        evicted += sessions - len(jobs._worker_sessions)

    monkeypatch.setattr(jobs, "_trim_sessions", tracked_trim)
    jobs._worker_sessions.clear()
    verdicts = []
    try:
        for request in _sweep():
            _, result = jobs.execute_check(request)
            assert jobs._session_nodes() <= budget
            verdicts.append(
                (request.task_id, result.passed, result.proof_stats.get("method"))
            )
    finally:
        jobs._worker_sessions.clear()
    return verdicts, evicted


def test_sessions_fit_the_budget_and_keep_every_verdict(monkeypatch):
    bounded, evicted = _verdicts(monkeypatch, BUDGET)
    assert evicted
    unbounded, evicted = _verdicts(monkeypatch, 1 << 30)
    assert not evicted
    assert bounded == unbounded
    methods = {method for _, _, method in bounded}
    assert "induction" in methods and methods & {"sat", "structural"}


def test_a_session_larger_than_the_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(jobs, "_WORKER_SESSION_NODE_BUDGET", 1)
    jobs._worker_sessions.clear()
    try:
        task = make_expression_task("expr_budget_tiny", "unit", seed=1)
        _, result = jobs.execute_check(_request(task, task.reference_source))
        assert result.passed and result.proof_stats["method"] in ("sat", "structural")
        assert jobs._session_nodes() == 0
    finally:
        jobs._worker_sessions.clear()


def test_unprovable_reference_on_an_empty_cache_falls_back_to_simulation():
    reference = (
        "module divider(input [3:0] a, input [3:0] b, output [3:0] q);\n"
        "    assign q = a / b;\nendmodule\n"
    )
    stimulus = [{"a": a, "b": b} for a, b in itertools.product(range(16), range(1, 16, 4))]
    mode = jobs.mode_key("formal", 50_000)
    request = jobs.CheckRequest(
        key=jobs.ResultKey(jobs.design_key(reference), "divider", mode),
        code=reference,
        task_id="divider",
        golden_factory=functools.partial(VerilogGolden, reference),
        stimulus=stimulus,
        reference_source=reference,
        mode="formal",
    )
    jobs._worker_sessions.clear()
    _, result = jobs.execute_check(request)  # no session could be built
    assert result.passed and not result.proof_stats
    assert jobs._session_nodes() == 0
