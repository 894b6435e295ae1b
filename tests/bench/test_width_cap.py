"""Hostile widths end as quick, failed verdicts; real references stay under the cap."""

from __future__ import annotations

import time

import pytest

from repro.bench.evaluator import EvaluationConfig, check_request_for, task_check_keys
from repro.bench.families import make_counter_task, make_expression_task
from repro.bench.jobs import ResultKey, design_key, execute_check
from repro.bench.rtllm import build_rtllm
from repro.bench.verilogeval import build_verilogeval_human, build_verilogeval_machine
from repro.bench.verilogeval_v2 import build_verilogeval_v2
from repro.verilog.design import DesignDatabase
from repro.verilog.simulator.simulator import MAX_SIGNAL_WIDTH
from repro.verilog.syntax_checker import SyntaxChecker


def _request(task, code):
    config = EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,))
    stimulus, stim_key, mkey = task_check_keys(task, config, 0.2)
    key = ResultKey(design_key=design_key(code), stimulus_key=stim_key, mode=mkey)
    return check_request_for(task, code, key, stimulus, config)


def _widened(source: str) -> str:
    """``source`` with a 100-million-bit register declared after its header."""
    header_end = source.index(";") + 1
    return source[:header_end] + "\n    reg [99999999:0] huge;" + source[header_end:]


@pytest.mark.parametrize(
    "task",
    [
        make_counter_task("counter_wide", "unit", seed=1),
        make_expression_task("expr_wide", "unit", seed=3),
    ],
    ids=["sequential", "combinational"],
)
def test_too_wide_candidate_fails_its_check_within_a_second(task):
    # Warm the task's golden model so the timing covers the candidate only.
    _, reference = execute_check(_request(task, task.reference_source))
    assert reference.passed
    code = _widened(task.reference_source)
    assert SyntaxChecker().check(code).ok  # only elaboration rejects it
    started = time.monotonic()
    _, result = execute_check(_request(task, code))
    assert time.monotonic() - started < 1.0
    assert not result.passed
    assert "bits wide" in result.error


def test_every_suite_reference_is_below_the_cap():
    database = DesignDatabase()
    widest = 0
    for suite in (
        build_verilogeval_machine(),
        build_verilogeval_human(),
        build_rtllm(),
        build_verilogeval_v2(),
    ):
        for task in suite:
            widths = database.compile(task.reference_source).template.store.widths
            widest = max(widest, *widths.values())
    assert widest < MAX_SIGNAL_WIDTH
