"""Tests of the end-to-end benchmark itself, at tiny scale.

Each subprocess test runs ``perfbench/run.py`` from a scratch copy of the
benchmark whose ``src`` links back to this checkout, so the copy's run
directories and span dumps stay out of the working tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import gate, load_reference
from spans import Span, Tracer, layer_table, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy_benchmark(tmp_path: Path, with_program: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def _run(root: Path, *args: str) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


# --------------------------------------------------------------------------- spans
def test_self_time_is_span_minus_children_and_sums_to_the_window():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 5.0, 7.0, 0, 1),
        Span(3, "leaf", 2.0, 3.0, 1, 1),
        Span(4, "late", 20.0, 21.0, None, 1),  # a root outside the window
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0}

    table, unattributed = layer_table(spans, (0.0, 12.0))
    assert "late" not in table
    assert table["root"] == {"calls": 1, "self_s": 5.0}
    assert unattributed == 2.0
    assert sum(entry["self_s"] for entry in table.values()) + unattributed == 12.0


def test_overlapping_children_are_subtracted_once():
    spans = [
        Span(0, "client", 0.0, 10.0, None, 1),
        Span(1, "server", 1.0, 4.0, 0, 2),
        Span(2, "server", 3.0, 6.0, 0, 3),
    ]
    assert self_times(spans)[0] == 5.0


def test_wrap_patches_every_name_callers_look_up():
    from repro.bench import jobs
    from repro.runs import engine
    from repro.verilog.syntax_checker import SyntaxChecker

    original_run_checks, original_check = jobs.run_checks, SyntaxChecker.check
    tracer = Tracer()
    tracer.wrap(jobs, "run_checks", "bench.jobs.run_checks")
    tracer.wrap(SyntaxChecker, "check", "verilog.syntax_checker.check")
    try:
        # The engine imported run_checks by name; it must see the wrapper too.
        assert engine.run_checks is jobs.run_checks is not original_run_checks
        assert SyntaxChecker().check("module m(input a, output b); assign b = a; endmodule").ok
        assert [span.name for span in tracer.spans] == ["verilog.syntax_checker.check"]
    finally:
        tracer.close()
    assert engine.run_checks is jobs.run_checks is original_run_checks
    assert SyntaxChecker.check is original_check


# --------------------------------------------------------------------------- verdict gate
def test_tampered_verdict_fails_the_gate():
    reference = load_reference("tiny", "table4_formal", 0)
    verdicts = reference["verdicts"]
    result = {"units": reference["units"], "verdicts": verdicts, "report_sha256": ""}
    assert gate("table4_formal", result, reference) == 0

    index = next(i for i, letter in enumerate(verdicts) if letter in "pf")
    flipped = "f" if verdicts[index] == "p" else "p"
    tampered = dict(result, verdicts=verdicts[:index] + flipped + verdicts[index + 1 :])
    assert gate("table4_formal", tampered, reference) == 1

    # A unit the reference quarantined may take any verdict.
    quarantined = dict(reference, verdicts=verdicts[:index] + "q" + verdicts[index + 1 :])
    assert gate("table4_formal", tampered, quarantined) == 0

    sim = load_reference("tiny", "table4_sim", 0)
    good = {
        "units": sim["units"],
        "verdicts": "p" * sim["units"],
        "report_sha256": sim["report_sha256"],
    }
    assert gate("table4_sim", good, sim) == 0
    assert gate("table4_sim", dict(good, report_sha256="0" * 64), sim) == sim["units"]
    assert gate("table4_sim", dict(good, verdicts="-" + good["verdicts"][1:]), sim) == 1


def test_tampered_reference_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path)
    reference_path = root / "perfbench" / "reference.json"
    references = json.loads(reference_path.read_text())
    references["tiny"]["service_drain"]["0"]["report_sha256"] = "0" * 64
    reference_path.write_text(json.dumps(references))

    code, lines = _run(root, "--workload", "service_drain", "--scale", "tiny", "--seconds", "1")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_program=False)
    code, lines = _run(root, "--workload", "table4_sim", "--seconds", "1")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# --------------------------------------------------------------------------- workloads
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_workload_passes_its_gate_and_prints_the_declared_metrics(tmp_path, workload):
    root = _copy_benchmark(tmp_path)
    args = ("--workload", workload, "--scale", "tiny", "--seconds", "1")

    code, lines = _run(root, *args, "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared

    code, lines = _run(root, *args, "--trace", "1")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    # Layer self times plus the unattributed time account for the traced wall.
    shares = sum(value for name, value in metrics.items() if name.endswith(".self_pct"))
    unattributed = 100.0 * metrics["unattributed_s"] / metrics["traced_wall_s"]
    assert shares + unattributed == pytest.approx(100.0, abs=1e-6)
    assert unattributed <= 10.0
    assert (root / ".perfbench_out" / f"{workload}-seed0-spans.jsonl").is_file()
