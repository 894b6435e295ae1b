"""VerilogEval v2 (specification-to-RTL) benchmark suite.

VerilogEval v2 [Pinckney et al., 2024] extends VerilogEval-Human with
specification-to-RTL tasks phrased as a chat exchange with explicit "Question"
and "Answer" sections.  The task content largely mirrors the Human split; what
changes is the prompt style — which is exactly the "practices of HDL engineers"
alignment HaVen targets.  The suite builder therefore reuses the Human task
families but emits spec-to-RTL prompts and marks the prompt style so that models
unfamiliar with that format pay a difficulty penalty (handled by the behavioural
backend through ``chat_alignment``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .task import BenchmarkSuite, BenchmarkTask
from .verilogeval import (
    HUMAN_STATE_DIAGRAM_COUNT,
    HUMAN_TASK_COUNT,
    HUMAN_TRUTH_TABLE_COUNT,
    HUMAN_WAVEFORM_COUNT,
    SuiteConfig,
    _HUMAN_MIX,
    _build_from_mix,
)


@dataclass
class V2Config:
    """Configuration of the VerilogEval v2 suite builder."""

    num_tasks: int | None = None
    seed: int = 71


def build_verilogeval_v2(config: V2Config | None = None) -> BenchmarkSuite:
    """Build the VerilogEval v2 spec-to-RTL suite (156 tasks by default)."""
    config = config or V2Config()
    total = config.num_tasks or HUMAN_TASK_COUNT

    scale = total / HUMAN_TASK_COUNT
    truth_tables = max(1, round(HUMAN_TRUTH_TABLE_COUNT * scale))
    waveforms = max(1, round(HUMAN_WAVEFORM_COUNT * scale))
    state_diagrams = max(1, round(HUMAN_STATE_DIAGRAM_COUNT * scale))
    remaining = max(0, total - truth_tables - waveforms - state_diagrams)

    tasks: list[BenchmarkTask] = []
    index = 0
    for count, builder in (
        (truth_tables, families.make_truth_table_task),
        (waveforms, families.make_waveform_task),
        (state_diagrams, families.make_state_diagram_task),
    ):
        for _ in range(count):
            task_id = f"verilogeval_v2_{index:04d}"
            tasks.append(builder(task_id, "verilogeval_v2", config.seed + index, "spec_to_rtl"))
            index += 1
    tasks.extend(
        _build_from_mix(
            "verilogeval_v2",
            _HUMAN_MIX,
            remaining,
            config.seed,
            style="spec_to_rtl",
            start_index=index,
        )
    )
    return BenchmarkSuite(
        name="VerilogEval v2 (Spec-to-RTL)",
        tasks=tasks,
        description=(
            "Synthetic reproduction of the VerilogEval v2 specification-to-RTL benchmark "
            "(chat-style Question/Answer prompts over the Human task families)."
        ),
    )


def validate_references(
    config: V2Config | None = None,
    max_tasks: int | None = None,
) -> dict[str, str]:
    """Self-consistency sweep over the v2 suite (batched where combinational)."""
    from .evaluator import check_reference_designs

    return check_reference_designs(build_verilogeval_v2(config), max_tasks=max_tasks)


__all__ = ["V2Config", "build_verilogeval_v2", "validate_references", "SuiteConfig"]
