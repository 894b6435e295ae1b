"""The run engine: execute a manifest's work units into a store, resumably.

:func:`check_samples` is the one evaluation core: for each ``(task,
temperature, sample indices)`` item it draws those samples from the pipeline's
deterministic sample stream (``generate_at`` — so a resumed or sharded run
reproduces the serial samples bit-for-bit), syntax-checks them, and turns the
compiled candidates into content-addressed
:class:`~repro.bench.jobs.CheckRequest`\\ s deduplicated by
:class:`~repro.bench.jobs.ResultKey` and executed through
:func:`~repro.bench.jobs.run_checks` (process pool when
``EvaluationConfig.max_workers`` says so).  The in-memory
:class:`~repro.bench.evaluator.BenchmarkEvaluator` and :class:`RunEngine` both
call it.

The engine plans per ``(profile, suite)`` group, checks only the units not yet
journaled, and journals each finished unit as a
:class:`~repro.bench.jobs.CheckOutcome`; units already journaled are never
re-executed, which is the whole resume story: kill the process at any point,
re-invoke, and it continues where the journal ends.

Sharding: ``run(shard_index=i, shard_count=n)`` executes the units whose
position in the deterministic expansion order is ``i (mod n)``.  Disjoint
shards can fill one store concurrently; the merged journal aggregates to the
same results as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from ..bench.evaluator import EvaluationConfig, check_request_for, task_check_keys
from ..bench.jobs import (
    CheckExecution,
    CheckOutcome,
    CheckRequest,
    ExecutionPolicy,
    ResultKey,
    design_key,
    run_checks,
)
from ..bench.task import BenchmarkTask
from ..core.llm.base import GenerationConfig
from ..core.pipeline import HaVenPipeline
from ..verilog.syntax_checker import SyntaxChecker
from .manifest import RunManifest, WorkUnit
from .resolve import ManifestResolver
from .store import RunStore


@dataclass
class RunStats:
    """What one ``RunEngine.run`` invocation did."""

    total_units: int = 0  # units in this invocation's scope (after sharding)
    executed: int = 0  # units actually generated/checked this invocation
    skipped: int = 0  # units already journaled (resume hits)
    quarantined: int = 0  # units journaled as poison this invocation

    @property
    def complete(self) -> bool:
        return self.executed + self.skipped + self.quarantined >= self.total_units


@dataclass(frozen=True)
class QuarantineInfo:
    """Why a unit was poisoned instead of scored."""

    attempts: int
    error: str
    degradation: tuple[str, ...] = ()


@dataclass
class UnitResult:
    """One executed unit: a scored outcome, or the quarantine that claimed it."""

    unit: WorkUnit
    outcome: CheckOutcome | None = None
    quarantine: QuarantineInfo | None = None

    @property
    def quarantined(self) -> bool:
        return self.quarantine is not None


#: Callback signature for degraded-execution warnings raised mid-execution.
WarningSink = Callable[[str, str, dict | None], object]


class SampleVerdict(NamedTuple):
    """One checked sample: its outcome, plus the check that settled it."""

    outcome: CheckOutcome
    key: ResultKey | None  # None when the sample failed syntax
    execution: CheckExecution | None  # None when the sample failed syntax


#: One slice of the sample stream to check: (task, temperature, sample indices).
SampleSlice = tuple[BenchmarkTask, float, Sequence[int]]


def check_samples(
    pipeline: HaVenPipeline,
    work: Sequence[SampleSlice],
    config: EvaluationConfig,
    checker: SyntaxChecker,
    *,
    database=None,
    memo: dict[ResultKey, CheckExecution] | None = None,
    warning_sink: WarningSink | None = None,
) -> list[list[SampleVerdict]]:
    """Generate, syntax-check, dedup and functionally check ``work``.

    Returns one list of :class:`SampleVerdict` per work item, in sample order.
    Each unique :class:`ResultKey` not already in ``memo`` is checked once
    through :func:`run_checks`; settled verdicts enter ``memo``, quarantined
    ones (every attempt burned) never do — so a memo shared across calls
    re-attempts them.  A quarantined sample's outcome carries the synthetic
    failed verdict.  Execution warnings go to ``warning_sink`` as
    ``(category, message, detail)``.
    """
    memo = {} if memo is None else memo
    planned: list[list[tuple[CheckOutcome, ResultKey | None]]] = []
    requests: dict[ResultKey, CheckRequest] = {}
    for task, temperature, indices in work:
        indices = list(indices)
        generation = pipeline.generate(
            prompt=task.prompt,
            interface=task.interface,
            reference_source=task.reference_source,
            demands=task.demands,
            config=GenerationConfig(
                temperature=temperature,
                num_samples=config.num_samples,
                seed=config.seed,
            ),
            prompt_style=task.prompt_style,
            task_id=task.task_id,
            # The whole stream in one draw: backends without a per-index
            # ``generate_at`` would otherwise redraw a prefix per sample.
            sample_indices=None if indices == list(range(config.num_samples)) else indices,
        )
        stimulus, task_stimulus_key, task_mode_key = task_check_keys(task, config, temperature)
        samples: list[tuple[CheckOutcome, ResultKey | None]] = []
        for index, sample in zip(indices, generation.samples):
            compile_result = checker.check(sample.code)
            outcome = CheckOutcome(
                sample_index=index,
                temperature=temperature,
                syntax_ok=compile_result.ok,
                syntax_error=(
                    "" if compile_result.ok else "; ".join(compile_result.error_messages[:1])
                ),
                design_key=design_key(sample.code),
            )
            key = None
            if compile_result.ok:
                key = ResultKey(
                    design_key=outcome.design_key,
                    stimulus_key=task_stimulus_key,
                    mode=task_mode_key,
                )
                if key not in memo and key not in requests:
                    requests[key] = check_request_for(
                        task, sample.code, key, stimulus, config, database=database
                    )
            samples.append((outcome, key))
        planned.append(samples)

    fresh: dict[ResultKey, CheckExecution] = {}
    if requests:
        report = run_checks(
            list(requests.values()),
            max_workers=config.max_workers,
            policy=ExecutionPolicy.from_config(config),
        )
        fresh = report.executions
        memo.update(
            (key, execution) for key, execution in fresh.items() if not execution.quarantined
        )
        if warning_sink is not None:
            for warning in report.warnings:
                warning_sink(warning["category"], warning["message"], warning.get("detail"))

    verdicts: list[list[SampleVerdict]] = []
    for samples in planned:
        item: list[SampleVerdict] = []
        for outcome, key in samples:
            execution = None
            if key is not None:
                execution = memo[key] if key in memo else fresh[key]
                result = execution.result
                outcome.functional_passed = result.passed
                outcome.failure_summary = result.failure_summary
                outcome.total_checks = result.total_checks
                outcome.attempts = execution.attempts
                outcome.degradation = list(execution.degradation)
                outcome.duration_s = execution.duration_s
                if getattr(result, "proof_stats", None):
                    outcome.proof_stats = dict(result.proof_stats)
            item.append(SampleVerdict(outcome, key, execution))
        verdicts.append(item)
    return verdicts


class RunEngine:
    """Execute a manifest into a store, skipping journaled units."""

    def __init__(
        self,
        manifest: RunManifest,
        store: RunStore,
        resolver: ManifestResolver | None = None,
    ):
        self.manifest = manifest
        self.store = store
        self.resolver = resolver or ManifestResolver(manifest)
        self.checker = SyntaxChecker()
        store.write_manifest(manifest)

    # ------------------------------------------------------------------ planning
    def units(self) -> list[WorkUnit]:
        """The manifest's full work-unit list in deterministic expansion order."""
        return self.manifest.expand(self.resolver.suite_task_ids())

    def shard_units(self, shard_index: int = 0, shard_count: int = 1) -> list[WorkUnit]:
        if shard_count < 1 or not (0 <= shard_index < shard_count):
            raise ValueError(f"invalid shard {shard_index}/{shard_count}")
        return [
            unit
            for position, unit in enumerate(self.units())
            if position % shard_count == shard_index
        ]

    # ------------------------------------------------------------------ execution
    def run(
        self,
        shard_index: int = 0,
        shard_count: int = 1,
        max_units: int | None = None,
    ) -> RunStats:
        """Execute this shard's pending units; return what was done.

        ``max_units`` caps how many *pending* units are executed this
        invocation (used by tests to simulate a crash mid-sweep and by
        operators to run a sweep in bounded slices).
        """
        units = self.shard_units(shard_index, shard_count)
        stats = RunStats(total_units=len(units))

        pending: list[WorkUnit] = []
        for unit in units:
            if unit.key in self.store:
                stats.skipped += 1
            else:
                pending.append(unit)
        if max_units is not None:
            pending = pending[:max_units]
        if not pending:
            return stats

        results = self.execute_units(pending, warning_sink=self.store.record_warning)
        for result in results:
            if result.quarantine is not None:
                # The check burned every attempt: journal the unit as poison
                # so resume skips it instead of re-running it.
                self.store.record_quarantine(
                    result.unit,
                    attempts=result.quarantine.attempts,
                    error=result.quarantine.error,
                    degradation=result.quarantine.degradation,
                )
                stats.quarantined += 1
            else:
                self.store.record(result.unit, result.outcome)
                stats.executed += 1
        return stats

    def execute_units(
        self,
        pending: Sequence[WorkUnit],
        warning_sink: WarningSink | None = None,
    ) -> list[UnitResult]:
        """Generate and check ``pending`` units without journaling them.

        This is the execution core shared by :meth:`run` (which journals into
        this engine's store) and the service worker fleet (which journals
        through the broker's completion lock).  Results come back in plan
        order; execution warnings from the fault-tolerant check layer go to
        ``warning_sink`` as ``(category, message, detail)``.
        """
        # Group pending units by (profile, suite) preserving expansion order,
        # then by (task, temperature) → missing sample indices.
        groups: dict[tuple[str, str], dict[tuple[str, float], list[WorkUnit]]] = {}
        for unit in pending:
            group = groups.setdefault((unit.profile_id, unit.suite_id), {})
            group.setdefault((unit.task_id, unit.temperature), []).append(unit)

        results: list[UnitResult] = []
        for (profile_id, suite_id), task_units in groups.items():
            suite_spec = next(s for s in self.manifest.suites if s.suite_id == suite_id)
            tasks = {task.task_id: task for task in self.resolver.tasks(suite_spec)}
            verdicts = check_samples(
                self.resolver.pipeline(profile_id),
                [
                    (tasks[task_id], temperature, [unit.sample_index for unit in unit_list])
                    for (task_id, temperature), unit_list in task_units.items()
                ],
                self.manifest.config,
                self.checker,
                warning_sink=warning_sink,
            )
            for unit_list, samples in zip(task_units.values(), verdicts):
                for unit, sample in zip(unit_list, samples):
                    execution = sample.execution
                    if execution is not None and execution.quarantined:
                        quarantine = QuarantineInfo(
                            attempts=execution.attempts,
                            error=execution.error,
                            degradation=tuple(execution.degradation),
                        )
                        results.append(UnitResult(unit=unit, quarantine=quarantine))
                    else:
                        results.append(UnitResult(unit=unit, outcome=sample.outcome))
        return results

    # ------------------------------------------------------------------ status
    def progress(self) -> tuple[int, int]:
        """(journaled units of this manifest, total units)."""
        units = self.units()
        done = sum(1 for unit in units if unit.key in self.store)
        return done, len(units)
