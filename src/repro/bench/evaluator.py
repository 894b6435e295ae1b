"""Benchmark evaluation front end: generate → compile → check jobs → pass@k.

The evaluator scores a generation pipeline (backend + optional SI-CoT) on a
benchmark suite the same way the paper does:

* ``n`` samples are drawn per task (default 10) at each configured temperature,
  and — following RTLCoder and the paper's setup — the best functional result
  over the temperature sweep is reported;
* every sample is compiled with the syntax checker (syntax correctness) and, if
  it compiles, simulated against the task's golden model (functional
  correctness);
* per-task (n, c) counts are aggregated with the unbiased pass@k estimator.

:class:`BenchmarkEvaluator` is a thin in-memory front over the run engine's
check core, :func:`repro.runs.engine.check_samples`: each unique
``(candidate design, stimulus, mode)`` triple becomes one
:class:`~repro.bench.jobs.CheckRequest`, executed exactly once and memoised by
its content-addressed :class:`~repro.bench.jobs.ResultKey`.  Repeated
candidates — across samples, temperatures, whole ``evaluate`` calls — cost a
dict lookup; syntax checking and DUT elaboration ride the shared
:class:`~repro.verilog.design.DesignDatabase`.  With
``EvaluationConfig(max_workers=N)`` independent checks execute concurrently on
a process pool (with a transparent serial fallback).  Per-task counting and
best-temperature selection (:func:`assemble_task_result`,
:func:`best_temperature`) are shared with the journal-driven
:class:`~repro.runs.aggregate.StreamingAggregator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from ..core.pipeline import HaVenPipeline
from ..verilog.syntax_checker import SyntaxChecker
from .golden import GoldenCache
from .jobs import (
    CheckExecution,
    CheckOutcome,
    CheckRequest,
    ResultKey,
    mode_key,
    stimulus_key,
)
from .passk import compute_pass_at_k
from .task import BenchmarkSuite, BenchmarkTask

#: Maximum failure examples kept per task result.
MAX_FAILURE_EXAMPLES = 3


#: Engine-selection keys that configs once carried, frozen at the only values
#: the one check engine honours.  ``to_dict`` still emits them so a manifest
#: planned before they were retired keeps its exact ``manifest_hash`` (the
#: broker ``run_id`` and the root of every journaled unit key); ``from_dict``
#: rejects a payload that asks for any other engine.
RETIRED_ENGINE_KEYS: Mapping[str, object] = MappingProxyType(
    {
        "use_batch_simulator": True,
        "differential_oracle": False,
        "simulator_backend": "auto",
        "formal_incremental": True,
        "induction_depth": 4,
    }
)


@dataclass
class EvaluationConfig:
    """How a suite evaluation is run."""

    num_samples: int = 10
    ks: tuple[int, ...] = (1, 5)
    temperatures: tuple[float, ...] = (0.2, 0.5, 0.8)
    seed: int = 0
    stimulus_seed: int = 1234
    max_tasks: int | None = None
    #: ``"simulation"`` scores with stimulus sweeps; ``"formal"`` upgrades
    #: combinational tasks to complete SAT equivalence proofs against the
    #: reference design (sequential tasks and unprovable constructs fall back
    #: to the simulation path transparently).
    mode: str = "simulation"
    #: Conflict budget per SAT proof in formal mode (None = unbounded); an
    #: exhausted budget falls back to the simulation path for that sample.
    #: The budget is charged *per proof* even on the shared incremental
    #: session — every candidate of a sweep gets the full limit.
    formal_conflict_limit: int | None = 50_000
    #: Worker processes for functional checks (1 = serial in-process).  Checks
    #: whose golden factories cannot be pickled, and any pool failure, fall
    #: back to serial execution automatically.
    max_workers: int = 1
    #: Memoise check verdicts by ``(design, stimulus, mode)`` across samples,
    #: temperatures and ``evaluate`` calls.  Disable to force every check cold
    #: (the cold-reference and benchmark-baseline configuration).
    memoize_results: bool = True
    #: Wall-clock budget per functional-check attempt (None = no deadline).
    #: Cooperative: the simulators and the SAT search tick the deadline; pool
    #: workers additionally get a hard per-future deadline with a grace period.
    check_timeout_s: float | None = None
    #: Execution attempts per check before it is quarantined (1 = no retries).
    max_attempts: int = 3
    #: First-retry backoff delay; doubles per attempt with deterministic jitter.
    retry_backoff_s: float = 0.05
    #: Ceiling on any single backoff delay.
    retry_backoff_cap_s: float = 2.0

    def single_temperature(self) -> "EvaluationConfig":
        """A copy that only evaluates the first temperature (for quick runs)."""
        return replace(self, temperatures=self.temperatures[:1])

    def to_dict(self) -> dict:
        """JSON-safe serialization (run manifests persist this verbatim)."""
        return {
            "num_samples": self.num_samples,
            "ks": list(self.ks),
            "temperatures": list(self.temperatures),
            "seed": self.seed,
            "stimulus_seed": self.stimulus_seed,
            "max_tasks": self.max_tasks,
            "mode": self.mode,
            "formal_conflict_limit": self.formal_conflict_limit,
            "max_workers": self.max_workers,
            "memoize_results": self.memoize_results,
            "check_timeout_s": self.check_timeout_s,
            "max_attempts": self.max_attempts,
            "retry_backoff_s": self.retry_backoff_s,
            "retry_backoff_cap_s": self.retry_backoff_cap_s,
            **RETIRED_ENGINE_KEYS,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EvaluationConfig":
        for name, frozen in RETIRED_ENGINE_KEYS.items():
            if name in payload and payload[name] != frozen:
                raise ValueError(
                    f"config key {name!r} is retired: only {frozen!r} is supported, "
                    f"got {payload[name]!r}"
                )
        return cls(
            num_samples=int(payload["num_samples"]),
            ks=tuple(int(k) for k in payload["ks"]),
            temperatures=tuple(float(t) for t in payload["temperatures"]),
            seed=int(payload.get("seed", 0)),
            stimulus_seed=int(payload.get("stimulus_seed", 1234)),
            max_tasks=payload.get("max_tasks"),
            mode=str(payload.get("mode", "simulation")),
            formal_conflict_limit=payload.get("formal_conflict_limit"),
            max_workers=int(payload.get("max_workers", 1)),
            memoize_results=bool(payload.get("memoize_results", True)),
            check_timeout_s=(
                float(payload["check_timeout_s"])
                if payload.get("check_timeout_s") is not None
                else None
            ),
            max_attempts=int(payload.get("max_attempts", 3)),
            retry_backoff_s=float(payload.get("retry_backoff_s", 0.05)),
            retry_backoff_cap_s=float(payload.get("retry_backoff_cap_s", 2.0)),
        )


@dataclass
class TaskResult:
    """Per-task scoring outcome (at the best temperature)."""

    task_id: str
    category: str
    num_samples: int
    num_functional_passes: int
    num_syntax_passes: int
    temperature: float
    failure_examples: list[str] = field(default_factory=list)
    #: Samples whose checks were quarantined (burned every execution attempt).
    #: They count as non-passes in this result, but their verdicts are infra
    #: faults, not candidate failures — they are never memoized, so a later
    #: ``evaluate`` call re-attempts them.
    num_quarantined: int = 0

    @property
    def passed_at_least_once(self) -> bool:
        return self.num_functional_passes > 0

    def to_dict(self) -> dict:
        payload = {
            "task_id": self.task_id,
            "category": self.category,
            "num_samples": self.num_samples,
            "num_functional_passes": self.num_functional_passes,
            "num_syntax_passes": self.num_syntax_passes,
            "temperature": self.temperature,
            "failure_examples": list(self.failure_examples),
        }
        if self.num_quarantined:
            payload["num_quarantined"] = self.num_quarantined
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TaskResult":
        return cls(
            task_id=str(payload["task_id"]),
            category=str(payload["category"]),
            num_samples=int(payload["num_samples"]),
            num_functional_passes=int(payload["num_functional_passes"]),
            num_syntax_passes=int(payload["num_syntax_passes"]),
            temperature=float(payload["temperature"]),
            failure_examples=[str(entry) for entry in payload.get("failure_examples", [])],
            num_quarantined=int(payload.get("num_quarantined", 0)),
        )


@dataclass
class SuiteResult:
    """Aggregate scoring outcome for one model on one suite."""

    suite_name: str
    model_name: str
    task_results: list[TaskResult] = field(default_factory=list)
    ks: tuple[int, ...] = (1, 5)

    def functional_pass_at_k(self) -> dict[int, float]:
        counts = [(r.num_samples, r.num_functional_passes) for r in self.task_results]
        return compute_pass_at_k(counts, self.ks).values

    def syntax_pass_at_k(self) -> dict[int, float]:
        counts = [(r.num_samples, r.num_syntax_passes) for r in self.task_results]
        return compute_pass_at_k(counts, self.ks).values

    def functional_percentages(self) -> dict[int, float]:
        return {k: round(100.0 * v, 1) for k, v in self.functional_pass_at_k().items()}

    def syntax_percentages(self) -> dict[int, float]:
        return {k: round(100.0 * v, 1) for k, v in self.syntax_pass_at_k().items()}

    def by_category(self) -> dict[str, tuple[int, int]]:
        """category → (tasks passed at least once, total tasks)."""
        summary: dict[str, tuple[int, int]] = {}
        for result in self.task_results:
            passed, total = summary.get(result.category, (0, 0))
            summary[result.category] = (passed + (1 if result.passed_at_least_once else 0), total + 1)
        return summary

    def category_pass_at_1(self) -> dict[str, float]:
        """Per-category pass@1 (used for the Table V modality breakdown)."""
        by_category: dict[str, list[tuple[int, int]]] = {}
        for result in self.task_results:
            by_category.setdefault(result.category, []).append(
                (result.num_samples, result.num_functional_passes)
            )
        return {
            category: compute_pass_at_k(counts, (1,)).values[1]
            for category, counts in by_category.items()
        }

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "model_name": self.model_name,
            "ks": list(self.ks),
            "task_results": [result.to_dict() for result in self.task_results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SuiteResult":
        return cls(
            suite_name=str(payload["suite_name"]),
            model_name=str(payload["model_name"]),
            ks=tuple(int(k) for k in payload.get("ks", (1, 5))),
            task_results=[TaskResult.from_dict(entry) for entry in payload.get("task_results", [])],
        )


def task_check_keys(
    task: BenchmarkTask, config: EvaluationConfig, temperature: float
) -> tuple[list[dict[str, int]], str, str]:
    """Stimulus plus the (stimulus, mode) halves of every :class:`ResultKey`.

    This is the single definition of how a task's checking side is
    content-addressed; the check core builds every key here, so the in-memory
    evaluator and the resumable run engine land on the same addresses.
    With memoisation off, the key is salted per temperature so nothing is
    shared between temperature sweeps (the guaranteed-cold baseline).
    """
    stimulus = task.stimulus(config.stimulus_seed)
    salt = "" if config.memoize_results else f"T{temperature}"
    task_stimulus_key = stimulus_key(
        task.task_id,
        stimulus,
        task.check_outputs,
        task.clock,
        task.reset,
        reference_source=task.reference_source,
        salt=salt,
    )
    task_mode_key = mode_key(config.mode, config.formal_conflict_limit)
    return stimulus, task_stimulus_key, task_mode_key


def check_request_for(
    task: BenchmarkTask,
    code: str,
    key: ResultKey,
    stimulus: list[dict[str, int]],
    config: EvaluationConfig,
    database=None,
) -> CheckRequest:
    """Build the self-contained check request for one compiled candidate."""
    return CheckRequest(
        key=key,
        code=code,
        task_id=task.task_id,
        golden_factory=task.golden_factory,
        stimulus=stimulus,
        reference_source=task.reference_source,
        check_outputs=task.check_outputs,
        clock=task.clock,
        reset=task.reset,
        mode=config.mode,
        formal_conflict_limit=config.formal_conflict_limit,
        database=database,
        timeout_s=config.check_timeout_s,
    )


def assemble_task_result(
    task_id: str,
    category: str,
    temperature: float,
    outcomes: Sequence[CheckOutcome],
    num_quarantined: int = 0,
) -> TaskResult:
    """Count one (task, temperature) slice of per-sample outcomes, in sample order.

    The single per-task assembly: the evaluator feeds it the outcomes it just
    checked, the streaming aggregator the journaled ones.  Failure examples
    are capped at :data:`MAX_FAILURE_EXAMPLES`, first failures first.
    """
    functional_passes = 0
    syntax_passes = 0
    failures: list[str] = []
    for outcome in outcomes:
        if not outcome.syntax_ok:
            if len(failures) < MAX_FAILURE_EXAMPLES:
                failures.append(outcome.syntax_error)
            continue
        syntax_passes += 1
        if outcome.functional_passed:
            functional_passes += 1
        elif len(failures) < MAX_FAILURE_EXAMPLES:
            failures.append(outcome.failure_summary)
    return TaskResult(
        task_id=task_id,
        category=category,
        num_samples=len(outcomes),
        num_functional_passes=functional_passes,
        num_syntax_passes=syntax_passes,
        temperature=temperature,
        failure_examples=failures,
        num_quarantined=num_quarantined,
    )


def best_temperature(candidates: Sequence[TaskResult]) -> TaskResult:
    """The temperature sweep's best functional result; the first one wins ties."""
    return max(candidates, key=lambda candidate: candidate.num_functional_passes)


class BenchmarkEvaluator:
    """Run a pipeline over a suite and score it in memory.

    Args:
        config: sampling/scoring plan.
        database: :class:`~repro.verilog.design.DesignDatabase` shared by the
            syntax checker and the simulation-path runners (defaults to the
            process-wide database).  Setting one pins functional checks to
            in-parent execution (databases do not cross process boundaries);
            the formal prover always rides the process-wide database.
    """

    def __init__(self, config: EvaluationConfig | None = None, database=None):
        self.config = config or EvaluationConfig()
        self.database = database
        self.checker = SyntaxChecker(database=database)
        #: Cross-run verdict memo: content-addressed, so repeated candidates
        #: (across temperatures, runs, pipelines) are scored exactly once.
        #: Only *settled* verdicts enter it — quarantined checks (transient
        #: infra faults that burned every attempt) are deliberately excluded,
        #: so they are re-attempted instead of permanently scored as failures.
        self.memo: dict[ResultKey, CheckExecution] = {}
        #: Structured execution warnings (serial fallback, pool degradation)
        #: accumulated across ``evaluate`` calls; callers may drain this.
        self.warnings: list[dict] = []

    def evaluate(self, pipeline: HaVenPipeline, suite: BenchmarkSuite) -> SuiteResult:
        """Evaluate ``pipeline`` on ``suite`` with the configured sampling plan."""
        from ..runs.engine import check_samples

        config = self.config
        tasks = list(suite)[: config.max_tasks]
        if not config.memoize_results:
            self.memo.clear()
        verdicts = iter(
            check_samples(
                pipeline,
                [
                    (task, temperature, range(config.num_samples))
                    for task in tasks
                    for temperature in config.temperatures
                ],
                config,
                self.checker,
                database=self.database,
                memo=self.memo,
                warning_sink=self._warn,
            )
        )

        result = SuiteResult(suite_name=suite.name, model_name=pipeline.name, ks=config.ks)
        quarantined: dict[ResultKey, tuple[str, CheckExecution]] = {}
        for task in tasks:
            candidates = []
            for temperature in config.temperatures:
                samples = next(verdicts)
                poisoned = [
                    sample
                    for sample in samples
                    if sample.execution is not None and sample.execution.quarantined
                ]
                for sample in poisoned:
                    quarantined.setdefault(sample.key, (task.task_id, sample.execution))
                candidates.append(
                    assemble_task_result(
                        task.task_id,
                        task.category,
                        temperature,
                        [sample.outcome for sample in samples],
                        num_quarantined=len(poisoned),
                    )
                )
            result.task_results.append(best_temperature(candidates))

        for key, (task_id, execution) in quarantined.items():
            self._warn(
                "quarantined",
                f"check for task {task_id!r} quarantined "
                f"after {execution.attempts} attempt(s): {execution.error}",
                {
                    "task_id": task_id,
                    "design_key": key.design_key,
                    "attempts": execution.attempts,
                    "error": execution.error,
                },
            )
        if not config.memoize_results:
            self.memo.clear()
        return result

    def _warn(self, category: str, message: str, detail: dict | None = None) -> None:
        entry: dict = {"category": category, "message": message}
        if detail:
            entry["detail"] = detail
        self.warnings.append(entry)


def evaluate_models(
    pipelines: Sequence[HaVenPipeline],
    suites: Sequence[BenchmarkSuite],
    config: EvaluationConfig | None = None,
) -> dict[tuple[str, str], SuiteResult]:
    """Evaluate several pipelines on several suites; keys are (model, suite) names.

    One evaluator (and therefore one verdict memo) is shared across the whole
    grid, so a candidate produced by several pipelines is checked once.
    """
    evaluator = BenchmarkEvaluator(config)
    results: dict[tuple[str, str], SuiteResult] = {}
    for pipeline in pipelines:
        for suite in suites:
            results[(pipeline.name, suite.name)] = evaluator.evaluate(pipeline, suite)
    return results


def check_reference_designs(
    suite: BenchmarkSuite,
    stimulus_seed: int = 1234,
    max_tasks: int | None = None,
) -> dict[str, str]:
    """Check every task's golden Verilog reference against its Python golden model.

    This is the suite self-consistency sweep the benchmark builders expose
    (``verilogeval.validate_references`` etc.): the reference design must pass
    its own functional testbench.  Combinational tasks run column-parallel via
    :class:`BatchTestbenchRunner` with the differential oracle on, so every
    batched run is re-checked against the scalar runner.  Reference designs
    and golden models are cached (design database +
    :class:`~repro.bench.golden.GoldenCache`), so repeated sweeps stop
    rebuilding them.

    Returns:
        task_id → failure summary for every failing task (empty == all passed).
    """
    from ..verilog.simulator.testbench import BatchTestbenchRunner

    goldens = GoldenCache()
    failures: dict[str, str] = {}
    tasks = list(suite)
    if max_tasks is not None:
        tasks = tasks[:max_tasks]
    for task in tasks:
        runner = BatchTestbenchRunner(clock=task.clock, reset=task.reset, differential=True)
        result = runner.run(
            task.reference_source,
            goldens.get(task),
            task.stimulus(stimulus_seed),
            check_outputs=task.check_outputs,
        )
        if not result.passed:
            failures[task.task_id] = result.failure_summary or "no checks executed"
    return failures
