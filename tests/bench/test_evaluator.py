"""Tests for the benchmark evaluator (generate → compile → simulate → pass@k)."""

from __future__ import annotations

import pytest

from repro.bench.evaluator import BenchmarkEvaluator, EvaluationConfig, evaluate_models
from repro.core.llm.base import GenerationConfig, GenerationContext, GeneratedSample, LLMBackend
from repro.core.llm.profiles import BASELINE_PROFILES
from repro.core.llm.simulated import SimulatedCodeGenLLM
from repro.core.pipeline import HaVenPipeline
from repro.verilog import codegen
from repro.verilog.simulator.testbench import BatchTestbenchRunner, TestbenchRunner
from repro.verilog.syntax_checker import SyntaxChecker


class PerfectBackend(LLMBackend):
    """Always returns the task's reference implementation."""

    name = "Perfect"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        return [
            GeneratedSample(code=context.reference_source, sample_index=index)
            for index in range(config.num_samples)
        ]


class BrokenBackend(LLMBackend):
    """Always returns code that does not even compile."""

    name = "Broken"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        return [
            GeneratedSample(code="def module(): pass", sample_index=index)
            for index in range(config.num_samples)
        ]


class WrongButCompilingBackend(LLMBackend):
    """Returns a compiling module whose single output is constantly zero."""

    name = "ConstantZero"

    def generate(self, context: GenerationContext, config: GenerationConfig) -> list[GeneratedSample]:
        ports = []
        for port in context.interface.ports:
            range_text = f"[{port.width - 1}:0] " if port.width > 1 else ""
            ports.append(f"    {port.direction} {range_text}{port.name}")
        body = []
        for port in context.interface.output_ports:
            body.append(f"    assign {port.name} = 0;")
        source = (
            f"module {context.interface.name} (\n" + ",\n".join(ports) + "\n);\n" + "\n".join(body) + "\nendmodule\n"
        )
        return [GeneratedSample(code=source, sample_index=index) for index in range(config.num_samples)]


@pytest.fixture(scope="module")
def config() -> EvaluationConfig:
    return EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))


@pytest.fixture(scope="module")
def sampled_candidates(tiny_human_suite) -> list:
    """(task, code) for every compiling origen-deepseek sample the evaluator checks."""
    pipeline = HaVenPipeline(
        SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"]), use_sicot=False
    )
    checker = SyntaxChecker()
    candidates = []
    for task in tiny_human_suite:
        generation = pipeline.generate(
            prompt=task.prompt,
            interface=task.interface,
            reference_source=task.reference_source,
            demands=task.demands,
            config=GenerationConfig(temperature=0.2, num_samples=2, seed=0),
            prompt_style=task.prompt_style,
            task_id=task.task_id,
        )
        candidates.extend(
            (task, sample.code)
            for sample in generation.samples
            if checker.check(sample.code).ok
        )
    return candidates


def _verdicts(candidates, runner_for) -> list[tuple[str, bool]]:
    """(task id, passed) per candidate under the runner ``runner_for(task)`` builds."""
    return [
        (
            task.task_id,
            runner_for(task)
            .run(code, task.golden_factory(), task.stimulus(1234), check_outputs=task.check_outputs)
            .passed,
        )
        for task, code in candidates
    ]


class TestEvaluator:
    def test_perfect_backend_scores_100(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite)
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)
        assert result.syntax_pass_at_k()[1] == pytest.approx(1.0)

    def test_broken_backend_scores_0(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(HaVenPipeline(BrokenBackend(), use_sicot=False), tiny_human_suite)
        assert result.functional_pass_at_k()[1] == pytest.approx(0.0)
        assert result.syntax_pass_at_k()[1] == pytest.approx(0.0)

    def test_wrong_but_compiling_backend_fails_functionally(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(
            HaVenPipeline(WrongButCompilingBackend(), use_sicot=False), tiny_human_suite
        )
        assert result.syntax_pass_at_k()[1] > 0.9
        assert result.functional_pass_at_k()[1] < 0.3

    def test_simulated_backend_between_extremes(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])
        result = evaluator.evaluate(HaVenPipeline(backend, use_sicot=False), tiny_human_suite)
        value = result.functional_pass_at_k()[1]
        assert 0.0 < value < 1.0

    def test_task_results_populated(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite)
        assert len(result.task_results) == len(tiny_human_suite)
        for task_result in result.task_results:
            assert task_result.num_samples == 2
            assert task_result.category

    def test_max_tasks_limits_evaluation(self, tiny_human_suite):
        evaluator = BenchmarkEvaluator(EvaluationConfig(num_samples=1, ks=(1,), temperatures=(0.2,), max_tasks=3))
        result = evaluator.evaluate(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite)
        assert len(result.task_results) == 3

    def test_category_breakdown(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite)
        by_category = result.by_category()
        assert sum(total for _, total in by_category.values()) == len(tiny_human_suite)
        per_category = result.category_pass_at_1()
        assert all(value == pytest.approx(1.0) for value in per_category.values())

    def test_temperature_sweep_takes_best(self, tiny_human_suite):
        sweep = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2, 0.8))
        single = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["codeqwen-7b"])
        swept = BenchmarkEvaluator(sweep).evaluate(HaVenPipeline(backend, use_sicot=False), tiny_human_suite)
        fixed = BenchmarkEvaluator(single).evaluate(HaVenPipeline(backend, use_sicot=False), tiny_human_suite)
        assert swept.functional_pass_at_k()[1] >= fixed.functional_pass_at_k()[1]

    def test_evaluate_models_helper(self, tiny_human_suite, config):
        pipelines = [HaVenPipeline(PerfectBackend(), use_sicot=False)]
        results = evaluate_models(pipelines, [tiny_human_suite], config)
        assert ("Perfect", tiny_human_suite.name) in results

    def test_failure_examples_recorded(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        result = evaluator.evaluate(HaVenPipeline(BrokenBackend(), use_sicot=False), tiny_human_suite)
        assert any(task_result.failure_examples for task_result in result.task_results)

    def test_single_temperature_config_helper(self):
        config = EvaluationConfig(temperatures=(0.2, 0.5, 0.8))
        assert config.single_temperature().temperatures == (0.2,)

    def test_batch_and_scalar_runners_agree(self, tiny_human_suite, sampled_candidates):
        """The evaluator's batched path scores like the scalar oracle, task by task."""
        config = EvaluationConfig(num_samples=2, ks=(1,), temperatures=(0.2,))
        backend = SimulatedCodeGenLLM(BASELINE_PROFILES["origen-deepseek"])
        result = BenchmarkEvaluator(config).evaluate(
            HaVenPipeline(backend, use_sicot=False), tiny_human_suite
        )
        scalar = _verdicts(
            sampled_candidates, lambda task: TestbenchRunner(clock=task.clock, reset=task.reset)
        )
        for task_result in result.task_results:
            passes = [passed for task_id, passed in scalar if task_id == task_result.task_id]
            assert task_result.num_syntax_passes == len(passes), task_result.task_id
            assert task_result.num_functional_passes == sum(passes), task_result.task_id

    def test_differential_runner_runs_clean(self, sampled_candidates):
        """The batched runner re-checked against the scalar oracle never diverges."""
        differential = _verdicts(
            sampled_candidates,
            lambda task: BatchTestbenchRunner(
                clock=task.clock, reset=task.reset, differential=True
            ),
        )
        assert any(passed for _, passed in differential)
        assert not all(passed for _, passed in differential)

    def test_codegen_and_interpreter_backends_agree(self, sampled_candidates):
        """Identical verdicts — sample by sample — under both execution engines."""

        def engine(backend):
            return lambda task: BatchTestbenchRunner(
                clock=task.clock, reset=task.reset, backend=backend
            )

        assert _verdicts(sampled_candidates, engine("auto")) == _verdicts(
            sampled_candidates, engine("interpret")
        )

    def test_generate_only_backend_draws_once_per_task_temperature(self, tiny_human_suite):
        """A backend without ``generate_at`` is asked for the whole stream at once."""

        class CountingBackend(PerfectBackend):
            calls = 0

            def generate(self, context, config):
                CountingBackend.calls += 1
                return super().generate(context, config)

        config = EvaluationConfig(num_samples=3, ks=(1,), temperatures=(0.2, 0.5))
        result = BenchmarkEvaluator(config).evaluate(
            HaVenPipeline(CountingBackend(), use_sicot=False), tiny_human_suite
        )
        assert CountingBackend.calls == len(tiny_human_suite) * 2
        assert all(task_result.num_samples == 3 for task_result in result.task_results)

    def test_codegen_coverage_snapshot(self, tiny_human_suite, config):
        evaluator = BenchmarkEvaluator(config)
        evaluator.evaluate(HaVenPipeline(PerfectBackend(), use_sicot=False), tiny_human_suite)
        coverage = codegen.fallback_stats()
        assert set(coverage) == {"total", "reasons", "designs"}
        assert coverage["total"] == sum(coverage["reasons"].values())


class TestAggregationEdgeCases:
    """SuiteResult aggregation over degenerate per-task shapes."""

    def _result(self, counts, ks=(1, 5)):
        from repro.bench.evaluator import SuiteResult, TaskResult

        return SuiteResult(
            suite_name="edge",
            model_name="edge",
            ks=ks,
            task_results=[
                TaskResult(
                    task_id=f"t{i}",
                    category=category,
                    num_samples=n,
                    num_functional_passes=c,
                    num_syntax_passes=c,
                    temperature=0.2,
                )
                for i, (n, c, category) in enumerate(counts)
            ],
        )

    def test_k_exceeding_samples_does_not_raise(self):
        result = self._result([(2, 1, "a"), (2, 2, "b")], ks=(1, 5))
        values = result.functional_pass_at_k()
        assert 0.0 <= values[1] <= values[5] <= 1.0

    def test_zero_sample_tasks_do_not_poison_suite(self):
        result = self._result([(0, 0, "a"), (10, 10, "b")])
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_category_pass_at_1_with_zero_sample_category(self):
        # A category whose only task drew zero samples reports 0.0, not a crash.
        result = self._result([(0, 0, "empty"), (10, 5, "full")])
        per_category = result.category_pass_at_1()
        assert per_category["empty"] == 0.0
        assert per_category["full"] == pytest.approx(0.5)

    def test_empty_suite_aggregates_to_empty(self):
        result = self._result([])
        assert result.functional_pass_at_k() == {1: 0.0, 5: 0.0}
        assert result.category_pass_at_1() == {}
        assert result.by_category() == {}


class TestFormalMode:
    """mode="formal": combinational tasks get complete SAT proofs."""

    def _suite(self):
        from repro.bench.verilogeval import SuiteConfig, build_verilogeval_human

        return build_verilogeval_human(SuiteConfig(num_tasks=6))

    def test_perfect_backend_proves_equivalent(self):
        config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        result = BenchmarkEvaluator(config).evaluate(
            HaVenPipeline(PerfectBackend(), use_sicot=False), self._suite()
        )
        assert result.functional_pass_at_k()[1] == pytest.approx(1.0)

    def test_wrong_backend_fails_with_counterexample_mismatches(self):
        config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        result = BenchmarkEvaluator(config).evaluate(
            HaVenPipeline(WrongButCompilingBackend(), use_sicot=False), self._suite()
        )
        assert result.functional_pass_at_k()[1] < 0.3
        # Failures must carry concrete evidence (formal counterexamples for
        # combinational tasks, simulation mismatches for sequential ones).
        failing = [r for r in result.task_results if not r.passed_at_least_once]
        assert failing
        assert any("expected" in example for r in failing for example in r.failure_examples)

    def test_formal_and_simulation_modes_agree(self):
        formal_config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="formal"
        )
        simulation_config = EvaluationConfig(
            num_samples=1, ks=(1,), temperatures=(0.2,), mode="simulation"
        )
        suite = self._suite()
        for backend in (PerfectBackend(), WrongButCompilingBackend()):
            formal = BenchmarkEvaluator(formal_config).evaluate(
                HaVenPipeline(backend, use_sicot=False), suite
            )
            simulated = BenchmarkEvaluator(simulation_config).evaluate(
                HaVenPipeline(backend, use_sicot=False), suite
            )
            formal_verdicts = {r.task_id: r.passed_at_least_once for r in formal.task_results}
            simulated_verdicts = {
                r.task_id: r.passed_at_least_once for r in simulated.task_results
            }
            assert formal_verdicts == simulated_verdicts
