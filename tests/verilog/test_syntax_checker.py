"""Tests for the syntax/semantic checker (the compiler verification gate)."""

from __future__ import annotations

from repro.verilog.syntax_checker import SyntaxChecker, check_source, compiles


class TestAcceptedDesigns:
    def test_counter_compiles(self, counter_source):
        result = check_source(counter_source)
        assert result.ok
        assert result.errors == []
        assert result.source_file is not None

    def test_fsm_compiles(self, fsm_source):
        assert compiles(fsm_source)

    def test_adder_compiles(self, adder_source):
        assert compiles(adder_source)

    def test_warning_for_always_without_sensitivity(self):
        result = check_source("module m(output reg y); always y = 1'b0; endmodule")
        assert result.ok
        assert any("sensitivity" in str(w) for w in result.warnings)


class TestRejectedDesigns:
    def test_python_style_code_rejected(self, broken_source):
        result = check_source(broken_source)
        assert not result.ok
        assert result.errors

    def test_empty_source_rejected(self):
        assert not compiles("")

    def test_missing_semicolon_rejected(self):
        assert not compiles("module m(input a, output y); assign y = a endmodule")

    def test_undeclared_identifier_rejected(self):
        result = check_source("module m(input a, output y); assign y = a & ghost; endmodule")
        assert not result.ok
        assert any("ghost" in message for message in result.error_messages)

    def test_procedural_assign_to_wire_rejected(self):
        source = "module m(input a, output y); always @(*) y = a; endmodule"
        result = check_source(source)
        assert not result.ok
        assert any("wire" in message for message in result.error_messages)

    def test_continuous_assign_to_reg_rejected(self):
        source = "module m(input a, output reg y); assign y = a; endmodule"
        result = check_source(source)
        assert not result.ok

    def test_assign_to_input_rejected(self):
        source = "module m(input a, input b, output y); assign a = b; assign y = b; endmodule"
        result = check_source(source)
        assert not result.ok
        assert any("input port" in message for message in result.error_messages)

    def test_duplicate_module_rejected(self):
        source = "module m(); endmodule module m(); endmodule"
        result = check_source(source)
        assert not result.ok

    def test_duplicate_declaration_rejected(self):
        source = "module m(input a, output y); wire t; wire t; assign y = a; endmodule"
        result = check_source(source)
        assert not result.ok

    def test_port_without_direction_rejected(self):
        source = "module m(a, y); assign y = a; endmodule"
        result = check_source(source)
        assert not result.ok

    def test_missing_endmodule_rejected(self, counter_source):
        assert not compiles(counter_source.replace("endmodule", ""))

    def test_error_messages_are_strings(self, broken_source):
        result = check_source(broken_source)
        assert all(isinstance(message, str) for message in result.error_messages)


class TestCorpusLevelBehaviour:
    def test_flawed_corpus_samples_fail_verification(self, small_corpus):
        """Samples flagged as flawed by the corpus generator mostly fail to compile."""
        checker = SyntaxChecker()
        flawed = [sample for sample in small_corpus if sample.is_flawed]
        assert flawed, "corpus should contain flawed samples"
        failures = sum(1 for sample in flawed if not checker.check(sample.code).ok)
        assert failures >= len(flawed) * 0.7

    def test_clean_corpus_samples_compile(self, small_corpus):
        checker = SyntaxChecker()
        clean = [sample for sample in small_corpus if not sample.is_flawed]
        assert clean
        passes = sum(1 for sample in clean if checker.check(sample.code).ok)
        assert passes == len(clean)


def _nested(shape: str, depth: int) -> str:
    """A design whose single output nests ``depth`` levels of ``shape``."""
    if shape == "ifs":
        body = "if (a[0]) " * depth + "y = a;"
        return (
            "module top_module(input [3:0] a, output reg [3:0] y);"
            f" always @(*) begin y = a; {body} end endmodule"
        )
    expression = {
        "parens": "(" * depth + "a" + ")" * depth,
        "unary": "~" * (2 * (depth // 2)) + "a",
        "chain": " ^ ".join(["a"] * (2 * (depth // 2) + 1)),
    }[shape]
    return f"module top_module(input [3:0] a, output [3:0] y); assign y = {expression}; endmodule"


class TestNestingDepth:
    """Hostile nesting is a failing CompileResult, never a RecursionError."""

    SHAPES = ("parens", "ifs", "unary", "chain")

    def test_hostile_nesting_fails_the_check(self):
        for shape, depth in (("parens", 3000), ("ifs", 2000), ("unary", 3000), ("chain", 3000)):
            result = SyntaxChecker().check(_nested(shape, depth))
            assert not result.ok, shape
            assert "nesting too deep" in result.errors[0].message, shape

    def test_designs_at_the_limit_run_on_every_engine(self):
        from repro.bench.golden import VectorFunctionGolden, formal_equivalence_check
        from repro.verilog.parser import MAX_NESTING_DEPTH
        from repro.verilog.simulator.testbench import BatchTestbenchRunner, TestbenchRunner

        reference = "module top_module(input [3:0] a, output [3:0] y); assign y = a; endmodule"
        stimulus = [{"a": value} for value in range(16)]
        for shape in self.SHAPES:
            # The enclosing block, statement and expression take up to three levels.
            source = _nested(shape, MAX_NESTING_DEPTH - 3)
            assert SyntaxChecker().check(source).ok, shape
            for runner in (TestbenchRunner(), BatchTestbenchRunner(differential=True)):
                golden = VectorFunctionGolden(lambda vector: {"y": vector["a"]})
                assert runner.run(source, golden, stimulus).passed, shape
            assert formal_equivalence_check(source, reference, session=None).equivalent, shape
