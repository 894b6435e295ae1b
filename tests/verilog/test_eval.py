"""Tests for the expression evaluator."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.verilog.errors import SimulationError
from repro.verilog.parser import parse_module
from repro.verilog.simulator.eval import EvalContext, ExpressionEvaluator
from repro.verilog.simulator.values import LogicVector
from repro.verilog import ast_nodes as ast


def _evaluate(expression_text: str, signals: dict[str, LogicVector] | None = None) -> LogicVector:
    """Parse an expression through a throwaway module and evaluate it."""
    signals = signals or {}
    declarations = "\n".join(
        f"    input [{value.width - 1}:0] {name}," if value.width > 1 else f"    input {name},"
        for name, value in signals.items()
    )
    source = f"module t(\n{declarations}\n    output [31:0] y\n);\nassign y = {expression_text};\nendmodule"
    module = parse_module(source)
    assign = module.find_items(ast.ContinuousAssign)[0]
    evaluator = ExpressionEvaluator(EvalContext(signals=dict(signals)))
    return evaluator.evaluate(assign.value)


def _signals(**values: tuple[int, int]) -> dict[str, LogicVector]:
    return {name: LogicVector.from_int(value, width) for name, (value, width) in values.items()}


class TestArithmetic:
    def test_addition(self):
        result = _evaluate("a + b", _signals(a=(200, 8), b=(100, 8)))
        assert result.to_int() == 300 & 0xFF or result.to_int() == 300  # width >= 8

    def test_subtraction_keeps_borrow_headroom(self):
        result = _evaluate("a - b", _signals(a=(0, 8), b=(1, 8)))
        # The expression keeps one bit of headroom; assignment truncation restores
        # the usual 8-bit wrap-around (checked in the simulator tests).
        assert result.width == 9
        assert result.to_int() & 0xFF == 0xFF

    def test_multiplication(self):
        assert _evaluate("a * b", _signals(a=(7, 8), b=(6, 8))).to_int() == 42

    def test_division_and_modulo(self):
        assert _evaluate("a / b", _signals(a=(42, 8), b=(5, 8))).to_int() == 8
        assert _evaluate("a % b", _signals(a=(42, 8), b=(5, 8))).to_int() == 2

    def test_division_by_zero_is_x(self):
        assert _evaluate("a / b", _signals(a=(42, 8), b=(0, 8))).has_unknown

    def test_power(self):
        assert _evaluate("a ** 2", _signals(a=(5, 8))).to_int() == 25


class TestBitwiseAndLogical:
    def test_bitwise_ops(self):
        signals = _signals(a=(0b1100, 4), b=(0b1010, 4))
        assert _evaluate("a & b", signals).to_int() == 0b1000
        assert _evaluate("a | b", signals).to_int() == 0b1110
        assert _evaluate("a ^ b", signals).to_int() == 0b0110

    def test_bitwise_not(self):
        assert _evaluate("~a", _signals(a=(0b1010, 4))).slice(3, 0).to_int() == 0b0101

    def test_logical_ops(self):
        signals = _signals(a=(3, 4), b=(0, 4))
        assert _evaluate("a && b", signals).to_int() == 0
        assert _evaluate("a || b", signals).to_int() == 1
        assert _evaluate("!b", signals).to_int() == 1

    def test_logical_with_x_short_circuit(self):
        signals = {"a": LogicVector.from_int(0, 1), "b": LogicVector.unknown(1)}
        assert _evaluate("a && b", signals).to_int() == 0
        signals = {"a": LogicVector.from_int(1, 1), "b": LogicVector.unknown(1)}
        assert _evaluate("a || b", signals).to_int() == 1

    def test_reduction_operators(self):
        signals = _signals(a=(0b1111, 4), b=(0b1010, 4))
        assert _evaluate("&a", signals).to_int() == 1
        assert _evaluate("&b", signals).to_int() == 0
        assert _evaluate("|b", signals).to_int() == 1
        assert _evaluate("^b", signals).to_int() == 0
        assert _evaluate("~^b", signals).to_int() == 1

    def test_bitwise_with_x_propagation(self):
        signals = {"a": LogicVector.from_string("1x"), "b": LogicVector.from_int(0b01, 2)}
        result = _evaluate("a & b", signals)
        assert result.bit(1) == "0" or result.bit(1) == "x"  # x & 0 = 0
        # 1 & x should be x; x & 0 is 0
        result_or = _evaluate("a | b", signals)
        assert result_or.bit(0) == "1"


class TestComparisons:
    def test_equality(self):
        signals = _signals(a=(5, 4), b=(5, 4), c=(6, 4))
        assert _evaluate("a == b", signals).to_int() == 1
        assert _evaluate("a == c", signals).to_int() == 0
        assert _evaluate("a != c", signals).to_int() == 1

    def test_relational(self):
        signals = _signals(a=(5, 4), b=(9, 4))
        assert _evaluate("a < b", signals).to_int() == 1
        assert _evaluate("a >= b", signals).to_int() == 0

    def test_comparison_with_x_is_x(self):
        signals = {"a": LogicVector.unknown(4), "b": LogicVector.from_int(3, 4)}
        assert _evaluate("a == b", signals).has_unknown

    def test_case_equality_with_x(self):
        signals = {"a": LogicVector.unknown(4), "b": LogicVector.unknown(4)}
        assert _evaluate("a === b", signals).to_int() == 1
        assert _evaluate("a !== b", signals).to_int() == 0


class TestShiftsSelectsConcat:
    def test_shifts(self):
        signals = _signals(a=(0b0110, 4))
        assert _evaluate("a << 1", signals).to_int() == 0b1100
        assert _evaluate("a >> 2", signals).to_int() == 0b0001

    def test_arithmetic_right_shift(self):
        signals = _signals(a=(0b1000, 4))
        assert _evaluate("a >>> 1", signals).slice(3, 0).to_int() == 0b1100

    def test_ternary(self):
        signals = _signals(sel=(1, 1), a=(3, 4), b=(9, 4))
        assert _evaluate("sel ? a : b", signals).to_int() == 3

    def test_ternary_with_x_condition_merges(self):
        signals = {"sel": LogicVector.unknown(1), "a": LogicVector.from_int(5, 4), "b": LogicVector.from_int(5, 4)}
        assert _evaluate("sel ? a : b", signals).to_int() == 5

    def test_concat_and_replication(self):
        signals = _signals(a=(0b10, 2), b=(0b1, 1))
        assert _evaluate("{a, b}", signals).to_int() == 0b101
        assert _evaluate("{3{b}}", signals).to_int() == 0b111

    def test_bit_and_part_select(self):
        signals = _signals(a=(0b10110010, 8))
        assert _evaluate("a[7]", signals).to_int() == 1
        assert _evaluate("a[3:0]", signals).to_int() == 0b0010
        assert _evaluate("a[0 +: 4]", signals).to_int() == 0b0010

    def test_system_functions(self):
        signals = _signals(a=(12, 8))
        assert _evaluate("$signed(a)", signals).to_int() == 12
        assert _evaluate("$clog2(a)", signals).to_int() == 4


#: A shift amount whose scalar image would be a 2**48-bit integer.
HUGE = "64'hFFFFFFFFFFFF"

#: A clocked design, so the checks run on the scalar cycle-serial engine.
HUGE_SHIFT_CLOCKED = f"""
module top_module(input clk, input [7:0] d, output reg [7:0] q, output reg [7:0] s);
    always @(posedge clk) begin
        q <= (d << {HUGE}) | (d >> {HUGE}) | (d << 3);
        s <= d >>> {HUGE};
    end
endmodule
"""


class TestHugeShiftAmounts:
    """Shifting by more than the operand width clears (or sign-fills) it."""

    def test_huge_amounts_match_a_full_width_shift(self):
        signals = _signals(a=(0b1011, 4))
        for op in ("<<", ">>", "<<<", ">>>"):
            assert _evaluate(f"a {op} {HUGE}", signals) == _evaluate(f"a {op} 4", signals)
        assert _evaluate(f"a << {HUGE}", signals).to_int() == 0
        assert _evaluate(f"a >>> {HUGE}", signals).slice(3, 0).to_int() == 0b1111

    def test_huge_amounts_clear_the_x_plane(self):
        signals = {"a": LogicVector(width=4, value=0b0001, xz_mask=0b0110)}
        for op in ("<<", ">>"):
            shifted = _evaluate(f"a {op} {HUGE}", signals)
            assert shifted == _evaluate(f"a {op} 4", signals)
            assert not shifted.has_unknown

    def test_clocked_design_on_the_scalar_engine(self):
        from repro.verilog.simulator.batch import BatchSimulator
        from repro.verilog.simulator.simulator import ModuleSimulator

        scalar = ModuleSimulator.from_source(HUGE_SHIFT_CLOCKED)
        batched = BatchSimulator.from_source(HUGE_SHIFT_CLOCKED, lanes=1, backend="interpret")
        for d in (0x81, 0x7F, 0x10, 0xFF):
            scalar.clock_cycle(inputs={"d": d})
            batched.clock_cycle(inputs={"d": [d]})
            assert scalar.get_int("q") == (d << 3) & 0xFF
            assert not scalar.get("s").has_unknown
            for name in ("q", "s"):
                assert batched.get_lane(name, 0) == scalar.get(name)


class TestContextAndErrors:
    def test_parameter_lookup(self):
        evaluator = ExpressionEvaluator(EvalContext(parameters={"WIDTH": 8}))
        assert evaluator.evaluate(ast.Identifier("WIDTH")).to_int() == 8

    def test_unknown_identifier_raises(self):
        evaluator = ExpressionEvaluator(EvalContext())
        with pytest.raises(SimulationError):
            evaluator.evaluate(ast.Identifier("nope"))

    def test_constant_evaluation(self):
        evaluator = ExpressionEvaluator(EvalContext(parameters={"W": 4}))
        expression = ast.BinaryOp(op="-", left=ast.Identifier("W"), right=ast.Number(value=1))
        assert evaluator.evaluate_constant(expression) == 3

    def test_constant_with_x_raises(self):
        evaluator = ExpressionEvaluator(EvalContext(signals={"a": LogicVector.unknown(4)}))
        with pytest.raises(SimulationError):
            evaluator.evaluate_constant(ast.Identifier("a"))


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_addition_matches_python(a, b):
    result = _evaluate("a + b", _signals(a=(a, 8), b=(b, 8)))
    assert result.to_int() & 0x1FF == (a + b) & 0x1FF


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_bitwise_matches_python(a, b):
    signals = _signals(a=(a, 8), b=(b, 8))
    assert _evaluate("a & b", signals).to_int() == a & b
    assert _evaluate("a | b", signals).to_int() == a | b
    assert _evaluate("a ^ b", signals).to_int() == a ^ b


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_comparisons_match_python(a, b):
    signals = _signals(a=(a, 8), b=(b, 8))
    assert _evaluate("a < b", signals).to_int() == int(a < b)
    assert _evaluate("a == b", signals).to_int() == int(a == b)
