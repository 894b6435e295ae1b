"""Expression evaluation for the Verilog simulator.

The evaluator computes :class:`~repro.verilog.simulator.values.LogicVector` results
for AST expressions against an *environment*: a mapping from signal names to their
current values, plus parameter constants and user-defined functions.

:class:`BatchExpressionEvaluator` is the column-aware counterpart used by the
batched simulator: the same AST walk, but every operator works on
:class:`~repro.verilog.simulator.values.BatchVector` columns so all stimulus
lanes are evaluated with word-wide integer operations.  Constructs that cannot
be expressed as column math (division, user functions, lane-divergent part
selects, ...) fall back to the scalar evaluator lane by lane, keeping the batch
path bit-exact with :class:`ExpressionEvaluator` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import ast_nodes as ast
from ..errors import SimulationError
from .values import BatchVector, LogicVector, batch_concat_all, concat_all


@dataclass
class EvalContext:
    """Evaluation environment for expressions.

    Attributes:
        signals: current signal values by name.
        parameters: constant parameter values by name.
        functions: user-defined function ASTs by name.
        loop_variables: integer loop variables (for-loop induction variables).
    """

    signals: dict[str, LogicVector] = field(default_factory=dict)
    parameters: dict[str, int] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDeclaration] = field(default_factory=dict)
    loop_variables: dict[str, int] = field(default_factory=dict)
    function_evaluator: Callable[[str, list[LogicVector]], LogicVector] | None = None

    def lookup(self, name: str) -> LogicVector:
        """Resolve an identifier to its current value."""
        if name in self.signals:
            return self.signals[name]
        if name in self.loop_variables:
            return LogicVector.from_int(self.loop_variables[name], 32)
        if name in self.parameters:
            return LogicVector.from_int(self.parameters[name], 32)
        raise SimulationError(f"reference to unknown signal {name!r}")


class ExpressionEvaluator:
    """Evaluate AST expressions to four-state values."""

    def __init__(self, context: EvalContext):
        self.context = context

    # ------------------------------------------------------------------ public API
    def evaluate(self, expression: ast.Expression) -> LogicVector:
        """Evaluate ``expression`` and return its value."""
        if isinstance(expression, ast.Number):
            width = expression.width if expression.width is not None else 32
            return LogicVector(width=width, value=expression.value, xz_mask=expression.xz_mask)
        if isinstance(expression, ast.Identifier):
            return self.context.lookup(expression.name)
        if isinstance(expression, ast.StringLiteral):
            # Strings only appear as $display arguments in the supported subset.
            return LogicVector.from_int(0, 1)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression)
        if isinstance(expression, ast.Ternary):
            return self._evaluate_ternary(expression)
        if isinstance(expression, ast.Concat):
            return concat_all([self.evaluate(part) for part in expression.parts])
        if isinstance(expression, ast.Replication):
            count_value = self.evaluate(expression.count)
            count = count_value.to_int_or(0)
            if count <= 0:
                raise SimulationError("replication count must be positive")
            base = self.evaluate(expression.value)
            return concat_all([base] * count)
        if isinstance(expression, ast.BitSelect):
            target = self.evaluate(expression.target)
            index_value = self.evaluate(expression.index)
            if index_value.has_unknown:
                return LogicVector.unknown(1)
            return target.slice(index_value.to_int(), index_value.to_int())
        if isinstance(expression, ast.PartSelect):
            return self._evaluate_part_select(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_call(expression)
        raise SimulationError(f"cannot evaluate expression of type {type(expression).__name__}")

    def evaluate_constant(self, expression: ast.Expression) -> int:
        """Evaluate a constant expression (parameters, ranges) to a Python int."""
        value = self.evaluate(expression)
        if value.has_unknown:
            raise SimulationError("constant expression evaluated to x/z")
        return value.to_int()

    # ------------------------------------------------------------------ operators
    def _evaluate_unary(self, expression: ast.UnaryOp) -> LogicVector:
        operand = self.evaluate(expression.operand)
        op = expression.op
        if op == "+":
            return operand
        if op == "-":
            if operand.has_unknown:
                return LogicVector.unknown(operand.width)
            return LogicVector.from_int(-operand.to_int(), operand.width)
        if op == "!":
            truth = operand.is_true()
            if truth is None:
                return LogicVector.unknown(1)
            return LogicVector.from_int(0 if truth else 1, 1)
        if op == "~":
            return LogicVector(
                width=operand.width,
                value=(~operand.value) & ((1 << operand.width) - 1) | operand.xz_mask & operand.value,
                xz_mask=operand.xz_mask,
            )
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            return self._evaluate_reduction(op, operand)
        raise SimulationError(f"unsupported unary operator {op!r}")

    def _evaluate_reduction(self, op: str, operand: LogicVector) -> LogicVector:
        bits = [operand.bit(i) for i in range(operand.width)]
        if op in ("&", "~&"):
            if "0" in bits:
                result: str = "0"
            elif all(bit == "1" for bit in bits):
                result = "1"
            else:
                result = "x"
            if op == "~&" and result in "01":
                result = "1" if result == "0" else "0"
        elif op in ("|", "~|"):
            if "1" in bits:
                result = "1"
            elif all(bit == "0" for bit in bits):
                result = "0"
            else:
                result = "x"
            if op == "~|" and result in "01":
                result = "1" if result == "0" else "0"
        else:  # xor family
            if any(bit in "xz" for bit in bits):
                result = "x"
            else:
                parity = sum(1 for bit in bits if bit == "1") % 2
                result = "1" if parity else "0"
            if op in ("~^", "^~") and result in "01":
                result = "1" if result == "0" else "0"
        return LogicVector.from_string(result)

    def _evaluate_binary(self, expression: ast.BinaryOp) -> LogicVector:
        op = expression.op
        left = self.evaluate(expression.left)
        right = self.evaluate(expression.right)
        width = max(left.width, right.width)

        if op in ("&&", "||"):
            return self._evaluate_logical(op, left, right)
        if op in ("===", "!=="):
            same = (
                left.resized(width).value == right.resized(width).value
                and left.resized(width).xz_mask == right.resized(width).xz_mask
            )
            result = same if op == "===" else not same
            return LogicVector.from_int(1 if result else 0, 1)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if left.has_unknown or right.has_unknown:
                return LogicVector.unknown(1)
            lhs, rhs = left.to_int(), right.to_int()
            outcome = {
                "==": lhs == rhs,
                "!=": lhs != rhs,
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
            }[op]
            return LogicVector.from_int(1 if outcome else 0, 1)
        if op in ("&", "|", "^", "~^", "^~"):
            return self._evaluate_bitwise(op, left.resized(width), right.resized(width))
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._evaluate_shift(op, left, right)
        if op in ("+", "-", "*", "/", "%", "**"):
            return self._evaluate_arithmetic(op, left, right, width)
        raise SimulationError(f"unsupported binary operator {op!r}")

    def _evaluate_logical(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        lhs, rhs = left.is_true(), right.is_true()
        if op == "&&":
            if lhs is False or rhs is False:
                return LogicVector.from_int(0, 1)
            if lhs is True and rhs is True:
                return LogicVector.from_int(1, 1)
            return LogicVector.unknown(1)
        if lhs is True or rhs is True:
            return LogicVector.from_int(1, 1)
        if lhs is False and rhs is False:
            return LogicVector.from_int(0, 1)
        return LogicVector.unknown(1)

    def _evaluate_bitwise(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        width = left.width
        value = 0
        xz_mask = 0
        for index in range(width):
            a = left.bit(index)
            b = right.bit(index)
            bit = _bitwise_table(op, a, b)
            if bit == "1":
                value |= 1 << index
            elif bit in "xz":
                xz_mask |= 1 << index
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def _evaluate_shift(self, op: str, left: LogicVector, right: LogicVector) -> LogicVector:
        if right.has_unknown:
            return LogicVector.unknown(left.width)
        # Shifting by the operand width already clears (or sign-fills) every
        # bit, so clamping is bit-identical and keeps huge amounts from
        # materialising astronomically wide intermediate integers.
        amount = min(right.to_int(), left.width)
        if left.has_unknown:
            # Shift x bits along with the value plane.
            value = left.value
            xz = left.xz_mask
            if op in ("<<", "<<<"):
                return LogicVector(width=left.width, value=value << amount, xz_mask=xz << amount)
            return LogicVector(width=left.width, value=value >> amount, xz_mask=xz >> amount)
        value = left.to_int()
        if op in ("<<", "<<<"):
            return LogicVector.from_int(value << amount, left.width)
        if op == ">>":
            return LogicVector.from_int(value >> amount, left.width)
        # Arithmetic right shift preserves the sign bit.
        signed = left.to_signed_int()
        return LogicVector.from_int(signed >> amount, left.width)

    def _evaluate_arithmetic(
        self, op: str, left: LogicVector, right: LogicVector, width: int
    ) -> LogicVector:
        if left.has_unknown or right.has_unknown:
            return LogicVector.unknown(width if op not in ("**",) else max(width, 32))
        lhs, rhs = left.to_int(), right.to_int()
        # Addition/subtraction/multiplication keep enough headroom that carries are
        # preserved; assignment truncates to the target width (so idioms such as
        # ``assign {cout, sum} = a + b;`` observe the carry bit).
        if op == "+":
            return LogicVector.from_int(lhs + rhs, width + 1)
        if op == "-":
            return LogicVector.from_int(lhs - rhs, width + 1)
        if op == "*":
            return LogicVector.from_int(lhs * rhs, max(2 * width, 1))
        if op == "/":
            if rhs == 0:
                return LogicVector.unknown(width)
            return LogicVector.from_int(lhs // rhs, width)
        if op == "%":
            if rhs == 0:
                return LogicVector.unknown(width)
            return LogicVector.from_int(lhs % rhs, width)
        if op == "**":
            return LogicVector.from_int(lhs**rhs, max(width, 32))
        raise SimulationError(f"unsupported arithmetic operator {op!r}")

    def _evaluate_ternary(self, expression: ast.Ternary) -> LogicVector:
        condition = self.evaluate(expression.condition).is_true()
        if condition is True:
            return self.evaluate(expression.if_true)
        if condition is False:
            return self.evaluate(expression.if_false)
        true_value = self.evaluate(expression.if_true)
        false_value = self.evaluate(expression.if_false)
        width = max(true_value.width, false_value.width)
        true_value = true_value.resized(width)
        false_value = false_value.resized(width)
        value = 0
        xz_mask = 0
        for index in range(width):
            a, b = true_value.bit(index), false_value.bit(index)
            if a == b and a in "01":
                if a == "1":
                    value |= 1 << index
            else:
                xz_mask |= 1 << index
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def _evaluate_part_select(self, expression: ast.PartSelect) -> LogicVector:
        target = self.evaluate(expression.target)
        if expression.mode == ":":
            msb = self.evaluate(expression.msb)
            lsb = self.evaluate(expression.lsb)
            if msb.has_unknown or lsb.has_unknown:
                return LogicVector.unknown(1)
            return target.slice(msb.to_int(), lsb.to_int())
        base = self.evaluate(expression.msb)
        width_value = self.evaluate(expression.lsb)
        if base.has_unknown or width_value.has_unknown:
            return LogicVector.unknown(1)
        width = width_value.to_int()
        start = base.to_int()
        if expression.mode == "+:":
            return target.slice(start + width - 1, start)
        return target.slice(start, start - width + 1)

    def _evaluate_call(self, expression: ast.FunctionCall) -> LogicVector:
        name = expression.name
        args = [self.evaluate(argument) for argument in expression.args]
        if name in ("$signed", "$unsigned"):
            return args[0] if args else LogicVector.unknown(1)
        if name == "$clog2":
            if not args or args[0].has_unknown:
                return LogicVector.unknown(32)
            value = args[0].to_int()
            return LogicVector.from_int(max(0, (value - 1).bit_length()), 32)
        if name.startswith("$"):
            # Unknown system functions return x rather than failing the whole run.
            return LogicVector.unknown(32)
        if self.context.function_evaluator is not None:
            return self.context.function_evaluator(name, args)
        raise SimulationError(f"call to unknown function {name!r}")


_BITWISE_AND = {
    ("0", "0"): "0",
    ("0", "1"): "0",
    ("1", "0"): "0",
    ("1", "1"): "1",
}


def _bitwise_table(op: str, a: str, b: str) -> str:
    """Four-state truth tables for the bitwise operators."""
    a = "x" if a == "z" else a
    b = "x" if b == "z" else b
    if op == "&":
        if a == "0" or b == "0":
            return "0"
        if a == "1" and b == "1":
            return "1"
        return "x"
    if op == "|":
        if a == "1" or b == "1":
            return "1"
        if a == "0" and b == "0":
            return "0"
        return "x"
    if op == "^":
        if a in "01" and b in "01":
            return "1" if a != b else "0"
        return "x"
    # xnor
    if a in "01" and b in "01":
        return "1" if a == b else "0"
    return "x"


# --------------------------------------------------------------------------- batch evaluation
@dataclass
class BatchEvalContext:
    """Evaluation environment for the column-packed batch evaluator.

    Attributes:
        signals: current batch signal values by name (shared, live mapping).
        parameters: constant parameter values by name.
        functions: user-defined function ASTs by name.
        lanes: number of stimulus lanes in the batch.
        loop_variables: integer loop variables (uniform across lanes).
        lane_evaluator: factory returning a *scalar* evaluator for one lane,
            used by the per-lane fallback path (supplied by the batch executor
            so user-function calls resolve with full statement semantics).
    """

    signals: dict[str, BatchVector] = field(default_factory=dict)
    parameters: dict[str, int] = field(default_factory=dict)
    functions: dict[str, "ast.FunctionDeclaration"] = field(default_factory=dict)
    lanes: int = 1
    loop_variables: dict[str, int] = field(default_factory=dict)
    lane_evaluator: Callable[[int], ExpressionEvaluator] | None = None

    def lookup(self, name: str) -> BatchVector:
        """Resolve an identifier to its current batch value."""
        if name in self.signals:
            return self.signals[name]
        if name in self.loop_variables:
            return BatchVector.broadcast(LogicVector.from_int(self.loop_variables[name], 32), self.lanes)
        if name in self.parameters:
            return BatchVector.broadcast(LogicVector.from_int(self.parameters[name], 32), self.lanes)
        raise SimulationError(f"reference to unknown signal {name!r}")

    def scalar_evaluator(self, lane: int) -> ExpressionEvaluator:
        """A scalar evaluator seeing lane ``lane`` of every signal."""
        if self.lane_evaluator is not None:
            return self.lane_evaluator(lane)
        signals = {name: value.lane(lane) for name, value in self.signals.items()}
        return ExpressionEvaluator(
            EvalContext(
                signals=signals,
                parameters=self.parameters,
                functions=self.functions,
                loop_variables=dict(self.loop_variables),
            )
        )


class BatchExpressionEvaluator:
    """Evaluate AST expressions over all stimulus lanes at once.

    Mirrors :class:`ExpressionEvaluator` operator by operator; each four-state
    rule is re-expressed as word-wide boolean algebra over lane columns.  Lanes
    whose operands contain ``x``/``z`` follow the scalar evaluator's pessimistic
    rules exactly (whole-vector unknown checks stay whole-vector, per lane).
    """

    #: Widest data-dependent shift-amount operand still lowered to a column mux;
    #: anything wider falls back to per-lane scalar evaluation.
    MAX_MUX_SHIFT_WIDTH = 8

    def __init__(self, context: BatchEvalContext):
        self.context = context

    # ------------------------------------------------------------------ public API
    def evaluate(self, expression: ast.Expression) -> BatchVector:
        """Evaluate ``expression`` for every lane and return the packed result."""
        lanes = self.context.lanes
        if isinstance(expression, ast.Number):
            width = expression.width if expression.width is not None else 32
            return BatchVector.broadcast(
                LogicVector(width=width, value=expression.value, xz_mask=expression.xz_mask), lanes
            )
        if isinstance(expression, ast.Identifier):
            return self.context.lookup(expression.name)
        if isinstance(expression, ast.StringLiteral):
            return BatchVector.broadcast(LogicVector.from_int(0, 1), lanes)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression)
        if isinstance(expression, ast.Ternary):
            return self._evaluate_ternary(expression)
        if isinstance(expression, ast.Concat):
            return batch_concat_all([self.evaluate(part) for part in expression.parts])
        if isinstance(expression, ast.Replication):
            return self._evaluate_replication(expression)
        if isinstance(expression, ast.BitSelect):
            return self._evaluate_bit_select(expression)
        if isinstance(expression, ast.PartSelect):
            return self._evaluate_part_select(expression)
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_call(expression)
        raise SimulationError(f"cannot evaluate expression of type {type(expression).__name__}")

    def evaluate_uniform_constant(self, expression: ast.Expression) -> int:
        """Evaluate an expression expected to be lane-uniform and defined."""
        value = self.evaluate(expression)
        uniform = value.uniform_value()
        if uniform is None or uniform.has_unknown:
            raise SimulationError("expected a lane-uniform constant expression")
        return uniform.to_int()

    # ------------------------------------------------------------------ fallback
    def _fallback(self, expression: ast.Expression) -> BatchVector:
        """Evaluate lane by lane with the scalar evaluator and repack.

        Lanes whose scalar results differ in width are zero-extended to the
        widest lane (the only constructs that can diverge are ternaries with
        lane-split conditions over different branch widths and part selects
        with unknown bounds — both outside the realistic RTL subset).
        """
        results = [
            self.context.scalar_evaluator(lane).evaluate(expression)
            for lane in range(self.context.lanes)
        ]
        width = max(result.width for result in results)
        return BatchVector.from_vectors([result.resized(width) for result in results], width)

    # ------------------------------------------------------------------ truth masks
    def _truth_masks(self, value: BatchVector) -> tuple[int, int, int]:
        """Per-lane ``is_true`` as ``(true, false, unknown)`` lane masks."""
        full = value.lane_mask
        true_mask = 0
        anyxz = 0
        for bit in range(value.width):
            true_mask |= value.value_cols[bit] & ~value.xz_cols[bit]
            anyxz |= value.xz_cols[bit]
        true_mask &= full
        unknown_mask = anyxz & ~true_mask & full
        false_mask = full & ~true_mask & ~unknown_mask
        return true_mask, false_mask, unknown_mask

    def _flag(self, one_mask: int, x_mask: int) -> BatchVector:
        """Build a 1-bit batch from per-lane one/unknown masks."""
        full = (1 << self.context.lanes) - 1
        return BatchVector(
            width=1,
            lanes=self.context.lanes,
            value_cols=(one_mask & ~x_mask & full,),
            xz_cols=(x_mask & full,),
        )

    # ------------------------------------------------------------------ operators
    def _evaluate_unary(self, expression: ast.UnaryOp) -> BatchVector:
        operand = self.evaluate(expression.operand)
        op = expression.op
        full = operand.lane_mask
        if op == "+":
            return operand
        if op == "-":
            return self._negate(operand)
        if op == "!":
            true_mask, false_mask, unknown_mask = self._truth_masks(operand)
            return self._flag(false_mask, unknown_mask)
        if op == "~":
            # Mirrors the scalar rule bit for bit (x/z bits keep their payload).
            value_cols = tuple(
                ((~operand.value_cols[bit]) & full & ~operand.xz_cols[bit])
                | (operand.xz_cols[bit] & operand.value_cols[bit])
                for bit in range(operand.width)
            )
            return BatchVector(
                width=operand.width, lanes=operand.lanes, value_cols=value_cols, xz_cols=operand.xz_cols
            )
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            return self._evaluate_reduction(op, operand)
        raise SimulationError(f"unsupported unary operator {op!r}")

    def _negate(self, operand: BatchVector) -> BatchVector:
        """Two's-complement negation at the operand width; x/z lanes go all-x."""
        full = operand.lane_mask
        unknown = operand.unknown_lanes() & full
        carry = full
        value_cols = []
        for bit in range(operand.width):
            inverted = ~operand.value_cols[bit] & full
            value_cols.append((inverted ^ carry) & ~unknown)
            carry &= inverted
        xz_cols = tuple(unknown for _ in range(operand.width))
        return BatchVector(width=operand.width, lanes=operand.lanes, value_cols=tuple(value_cols), xz_cols=xz_cols)

    def _evaluate_reduction(self, op: str, operand: BatchVector) -> BatchVector:
        full = operand.lane_mask
        defined_one = [operand.value_cols[bit] & ~operand.xz_cols[bit] for bit in range(operand.width)]
        defined_zero = [
            ~operand.value_cols[bit] & ~operand.xz_cols[bit] & full for bit in range(operand.width)
        ]
        if op in ("&", "~&"):
            any_zero = 0
            all_ones = full
            for bit in range(operand.width):
                any_zero |= defined_zero[bit]
                all_ones &= defined_one[bit]
            unknown = full & ~(any_zero | all_ones)
            one_mask = any_zero if op == "~&" else all_ones
            return self._flag(one_mask, unknown)
        if op in ("|", "~|"):
            any_one = 0
            all_zeros = full
            for bit in range(operand.width):
                any_one |= defined_one[bit]
                all_zeros &= defined_zero[bit]
            unknown = full & ~(any_one | all_zeros)
            one_mask = all_zeros if op == "~|" else any_one
            return self._flag(one_mask, unknown)
        # xor family
        anyxz = operand.unknown_lanes() & full
        parity = 0
        for bit in range(operand.width):
            parity ^= defined_one[bit]
        if op in ("~^", "^~"):
            parity = ~parity & full
        return self._flag(parity & ~anyxz, anyxz)

    def _evaluate_binary(self, expression: ast.BinaryOp) -> BatchVector:
        op = expression.op
        if op in ("*", "/", "%", "**"):
            return self._fallback(expression)
        left = self.evaluate(expression.left)
        right = self.evaluate(expression.right)
        width = max(left.width, right.width)
        full = left.lane_mask

        if op in ("&&", "||"):
            return self._evaluate_logical(op, left, right)
        if op in ("===", "!=="):
            l = left.resized(width)
            r = right.resized(width)
            same = full
            for bit in range(width):
                same &= ~(l.value_cols[bit] ^ r.value_cols[bit]) & ~(l.xz_cols[bit] ^ r.xz_cols[bit])
            same &= full
            return self._flag(same if op == "===" else full & ~same, 0)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._evaluate_relational(op, left, right)
        if op in ("&", "|", "^", "~^", "^~"):
            return self._evaluate_bitwise(op, left.resized(width), right.resized(width))
        if op in ("<<", ">>", "<<<", ">>>"):
            return self._evaluate_shift(op, expression, left, right)
        if op in ("+", "-"):
            return self._evaluate_addsub(op, left, right, width)
        raise SimulationError(f"unsupported binary operator {op!r}")

    def _evaluate_logical(self, op: str, left: BatchVector, right: BatchVector) -> BatchVector:
        lt, lf, lx = self._truth_masks(left)
        rt, rf, rx = self._truth_masks(right)
        full = left.lane_mask
        if op == "&&":
            zero = lf | rf
            one = lt & rt
            return self._flag(one & ~zero, full & ~(zero | one))
        one = lt | rt
        zero = lf & rf
        return self._flag(one, full & ~(one | zero))

    def _evaluate_relational(self, op: str, left: BatchVector, right: BatchVector) -> BatchVector:
        full = left.lane_mask
        unknown = (left.unknown_lanes() | right.unknown_lanes()) & full
        width = max(left.width, right.width)
        l = left.resized(width)
        r = right.resized(width)
        eq = full
        lt = 0
        for bit in range(width - 1, -1, -1):
            a = l.value_cols[bit]
            b = r.value_cols[bit]
            lt |= eq & ~a & b
            eq &= ~(a ^ b)
        eq &= full
        lt &= full
        outcome = {
            "==": eq,
            "!=": full & ~eq,
            "<": lt,
            "<=": lt | eq,
            ">": full & ~(lt | eq),
            ">=": full & ~lt,
        }[op]
        return self._flag(outcome & ~unknown, unknown)

    def _evaluate_bitwise(self, op: str, left: BatchVector, right: BatchVector) -> BatchVector:
        full = left.lane_mask
        value_cols = []
        xz_cols = []
        for bit in range(left.width):
            v1, x1 = left.value_cols[bit], left.xz_cols[bit]
            v2, x2 = right.value_cols[bit], right.xz_cols[bit]
            if op == "&":
                zero = (~v1 & ~x1) | (~v2 & ~x2)
                one = (v1 & ~x1) & (v2 & ~x2)
            elif op == "|":
                one = (v1 & ~x1) | (v2 & ~x2)
                zero = (~v1 & ~x1) & (~v2 & ~x2)
            else:
                anyx = x1 | x2
                parity = (v1 ^ v2) if op == "^" else ~(v1 ^ v2)
                value_cols.append(parity & ~anyx & full)
                xz_cols.append(anyx & full)
                continue
            value_cols.append(one & full)
            xz_cols.append(full & ~(zero | one))
        return BatchVector(width=left.width, lanes=left.lanes, value_cols=tuple(value_cols), xz_cols=tuple(xz_cols))

    def _evaluate_addsub(self, op: str, left: BatchVector, right: BatchVector, width: int) -> BatchVector:
        full = left.lane_mask
        unknown = (left.unknown_lanes() | right.unknown_lanes()) & full
        result_width = width + 1
        l = left.resized(result_width)
        r = right.resized(result_width)
        carry = 0 if op == "+" else full
        value_cols = []
        for bit in range(result_width):
            a = l.value_cols[bit]
            b = r.value_cols[bit] if op == "+" else (~r.value_cols[bit] & full)
            total = a ^ b ^ carry
            carry = (a & b) | (carry & (a ^ b))
            value_cols.append(total & ~unknown)
        # The scalar rule returns unknown(width) — *without* the carry column —
        # for x/z operands; zero-extension then makes the carry bit defined 0.
        xz_cols = tuple(unknown if bit < width else 0 for bit in range(result_width))
        return BatchVector(width=result_width, lanes=left.lanes, value_cols=tuple(value_cols), xz_cols=xz_cols)

    def _evaluate_shift(
        self, op: str, expression: ast.BinaryOp, left: BatchVector, right: BatchVector
    ) -> BatchVector:
        full = left.lane_mask
        uniform_amount = right.uniform_value()
        if uniform_amount is not None and not uniform_amount.has_unknown:
            return self._shift_by_constant(op, left, uniform_amount.to_int())
        if right.unknown_lanes() == full:
            return BatchVector.unknown(left.width, left.lanes)
        if right.width > self.MAX_MUX_SHIFT_WIDTH:
            return self._fallback(expression)
        # Column mux over the possible amounts: every distinct defined amount
        # contributes its shifted image on the lanes that selected it; lanes with
        # an x/z amount go all-x (the scalar rule).
        unknown = right.unknown_lanes() & full
        result = BatchVector.unknown(left.width, left.lanes)
        remaining = full & ~unknown
        for amount in range(1 << right.width):
            if not remaining:
                break
            amount_value = BatchVector.broadcast(LogicVector.from_int(amount, right.width), left.lanes)
            eq_mask = self._truth_masks(self._evaluate_relational("==", right, amount_value))[0] & remaining
            if not eq_mask:
                continue
            shifted = self._shift_by_constant(op, left, amount)
            result = shifted.select_lanes(eq_mask, result)
            remaining &= ~eq_mask
        return result

    def _shift_by_constant(self, op: str, left: BatchVector, amount: int) -> BatchVector:
        """Shift every lane by the same amount via column moves."""
        width = left.width
        full = left.lane_mask
        if op in ("<<", "<<<"):
            value_cols = tuple(
                left.value_cols[bit - amount] if bit >= amount else 0 for bit in range(width)
            )
            xz_cols = tuple(left.xz_cols[bit - amount] if bit >= amount else 0 for bit in range(width))
            return BatchVector(width=width, lanes=left.lanes, value_cols=value_cols, xz_cols=xz_cols)
        plane_value = tuple(
            left.value_cols[bit + amount] if bit + amount < width else 0 for bit in range(width)
        )
        plane_xz = tuple(left.xz_cols[bit + amount] if bit + amount < width else 0 for bit in range(width))
        if op == ">>":
            return BatchVector(width=width, lanes=left.lanes, value_cols=plane_value, xz_cols=plane_xz)
        # ">>>": defined lanes sign-fill from the MSB; x/z lanes keep the plane
        # shift exactly as the scalar evaluator does.
        unknown = left.unknown_lanes() & full
        sign = left.value_cols[width - 1] & ~unknown
        value_cols = []
        xz_cols = []
        for bit in range(width):
            if bit + amount < width:
                filled = (left.value_cols[bit + amount] & ~unknown) | (plane_value[bit] & unknown)
                xz = (left.xz_cols[bit + amount] & ~unknown) | (plane_xz[bit] & unknown)
            else:
                filled = sign | (plane_value[bit] & unknown)
                xz = plane_xz[bit] & unknown
            value_cols.append(filled)
            xz_cols.append(xz)
        return BatchVector(width=width, lanes=left.lanes, value_cols=tuple(value_cols), xz_cols=tuple(xz_cols))

    def _evaluate_ternary(self, expression: ast.Ternary) -> BatchVector:
        condition = self.evaluate(expression.condition)
        true_mask, false_mask, unknown_mask = self._truth_masks(condition)
        full = condition.lane_mask
        if true_mask == full:
            return self.evaluate(expression.if_true)
        if false_mask == full:
            return self.evaluate(expression.if_false)
        true_value = self.evaluate(expression.if_true)
        false_value = self.evaluate(expression.if_false)
        width = max(true_value.width, false_value.width)
        t = true_value.resized(width)
        f = false_value.resized(width)
        value_cols = []
        xz_cols = []
        for bit in range(width):
            tv, tx = t.value_cols[bit], t.xz_cols[bit]
            fv, fx = f.value_cols[bit], f.xz_cols[bit]
            # Merge rule on unknown-condition lanes: equal defined bits survive.
            same_defined = ~(tv ^ fv) & ~tx & ~fx & full
            merged_value = tv & same_defined
            merged_xz = full & ~same_defined
            value_cols.append((tv & true_mask) | (fv & false_mask) | (merged_value & unknown_mask))
            xz_cols.append((tx & true_mask) | (fx & false_mask) | (merged_xz & unknown_mask))
        return BatchVector(width=width, lanes=condition.lanes, value_cols=tuple(value_cols), xz_cols=tuple(xz_cols))

    def _evaluate_replication(self, expression: ast.Replication) -> BatchVector:
        count_value = self.evaluate(expression.count)
        uniform = count_value.uniform_value()
        if uniform is None:
            return self._fallback(expression)
        count = uniform.to_int_or(0)
        if count <= 0:
            raise SimulationError("replication count must be positive")
        base = self.evaluate(expression.value)
        return batch_concat_all([base] * count)

    def _evaluate_bit_select(self, expression: ast.BitSelect) -> BatchVector:
        target = self.evaluate(expression.target)
        index = self.evaluate(expression.index)
        full = target.lane_mask
        uniform = index.uniform_value()
        if uniform is not None:
            if uniform.has_unknown:
                return BatchVector.unknown(1, target.lanes)
            position = uniform.to_int()
            return target.slice(position, position)
        # Column mux over in-range indices; unknown-index lanes and lanes whose
        # index falls outside the target read as x (the scalar slice rule).
        # Positions beyond what the index operand can encode are unreachable —
        # bounding the loop also keeps from_int(position) from wrapping and
        # aliasing high target bits onto low index values.
        unknown = index.unknown_lanes() & full
        value_col = 0
        matched = 0
        xz_col = 0
        for position in range(min(target.width, 1 << index.width)):
            position_value = BatchVector.broadcast(LogicVector.from_int(position, index.width), target.lanes)
            eq_mask = self._truth_masks(self._evaluate_relational("==", index, position_value))[0]
            eq_mask &= ~unknown
            if not eq_mask:
                continue
            matched |= eq_mask
            value_col |= target.value_cols[position] & eq_mask
            xz_col |= target.xz_cols[position] & eq_mask
        out_of_range = full & ~matched & ~unknown
        return BatchVector(
            width=1,
            lanes=target.lanes,
            value_cols=(value_col & ~unknown & ~out_of_range,),
            xz_cols=((xz_col | unknown | out_of_range) & full,),
        )

    def _evaluate_part_select(self, expression: ast.PartSelect) -> BatchVector:
        msb_value = self.evaluate(expression.msb)
        lsb_value = self.evaluate(expression.lsb)
        msb_uniform = msb_value.uniform_value()
        lsb_uniform = lsb_value.uniform_value()
        if (
            msb_uniform is None
            or lsb_uniform is None
            or msb_uniform.has_unknown
            or lsb_uniform.has_unknown
        ):
            return self._fallback(expression)
        target = self.evaluate(expression.target)
        if expression.mode == ":":
            return target.slice(msb_uniform.to_int(), lsb_uniform.to_int())
        base = msb_uniform.to_int()
        width = lsb_uniform.to_int()
        if expression.mode == "+:":
            return target.slice(base + width - 1, base)
        return target.slice(base, base - width + 1)

    def _evaluate_call(self, expression: ast.FunctionCall) -> BatchVector:
        name = expression.name
        lanes = self.context.lanes
        if name in ("$signed", "$unsigned"):
            args = [self.evaluate(argument) for argument in expression.args]
            return args[0] if args else BatchVector.unknown(1, lanes)
        if name == "$clog2":
            if not expression.args:
                return BatchVector.unknown(32, lanes)
            argument = self.evaluate(expression.args[0])
            uniform = argument.uniform_value()
            if uniform is None:
                return self._fallback(expression)
            if uniform.has_unknown:
                return BatchVector.unknown(32, lanes)
            value = uniform.to_int()
            return BatchVector.broadcast(LogicVector.from_int(max(0, (value - 1).bit_length()), 32), lanes)
        if name.startswith("$"):
            return BatchVector.unknown(32, lanes)
        # User-defined functions execute full statement bodies: lane fallback.
        return self._fallback(expression)
