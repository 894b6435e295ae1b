"""Process model and statement execution for the Verilog simulator.

The simulator models a module as a set of *processes*:

* combinational processes — continuous assignments and ``always @(*)`` /
  level-sensitive ``always`` blocks, re-evaluated until the design settles;
* sequential processes — ``always`` blocks with edge-triggered sensitivity
  (``posedge``/``negedge``), executed when one of their edges fires, with
  non-blocking assignments committed after all triggered processes ran;
* initial processes — ``initial`` blocks executed once at time zero.

:class:`StatementExecutor` interprets procedural statements against a signal
store, queueing non-blocking assignments for later commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .. import ast_nodes as ast
from ..errors import SimulationError
from .eval import (
    BatchEvalContext,
    BatchExpressionEvaluator,
    EvalContext,
    ExpressionEvaluator,
)
from .values import BatchVector, LogicVector

#: Upper bound on loop iterations inside a single process activation.  Real RTL in
#: the supported subset never needs more; the cap converts accidental infinite
#: loops in generated code into a simulation error (a functional failure).
MAX_LOOP_ITERATIONS = 4096


class ProcessKind(enum.Enum):
    """Classification of a process for scheduling purposes."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"
    INITIAL = "initial"


@dataclass
class Process:
    """A schedulable process extracted from a module item."""

    kind: ProcessKind
    body: ast.Statement | None
    sensitivity: list[ast.SensitivityItem] = field(default_factory=list)
    label: str = ""

    def edge_signals(self) -> list[tuple[ast.EdgeKind, str]]:
        """Return ``(edge, signal_name)`` pairs for edge-triggered entries."""
        edges: list[tuple[ast.EdgeKind, str]] = []
        for item in self.sensitivity:
            if item.edge in (ast.EdgeKind.POSEDGE, ast.EdgeKind.NEGEDGE) and isinstance(
                item.signal, ast.Identifier
            ):
                edges.append((item.edge, item.signal.name))
        return edges


@dataclass
class SignalStore:
    """Mutable value store for all signals of an elaborated module.

    Every write that changes a value adds the signal's name to ``changed``;
    the scalar scheduler drains that set to decide which combinational
    processes must run again.
    """

    widths: dict[str, int] = field(default_factory=dict)
    values: dict[str, LogicVector] = field(default_factory=dict)
    changed: set[str] = field(default_factory=set)

    def declare(self, name: str, width: int, initial: LogicVector | None = None) -> None:
        """Declare a signal with the given width, defaulting to all-x."""
        self.widths[name] = width
        self.values[name] = initial.resized(width) if initial is not None else LogicVector.unknown(width)

    def get(self, name: str) -> LogicVector:
        if name not in self.values:
            raise SimulationError(f"read of undeclared signal {name!r}")
        return self.values[name]

    def set(self, name: str, value: LogicVector) -> bool:
        """Set a signal value (resized to its width); return ``True`` if it changed."""
        if name not in self.values:
            raise SimulationError(f"write to undeclared signal {name!r}")
        resized = value.resized(self.widths[name])
        changed = resized != self.values[name]
        self.values[name] = resized
        if changed:
            self.changed.add(name)
        return changed


@dataclass(frozen=True)
class ScheduleIndex:
    """Which processes the scalar scheduler must run, computed once per design.

    Built at elaboration and shared by every clone of a design template.
    Combinational processes are numbered in declaration order.
    """

    combinational: tuple[Process, ...]
    #: Per combinational process: every signal it may write.
    writes: tuple[tuple[str, ...], ...]
    #: Per combinational process: whether it runs on every sweep.  A user
    #: function body may read any signal and a system task logs each run,
    #: so neither can be skipped.
    volatile: tuple[bool, ...]
    #: Signal name -> the combinational processes that read or write it.
    watchers: dict[str, tuple[int, ...]]
    sequential: tuple[Process, ...]
    #: ``(edge, signal)`` -> the sequential processes it triggers, as indices
    #: into ``sequential`` in declaration order.
    triggers: dict[tuple[ast.EdgeKind, str], tuple[int, ...]]

    @classmethod
    def build(cls, processes: list[Process]) -> "ScheduleIndex":
        combinational = tuple(p for p in processes if p.kind is ProcessKind.COMBINATIONAL)
        sequential = tuple(p for p in processes if p.kind is ProcessKind.SEQUENTIAL)
        writes: list[tuple[str, ...]] = []
        volatile: list[bool] = []
        watchers: dict[str, list[int]] = {}
        for index, process in enumerate(combinational):
            maybe, _ = _assignment_sets(process.body)
            names, calls = _referenced_names(process.body)
            writes.append(tuple(sorted(maybe)))
            volatile.append(calls)
            for name in names | maybe:
                watchers.setdefault(name, []).append(index)
        triggers: dict[tuple[ast.EdgeKind, str], list[int]] = {}
        for index, process in enumerate(sequential):
            for edge in dict.fromkeys(process.edge_signals()):
                triggers.setdefault(edge, []).append(index)
        return cls(
            combinational=combinational,
            writes=tuple(writes),
            volatile=tuple(volatile),
            watchers={name: tuple(indices) for name, indices in watchers.items()},
            sequential=sequential,
            triggers={edge: tuple(indices) for edge, indices in triggers.items()},
        )


def _referenced_names(statement: ast.Statement | None) -> tuple[set[str], bool]:
    """Every identifier under ``statement``, and whether it calls a user
    function or a system task."""
    names: set[str] = set()
    calls = False
    stack: list[object] = [statement]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, _AST_NODES):
            if isinstance(node, ast.Identifier):
                names.add(node.name)
            elif isinstance(node, ast.SystemTaskCall) or (
                isinstance(node, ast.FunctionCall) and not node.name.startswith("$")
            ):
                calls = True
            # Reading fields by name: ``vars(node)`` would give every node a
            # real ``__dict__`` that lives as long as the AST.
            stack.extend(getattr(node, name) for name in node.__dataclass_fields__)
    return names, calls


_AST_NODES = (ast.Expression, ast.Statement, ast.CaseItem, ast.SensitivityItem)


def _assignment_sets(statement: ast.Statement | None) -> tuple[set[str], set[str]]:
    """``(maybe-assigned, definitely-assigned)`` signal names for a statement.

    Conservative latch analysis: partial writes (bit/part selects) and loop
    bodies never count as *definite*; an ``if`` without ``else`` or a ``case``
    without ``default`` makes nothing definite.
    """
    if statement is None or isinstance(statement, ast.NullStatement):
        return set(), set()
    if isinstance(statement, ast.Block):
        maybe: set[str] = set()
        definite: set[str] = set()
        for inner in statement.statements:
            inner_maybe, inner_definite = _assignment_sets(inner)
            maybe |= inner_maybe
            definite |= inner_definite
        return maybe, definite
    if isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
        target = statement.target
        if isinstance(target, ast.Identifier):
            return {target.name}, {target.name}
        if isinstance(target, ast.Concat):
            maybe = set()
            definite = set()
            for part in target.parts:
                part_maybe, part_definite = _assignment_sets(
                    ast.BlockingAssign(target=part, value=statement.value)
                )
                maybe |= part_maybe
                definite |= part_definite
            return maybe, definite
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            base = target.target
            while isinstance(base, (ast.BitSelect, ast.PartSelect)):
                base = base.target
            name = base.name if isinstance(base, ast.Identifier) else None
            return ({name} if name else set()), set()
        return set(), set()
    if isinstance(statement, ast.IfStatement):
        then_maybe, then_definite = _assignment_sets(statement.then_branch)
        else_maybe, else_definite = _assignment_sets(statement.else_branch)
        definite = then_definite & else_definite if statement.else_branch is not None else set()
        return then_maybe | else_maybe, definite
    if isinstance(statement, ast.CaseStatement):
        maybe = set()
        definite: set[str] | None = None
        has_default = False
        for item in statement.items:
            item_maybe, item_definite = _assignment_sets(item.body)
            maybe |= item_maybe
            definite = item_definite if definite is None else definite & item_definite
            has_default |= item.is_default
        if definite is None or not has_default:
            definite = set()
        return maybe, definite
    if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
        body_maybe, _ = _assignment_sets(statement.body)
        extra: set[str] = set()
        if isinstance(statement, ast.ForLoop):
            init_maybe, _ = _assignment_sets(statement.init)
            step_maybe, _ = _assignment_sets(statement.step)
            extra = init_maybe | step_maybe
        return body_maybe | extra, set()
    if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        return _assignment_sets(statement.body)
    return set(), set()


class StatementExecutor:
    """Interpret procedural statements against a signal store."""

    def __init__(
        self,
        store: SignalStore,
        parameters: dict[str, int],
        functions: dict[str, ast.FunctionDeclaration],
    ):
        self.store = store
        self.parameters = parameters
        self.functions = functions
        self.nonblocking_updates: list[tuple[ast.Expression, LogicVector]] = []
        self.display_log: list[str] = []
        # Expressions read the live store: evaluation never writes it (a
        # function body runs against its own local store), so no copy is needed.
        self.evaluator = ExpressionEvaluator(
            EvalContext(
                signals=store.values,
                parameters=parameters,
                functions=functions,
                function_evaluator=self._call_function,
            )
        )

    # ------------------------------------------------------------------ evaluation plumbing
    def _call_function(self, name: str, args: list[LogicVector]) -> LogicVector:
        function = self.functions.get(name)
        if function is None:
            raise SimulationError(f"call to unknown function {name!r}")
        width = 1
        if function.range is not None:
            evaluator = self.evaluator
            msb = evaluator.evaluate_constant(function.range.msb)
            lsb = evaluator.evaluate_constant(function.range.lsb)
            width = abs(msb - lsb) + 1
        local_store = SignalStore()
        local_store.declare(function.name, width)
        argument_index = 0
        for declaration in function.inputs:
            for input_name in declaration.names:
                input_width = 1
                if declaration.range is not None:
                    evaluator = self.evaluator
                    msb = evaluator.evaluate_constant(declaration.range.msb)
                    lsb = evaluator.evaluate_constant(declaration.range.lsb)
                    input_width = abs(msb - lsb) + 1
                value = args[argument_index] if argument_index < len(args) else LogicVector.unknown(input_width)
                local_store.declare(input_name, input_width, value)
                argument_index += 1
        for declaration in function.locals:
            for local_name in declaration.names:
                local_width = 1
                if declaration.range is not None:
                    evaluator = self.evaluator
                    msb = evaluator.evaluate_constant(declaration.range.msb)
                    lsb = evaluator.evaluate_constant(declaration.range.lsb)
                    local_width = abs(msb - lsb) + 1
                if declaration.net_type is ast.NetType.INTEGER:
                    local_width = 32
                local_store.declare(local_name, local_width)
        nested = StatementExecutor(local_store, self.parameters, self.functions)
        # Bring the outer signals into scope for reads inside the function body.
        for name, value in self.store.values.items():
            if name not in local_store.values:
                local_store.widths[name] = value.width
                local_store.values[name] = value
        nested.execute(function.body, allow_nonblocking=False)
        return local_store.get(function.name)

    # ------------------------------------------------------------------ statement execution
    def execute(self, statement: ast.Statement | None, allow_nonblocking: bool = True) -> None:
        """Execute a single statement (recursively)."""
        if statement is None or isinstance(statement, ast.NullStatement):
            return
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                self.execute(inner, allow_nonblocking)
            return
        if isinstance(statement, ast.BlockingAssign):
            value = self.evaluator.evaluate(statement.value)
            self._assign(statement.target, value)
            return
        if isinstance(statement, ast.NonBlockingAssign):
            value = self.evaluator.evaluate(statement.value)
            if allow_nonblocking:
                self.nonblocking_updates.append((statement.target, value))
            else:
                self._assign(statement.target, value)
            return
        if isinstance(statement, ast.IfStatement):
            condition = self.evaluator.evaluate(statement.condition).is_true()
            if condition is True:
                self.execute(statement.then_branch, allow_nonblocking)
            elif condition is False:
                self.execute(statement.else_branch, allow_nonblocking)
            else:
                # Unknown condition: neither branch executes (conservative, keeps x).
                pass
            return
        if isinstance(statement, ast.CaseStatement):
            self._execute_case(statement, allow_nonblocking)
            return
        if isinstance(statement, ast.ForLoop):
            self._execute_for(statement, allow_nonblocking)
            return
        if isinstance(statement, ast.WhileLoop):
            iterations = 0
            while True:
                condition = self.evaluator.evaluate(statement.condition).is_true()
                if condition is not True:
                    break
                self.execute(statement.body, allow_nonblocking)
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise SimulationError("while loop exceeded the iteration limit")
            return
        if isinstance(statement, ast.RepeatLoop):
            count_value = self.evaluator.evaluate(statement.count)
            count = count_value.to_int_or(0)
            if count > MAX_LOOP_ITERATIONS:
                raise SimulationError("repeat loop exceeded the iteration limit")
            for _ in range(count):
                self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.DelayStatement):
            # Delays are ignored in the zero-delay functional model; the delayed
            # statement itself still executes.
            self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.EventWait):
            # Event controls inside procedural code are not supported by the
            # functional model (they only appear in testbench-style code).
            self.execute(statement.body, allow_nonblocking)
            return
        if isinstance(statement, ast.SystemTaskCall):
            self._execute_system_task(statement)
            return
        raise SimulationError(f"unsupported statement {type(statement).__name__}")

    def commit_nonblocking(self) -> bool:
        """Apply queued non-blocking assignments; return whether anything changed."""
        changed = False
        for target, value in self.nonblocking_updates:
            changed |= self._assign(target, value)
        self.nonblocking_updates.clear()
        return changed

    # ------------------------------------------------------------------ helpers
    def _execute_case(self, statement: ast.CaseStatement, allow_nonblocking: bool) -> None:
        evaluator = self.evaluator
        subject = evaluator.evaluate(statement.subject)
        default_item: ast.CaseItem | None = None
        for item in statement.items:
            if item.is_default:
                default_item = item
                continue
            for expression in item.expressions:
                candidate = evaluator.evaluate(expression)
                if _case_matches(statement.kind, subject, candidate):
                    self.execute(item.body, allow_nonblocking)
                    return
        if default_item is not None:
            self.execute(default_item.body, allow_nonblocking)

    def _execute_for(self, statement: ast.ForLoop, allow_nonblocking: bool) -> None:
        self.execute(statement.init, allow_nonblocking)
        iterations = 0
        while True:
            condition = self.evaluator.evaluate(statement.condition).is_true()
            if condition is not True:
                break
            self.execute(statement.body, allow_nonblocking)
            self.execute(statement.step, allow_nonblocking)
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise SimulationError("for loop exceeded the iteration limit")

    def _execute_system_task(self, statement: ast.SystemTaskCall) -> None:
        if statement.name in ("$display", "$write", "$monitor", "$strobe"):
            rendered: list[str] = []
            evaluator = self.evaluator
            for argument in statement.args:
                if isinstance(argument, ast.StringLiteral):
                    rendered.append(argument.value)
                else:
                    try:
                        rendered.append(str(evaluator.evaluate(argument)))
                    except SimulationError:
                        rendered.append("<error>")
            self.display_log.append(" ".join(rendered))
        # $finish/$stop and unknown tasks are no-ops in the functional model.

    def _assign(self, target: ast.Expression, value: LogicVector) -> bool:
        if isinstance(target, ast.Identifier):
            return self.store.set(target.name, value)
        if isinstance(target, ast.BitSelect):
            name = _target_name(target)
            index_value = self.evaluator.evaluate(target.index)
            if index_value.has_unknown:
                return False
            index = index_value.to_int()
            current = self.store.get(name)
            return self.store.set(name, current.replaced(index, index, value))
        if isinstance(target, ast.PartSelect):
            name = _target_name(target)
            evaluator = self.evaluator
            current = self.store.get(name)
            if target.mode == ":":
                msb = evaluator.evaluate_constant(target.msb)
                lsb = evaluator.evaluate_constant(target.lsb)
            else:
                base = evaluator.evaluate_constant(target.msb)
                width = evaluator.evaluate_constant(target.lsb)
                if target.mode == "+:":
                    msb, lsb = base + width - 1, base
                else:
                    msb, lsb = base, base - width + 1
            return self.store.set(name, current.replaced(msb, lsb, value))
        if isinstance(target, ast.Concat):
            # Assign MSB-first across the concatenation parts.
            changed = False
            widths = []
            for part in target.parts:
                widths.append(self._target_width(part))
            total = sum(widths)
            value = value.resized(total)
            offset = total
            for part, width in zip(target.parts, widths):
                offset -= width
                changed |= self._assign(part, value.slice(offset + width - 1, offset))
            return changed
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")

    def _target_width(self, target: ast.Expression) -> int:
        if isinstance(target, ast.Identifier):
            return self.store.widths.get(target.name, 1)
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            evaluator = self.evaluator
            if target.mode == ":":
                msb = evaluator.evaluate_constant(target.msb)
                lsb = evaluator.evaluate_constant(target.lsb)
                return abs(msb - lsb) + 1
            return evaluator.evaluate_constant(target.lsb)
        if isinstance(target, ast.Concat):
            return sum(self._target_width(part) for part in target.parts)
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")


def _case_matches(kind: str, subject: LogicVector, candidate: LogicVector) -> bool:
    """Whether a case item matches its subject, all bits at once.

    Zero-extending the narrower operand adds bits that are 0 on both planes,
    so the raw planes compare directly.  ``casez`` skips bits that are z on
    either side and ``casex`` bits that are x or z, the same skip masks as
    :meth:`BatchStatementExecutor._case_match_mask`.
    """
    differ = (subject.value ^ candidate.value) | (subject.xz_mask ^ candidate.xz_mask)
    if differ and kind == "casez":
        differ &= ~((subject.xz_mask & subject.value) | (candidate.xz_mask & candidate.value))
    elif differ and kind == "casex":
        differ &= ~(subject.xz_mask | candidate.xz_mask)
    return not differ


def _target_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.Identifier):
        return expression.name
    if isinstance(expression, (ast.BitSelect, ast.PartSelect)):
        return _target_name(expression.target)
    raise SimulationError("assignment target must be a simple signal reference")


# --------------------------------------------------------------------------- batch execution
@dataclass
class BatchSignalStore:
    """Column-packed value store: every signal holds one value per stimulus lane."""

    lanes: int
    widths: dict[str, int] = field(default_factory=dict)
    values: dict[str, BatchVector] = field(default_factory=dict)

    @classmethod
    def from_scalar(cls, store: SignalStore, lanes: int) -> "BatchSignalStore":
        """Broadcast an elaborated scalar store across ``lanes`` stimuli."""
        batch = cls(lanes=lanes)
        for name, width in store.widths.items():
            batch.widths[name] = width
            batch.values[name] = BatchVector.broadcast(store.values[name], lanes)
        return batch

    def get(self, name: str) -> BatchVector:
        if name not in self.values:
            raise SimulationError(f"read of undeclared signal {name!r}")
        return self.values[name]

    def set(self, name: str, value: BatchVector, mask: int | None = None) -> bool:
        """Write ``value`` on the lanes in ``mask``; return whether anything changed."""
        if name not in self.values:
            raise SimulationError(f"write to undeclared signal {name!r}")
        resized = value.resized(self.widths[name])
        current = self.values[name]
        if mask is not None and mask != current.lane_mask:
            resized = resized.select_lanes(mask, current)
        changed = resized != current
        self.values[name] = resized
        return changed

    def set_lane(self, name: str, lane: int, value: LogicVector) -> None:
        """Write a single lane of a signal (slow path for lane fallbacks)."""
        width = self.widths[name]
        replacement = BatchVector.broadcast(value.resized(width), self.lanes)
        self.set(name, replacement, mask=1 << lane)

    def snapshot(self) -> dict[str, BatchVector]:
        """A shallow copy of the current values (values are immutable)."""
        return dict(self.values)


class BatchStatementExecutor:
    """Interpret procedural statements over all stimulus lanes at once.

    Control flow becomes *masked execution*: an ``if`` evaluates its condition
    to per-lane truth masks and runs both branches, each restricted to the lanes
    that took it; assignments merge their result into the store only on the
    active lanes.  This reproduces the scalar executor's behaviour lane by lane
    (including the rule that unknown conditions execute neither branch).
    """

    def __init__(
        self,
        store: BatchSignalStore,
        parameters: dict[str, int],
        functions: dict[str, ast.FunctionDeclaration],
    ):
        self.store = store
        self.parameters = parameters
        self.functions = functions
        self.nonblocking_updates: list[tuple[ast.Expression, BatchVector, int]] = []
        self.display_log: list[str] = []

    @property
    def full_mask(self) -> int:
        return (1 << self.store.lanes) - 1

    # ------------------------------------------------------------------ evaluation plumbing
    def _make_evaluator(self) -> BatchExpressionEvaluator:
        context = BatchEvalContext(
            signals=self.store.values,
            parameters=self.parameters,
            functions=self.functions,
            lanes=self.store.lanes,
            lane_evaluator=self._lane_evaluator,
        )
        return BatchExpressionEvaluator(context)

    def _lane_evaluator(self, lane: int) -> ExpressionEvaluator:
        """A scalar evaluator (with full function-call support) for one lane."""
        scalar_store = SignalStore()
        for name, width in self.store.widths.items():
            scalar_store.widths[name] = width
            scalar_store.values[name] = self.store.values[name].lane(lane)
        scalar_executor = StatementExecutor(scalar_store, self.parameters, self.functions)
        return scalar_executor.evaluator

    # ------------------------------------------------------------------ statement execution
    def execute(
        self,
        statement: ast.Statement | None,
        active: int,
        allow_nonblocking: bool = True,
    ) -> None:
        """Execute ``statement`` on the lanes selected by the ``active`` mask."""
        if not active or statement is None or isinstance(statement, ast.NullStatement):
            return
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                self.execute(inner, active, allow_nonblocking)
            return
        if isinstance(statement, ast.BlockingAssign):
            value = self._make_evaluator().evaluate(statement.value)
            self._assign(statement.target, value, active)
            return
        if isinstance(statement, ast.NonBlockingAssign):
            value = self._make_evaluator().evaluate(statement.value)
            if allow_nonblocking:
                self.nonblocking_updates.append((statement.target, value, active))
            else:
                self._assign(statement.target, value, active)
            return
        if isinstance(statement, ast.IfStatement):
            evaluator = self._make_evaluator()
            condition = evaluator.evaluate(statement.condition)
            true_mask, false_mask, _ = evaluator._truth_masks(condition)
            # Unknown-condition lanes execute neither branch (the scalar rule).
            self.execute(statement.then_branch, active & true_mask, allow_nonblocking)
            self.execute(statement.else_branch, active & false_mask, allow_nonblocking)
            return
        if isinstance(statement, ast.CaseStatement):
            self._execute_case(statement, active, allow_nonblocking)
            return
        if isinstance(statement, ast.ForLoop):
            self._execute_for(statement, active, allow_nonblocking)
            return
        if isinstance(statement, ast.WhileLoop):
            remaining = active
            iterations = 0
            while True:
                evaluator = self._make_evaluator()
                true_mask, _, _ = evaluator._truth_masks(evaluator.evaluate(statement.condition))
                remaining &= true_mask
                if not remaining:
                    break
                self.execute(statement.body, remaining, allow_nonblocking)
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise SimulationError("while loop exceeded the iteration limit")
            return
        if isinstance(statement, ast.RepeatLoop):
            self._execute_repeat(statement, active, allow_nonblocking)
            return
        if isinstance(statement, ast.DelayStatement):
            self.execute(statement.body, active, allow_nonblocking)
            return
        if isinstance(statement, ast.EventWait):
            self.execute(statement.body, active, allow_nonblocking)
            return
        if isinstance(statement, ast.SystemTaskCall):
            self._execute_system_task(statement, active)
            return
        raise SimulationError(f"unsupported statement {type(statement).__name__}")

    def commit_nonblocking(self) -> bool:
        """Apply queued non-blocking assignments; return whether anything changed."""
        changed = False
        for target, value, mask in self.nonblocking_updates:
            changed |= self._assign(target, value, mask)
        self.nonblocking_updates.clear()
        return changed

    # ------------------------------------------------------------------ helpers
    def _execute_case(self, statement: ast.CaseStatement, active: int, allow_nonblocking: bool) -> None:
        evaluator = self._make_evaluator()
        subject = evaluator.evaluate(statement.subject)
        remaining = active
        default_item: ast.CaseItem | None = None
        for item in statement.items:
            if item.is_default:
                default_item = item
                continue
            for expression in item.expressions:
                if not remaining:
                    break
                candidate = evaluator.evaluate(expression)
                match_mask = self._case_match_mask(statement.kind, subject, candidate) & remaining
                if match_mask:
                    self.execute(item.body, match_mask, allow_nonblocking)
                    remaining &= ~match_mask
        if default_item is not None and remaining:
            self.execute(default_item.body, remaining, allow_nonblocking)

    def _case_match_mask(self, kind: str, subject: BatchVector, candidate: BatchVector) -> int:
        """Lanes on which ``candidate`` matches ``subject`` under the case kind."""
        width = max(subject.width, candidate.width)
        s = subject.resized(width)
        c = candidate.resized(width)
        full = subject.lane_mask
        match = full
        for bit in range(width):
            sv, sx = s.value_cols[bit], s.xz_cols[bit]
            cv, cx = c.value_cols[bit], c.xz_cols[bit]
            equal = ~(sv ^ cv) & ~(sx ^ cx)
            if kind == "casez":
                skip = (cx & cv) | (sx & sv)  # either side is z
            elif kind == "casex":
                skip = cx | sx
            else:
                skip = 0
            match &= equal | skip
        return match & full

    def _execute_for(self, statement: ast.ForLoop, active: int, allow_nonblocking: bool) -> None:
        self.execute(statement.init, active, allow_nonblocking)
        remaining = active
        iterations = 0
        while True:
            evaluator = self._make_evaluator()
            true_mask, _, _ = evaluator._truth_masks(evaluator.evaluate(statement.condition))
            remaining &= true_mask
            if not remaining:
                break
            self.execute(statement.body, remaining, allow_nonblocking)
            self.execute(statement.step, remaining, allow_nonblocking)
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise SimulationError("for loop exceeded the iteration limit")

    def _execute_repeat(self, statement: ast.RepeatLoop, active: int, allow_nonblocking: bool) -> None:
        count_value = self._make_evaluator().evaluate(statement.count)
        counts = [vector.to_int_or(0) for vector in count_value.to_vectors()]
        if max(counts, default=0) > MAX_LOOP_ITERATIONS:
            raise SimulationError("repeat loop exceeded the iteration limit")
        for iteration in range(max(counts, default=0)):
            mask = 0
            for lane, count in enumerate(counts):
                if iteration < count:
                    mask |= 1 << lane
            mask &= active
            if not mask:
                continue
            self.execute(statement.body, mask, allow_nonblocking)

    def _execute_system_task(self, statement: ast.SystemTaskCall, active: int) -> None:
        if statement.name in ("$display", "$write", "$monitor", "$strobe"):
            rendered: list[str] = []
            evaluator = self._make_evaluator()
            for argument in statement.args:
                if isinstance(argument, ast.StringLiteral):
                    rendered.append(argument.value)
                else:
                    try:
                        value = evaluator.evaluate(argument)
                        text = str(value.lane(0)) if self.store.lanes == 1 else str(value)
                        rendered.append(text)
                    except SimulationError:
                        rendered.append("<error>")
            self.display_log.append(" ".join(rendered))

    def _assign(self, target: ast.Expression, value: BatchVector, mask: int) -> bool:
        if not mask:
            return False
        if isinstance(target, ast.Identifier):
            return self.store.set(target.name, value, mask)
        if isinstance(target, ast.BitSelect):
            return self._assign_bit_select(target, value, mask)
        if isinstance(target, ast.PartSelect):
            return self._assign_part_select(target, value, mask)
        if isinstance(target, ast.Concat):
            changed = False
            widths = [self._target_width(part) for part in target.parts]
            total = sum(widths)
            value = value.resized(total)
            offset = total
            for part, width in zip(target.parts, widths):
                offset -= width
                changed |= self._assign(part, value.slice(offset + width - 1, offset), mask)
            return changed
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")

    def _assign_bit_select(self, target: ast.BitSelect, value: BatchVector, mask: int) -> bool:
        name = _target_name(target)
        evaluator = self._make_evaluator()
        index = evaluator.evaluate(target.index)
        current = self.store.get(name)
        uniform = index.uniform_value()
        if uniform is not None:
            if uniform.has_unknown:
                return False  # unknown index: no write, matching the scalar rule
            position = uniform.to_int()
            return self.store.set(name, current.replaced(position, position, value, mask), mask)
        # Per-possible-position masked writes; lanes with unknown indices skip.
        # The loop is bounded by what the index operand can encode so that
        # from_int(position) never wraps onto a lower index value.
        changed = False
        unknown = index.unknown_lanes()
        merged = current
        for position in range(min(current.width, 1 << index.width)):
            position_value = BatchVector.broadcast(
                LogicVector.from_int(position, index.width), self.store.lanes
            )
            eq_mask = evaluator._truth_masks(evaluator._evaluate_relational("==", index, position_value))[0]
            eq_mask &= mask & ~unknown
            if not eq_mask:
                continue
            merged = merged.replaced(position, position, value, eq_mask)
        if merged != current:
            changed = self.store.set(name, merged, mask)
        return changed

    def _assign_part_select(self, target: ast.PartSelect, value: BatchVector, mask: int) -> bool:
        name = _target_name(target)
        evaluator = self._make_evaluator()
        msb_value = evaluator.evaluate(target.msb)
        lsb_value = evaluator.evaluate(target.lsb)
        msb_uniform = msb_value.uniform_value()
        lsb_uniform = lsb_value.uniform_value()
        current = self.store.get(name)
        if (
            msb_uniform is not None
            and lsb_uniform is not None
            and not msb_uniform.has_unknown
            and not lsb_uniform.has_unknown
        ):
            first = msb_uniform.to_int()
            second = lsb_uniform.to_int()
            if target.mode == ":":
                msb, lsb = first, second
            elif target.mode == "+:":
                msb, lsb = first + second - 1, first
            else:
                msb, lsb = first, first - second + 1
            return self.store.set(name, current.replaced(msb, lsb, value, mask), mask)
        # Lane-divergent bounds: fall back to per-lane scalar bound evaluation.
        changed = False
        for lane in range(self.store.lanes):
            if not (mask >> lane) & 1:
                continue
            scalar = self._lane_evaluator(lane)
            try:
                first = scalar.evaluate_constant(target.msb)
                second = scalar.evaluate_constant(target.lsb)
            except (SimulationError, ValueError):
                continue
            if target.mode == ":":
                msb, lsb = first, second
            elif target.mode == "+:":
                msb, lsb = first + second - 1, first
            else:
                msb, lsb = first, first - second + 1
            current = self.store.get(name)
            changed |= self.store.set(name, current.replaced(msb, lsb, value, 1 << lane), 1 << lane)
        return changed

    def _target_width(self, target: ast.Expression) -> int:
        if isinstance(target, ast.Identifier):
            return self.store.widths.get(target.name, 1)
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            evaluator = self._make_evaluator()
            if target.mode == ":":
                msb = evaluator.evaluate_uniform_constant(target.msb)
                lsb = evaluator.evaluate_uniform_constant(target.lsb)
                return abs(msb - lsb) + 1
            return evaluator.evaluate_uniform_constant(target.lsb)
        if isinstance(target, ast.Concat):
            return sum(self._target_width(part) for part in target.parts)
        raise SimulationError(f"unsupported assignment target {type(target).__name__}")
