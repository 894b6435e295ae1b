"""Fuzz round-trip: writer output must re-parse to an equivalent AST.

Random modules are generated from a seeded grammar over the supported subset
(declarations with initialisers, parameters, continuous assigns, combinational
and clocked always blocks, if/case/for statements, the full expression
grammar).  For every module: ``parse(source)`` → ``write`` → ``parse`` must
yield a structurally identical AST (dataclass equality), and the emission must
be a fixed point (``write(parse(write(m))) == write(m)``).

The same generator doubles as the execution-fuzz corpus: every module is also
driven through a *three-way differential* — codegen back end vs batch
interpreter vs the scalar ``ModuleSimulator`` — comparing every output signal
on every lane after every input application (x/z bits included).  A second,
clocked corpus (:meth:`_SourceGen.clocked_module`) targets the scalar
scheduler: out-of-order combinational chains, double writes, x/z case arms, a
function reading a module signal and occasional combinational loops, run for
16 cycles with a mid-run reset.
"""

from __future__ import annotations

import random

import pytest

from repro.verilog.design import DesignDatabase
from repro.verilog.errors import SimulationError
from repro.verilog.parser import parse_module
from repro.verilog.simulator import BatchSimulator, ModuleSimulator
from repro.verilog.writer import write_module


class _SourceGen:
    """Seeded random Verilog source generator (valid by construction)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.signals: dict[str, int] = {}

    # ------------------------------------------------------------------ expressions
    def expr(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return self.leaf()
        choice = rng.random()
        if choice < 0.3:
            op = rng.choice(["&", "|", "^", "+", "-", "&&", "||"])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.45:
            op = rng.choice(["==", "!=", "<", ">", "<=", ">=", "===", "!=="])
            return f"({self.expr(depth - 1)} {op} {self.expr(depth - 1)})"
        if choice < 0.55:
            op = rng.choice(["~", "!", "&", "|", "^", "~&", "~|"])
            return f"({op}{self.leaf()})"
        if choice < 0.65:
            return f"({self.expr(depth - 1)} ? {self.expr(depth - 1)} : {self.expr(depth - 1)})"
        if choice < 0.75:
            return f"{{{self.expr(depth - 1)}, {self.expr(depth - 1)}}}"
        if choice < 0.8:
            count = rng.randint(2, 4)
            return f"{{{count}{{{self.leaf()}}}}}"
        if choice < 0.9:
            op = rng.choice(["<<", ">>", "<<<", ">>>"])
            return f"({self.expr(depth - 1)} {op} {self.rng.randint(0, 3)})"
        return self.leaf()

    def leaf(self) -> str:
        rng = self.rng
        if self.signals and rng.random() < 0.65:
            name = rng.choice(list(self.signals))
            width = self.signals[name]
            roll = rng.random()
            if width > 1 and roll < 0.2:
                index = rng.randint(0, width - 1)
                return f"{name}[{index}]"
            if width > 1 and roll < 0.35:
                msb = rng.randint(0, width - 1)
                lsb = rng.randint(0, msb)
                return f"{name}[{msb}:{lsb}]"
            if width > 2 and roll < 0.4:
                base = rng.randint(0, width - 2)
                return f"{name}[{base} +: 2]"
            return name
        width = rng.randint(1, 8)
        value = rng.randrange(1 << width)
        base = rng.choice(["d", "b", "h", ""])
        if not base:
            return str(value)
        digits = {"d": str(value), "b": format(value, "b"), "h": format(value, "x")}[base]
        return f"{width}'{base}{digits}"

    # ------------------------------------------------------------------ statements
    def statement(self, target: str, depth: int, nonblocking: bool) -> str:
        rng = self.rng
        assign = "<=" if nonblocking else "="
        if depth <= 0 or rng.random() < 0.4:
            return f"{target} {assign} {self.expr(2)};"
        choice = rng.random()
        if choice < 0.4:
            return (
                f"if ({self.expr(2)})\n"
                f"    {self.statement(target, depth - 1, nonblocking)}\n"
                "else\n"
                f"    {self.statement(target, depth - 1, nonblocking)}"
            )
        if choice < 0.7:
            kind = rng.choice(["case", "casez", "casex"])
            subject = rng.choice(list(self.signals))
            arms = "\n".join(
                f"    {self.signals[subject]}'d{value}: {self.statement(target, 0, nonblocking)}"
                for value in range(min(3, 1 << self.signals[subject]))
            )
            return (
                f"{kind} ({subject})\n{arms}\n"
                f"    default: {self.statement(target, 0, nonblocking)}\n"
                "endcase"
            )
        return (
            "begin\n"
            f"    {self.statement(target, depth - 1, nonblocking)}\n"
            f"    {self.statement(target, depth - 1, nonblocking)}\n"
            "end"
        )

    # ------------------------------------------------------------------ modules
    def module(self) -> str:
        rng = self.rng
        self.signals = {}
        ports = ["input clk", "input rst"]
        self.signals["rst"] = 1
        for index in range(rng.randint(1, 3)):
            width = rng.choice([1, 2, 4, 8])
            name = f"in{index}"
            self.signals[name] = width
            ports.append(f"input [{width - 1}:0] {name}" if width > 1 else f"input {name}")
        items: list[str] = []
        if rng.random() < 0.5:
            items.append(f"localparam LIMIT = {rng.randint(1, 15)};")
        for index in range(rng.randint(0, 2)):
            width = rng.choice([2, 4, 8])
            name = f"w{index}"
            init = f" = {width}'d{rng.randrange(1 << width)}" if rng.random() < 0.3 else ""
            items.append(f"reg [{width - 1}:0] {name}{init};")
            self.signals[name] = width
        outputs: list[str] = []
        for index in range(rng.randint(1, 2)):
            width = rng.choice([1, 4, 8])
            name = f"out{index}"
            range_text = f"[{width - 1}:0] " if width > 1 else ""
            if rng.random() < 0.5:
                ports.append(f"output {range_text}{name}")
                items.append(f"assign {name} = {self.expr(3)};")
            else:
                ports.append(f"output reg {range_text}{name}")
                if rng.random() < 0.5:
                    items.append(
                        "always @(*)\n    " + self.statement(name, 2, nonblocking=False)
                    )
                else:
                    sensitivity = rng.choice(["posedge clk", "posedge clk or posedge rst"])
                    items.append(
                        f"always @({sensitivity})\n    "
                        + self.statement(name, 2, nonblocking=True)
                    )
            outputs.append(name)
            self.signals[name] = width
        return _assemble(ports, items)

    # ------------------------------------------------------------------ clocked modules
    def xz_literal(self, width: int, kind: str) -> str:
        """A case-item literal with some x/z (and, for casez, ``?``) digits."""
        wild = "xz?" if kind == "casez" else "xz"
        digits = "".join(
            self.rng.choice("01") if self.rng.random() < 0.7 else self.rng.choice(wild)
            for _ in range(width)
        )
        return f"{width}'b{digits}"

    def xz_case(self, target: str, nonblocking: bool) -> str:
        rng = self.rng
        kind = rng.choice(["case", "casez", "casex"])
        subject = rng.choice(list(self.signals))
        width = self.signals[subject]
        arms = "\n".join(
            f"    {self.xz_literal(width, kind)}: {self.statement(target, 0, nonblocking)}"
            for _ in range(rng.randint(1, 3))
        )
        return (
            f"{kind} ({subject})\n{arms}\n"
            f"    default: {self.statement(target, 0, nonblocking)}\n"
            "endcase"
        )

    def clocked_module(self) -> str:
        """A clocked module aimed at the scalar scheduler.

        State registers with reset feed a chain of combinational processes
        that is declared in reverse dependency order, so settling takes
        several sweeps.  One ``always @*`` link writes its signal twice per
        run, case arms carry x/z digits, a function reads a state register
        it is not passed, and about one module in six closes the chain into
        a combinational loop (which may or may not settle).
        """
        rng = self.rng
        self.signals = {"rst": 1}
        ports = ["input clk", "input rst"]
        for index in range(rng.randint(1, 3)):
            width = rng.choice([1, 2, 4, 8])
            name = f"in{index}"
            self.signals[name] = width
            ports.append(f"input [{width - 1}:0] {name}" if width > 1 else f"input {name}")
        state = [f"s{index}" for index in range(rng.randint(1, 2))]
        chain = [f"c{index}" for index in range(rng.randint(2, 4))]
        declarations = [f"reg [3:0] {name};" for name in state + chain]
        for name in state:
            self.signals[name] = 4
        declarations.append(
            "function [3:0] mix;\n"
            "    input [3:0] v;\n"
            f"    mix = v ^ {rng.choice(state)};\n"
            "endfunction"
        )
        looped = rng.random() < 1 / 6
        links: list[str] = []
        for index, name in enumerate(chain):
            previous = chain[index - 1] if index else (chain[-1] if looped else None)
            feed = f" ^ {previous}" if previous else ""
            roll = rng.random()
            if roll < 0.3:
                links.append(f"always @(*) begin\n    {name} = {self.expr(2)};\n"
                             f"    if ({self.expr(1)}) {name} = {name}{feed} ^ 4'd{rng.randrange(16)};\n"
                             f"    else {name} = mix({name}){feed};\nend")
            elif roll < 0.55:
                links.append(f"always @(*) begin\n    {name} = {self.expr(1)}{feed};\n"
                             f"    {self.xz_case(name, nonblocking=False)}\nend")
            else:
                call = f"mix({self.expr(1)})" if rng.random() < 0.4 else self.expr(2)
                links.append(f"assign {name} = {call}{feed};")
            self.signals[name] = 4
        links.reverse()
        registers: list[str] = []
        for name in state:
            sensitivity = rng.choice(["posedge clk", "posedge clk or posedge rst"])
            update = (
                self.xz_case(name, nonblocking=True)
                if rng.random() < 0.4
                else self.statement(name, 2, nonblocking=True)
            )
            registers.append(
                f"always @({sensitivity})\n    if (rst) {name} <= 4'd0;\n    else {update}"
            )
        ports.append("output [3:0] out0")
        ports.append("output [3:0] out1")
        outputs = [f"assign out0 = {chain[-1]};", f"assign out1 = {self.expr(2)};"]
        return _assemble(ports, declarations + registers + links + outputs)


def _assemble(ports: list[str], items: list[str]) -> str:
    header = "module fuzzmod (\n    " + ",\n    ".join(ports) + "\n);\n"
    return header + "\n".join("    " + item.replace("\n", "\n    ") for item in items) + "\nendmodule\n"


@pytest.mark.parametrize("seed", range(40))
def test_write_then_parse_is_equivalent(seed):
    source = _SourceGen(seed).module()
    first = parse_module(source)
    emitted = write_module(first)
    second = parse_module(emitted)
    assert second == first, f"round-trip changed the AST for seed {seed}:\n{emitted}"


@pytest.mark.parametrize("seed", range(40))
def test_emission_is_a_fixed_point(seed):
    source = _SourceGen(seed).module()
    first_text = write_module(parse_module(source))
    second_text = write_module(parse_module(first_text))
    assert second_text == first_text


_FUZZ_LANES = 8
_FUZZ_STEPS = 4


def _snapshot(batch: BatchSimulator, scalars, outputs: list[str]) -> None:
    """Assert one engine's outputs equal the scalar oracle on every lane."""
    for name in outputs:
        vector = batch.get(name)
        for lane, scalar in enumerate(scalars):
            assert (
                vector.lane(lane).to_verilog_literal()
                == scalar.get(name).to_verilog_literal()
            ), f"output {name} lane {lane}"


@pytest.mark.parametrize("seed", range(20))
def test_three_way_differential_execution(seed):
    """codegen == batch interpreter == scalar simulator, every output, every lane.

    Generated modules that the lowering rejects (e.g. uninitialised regs
    surfacing as undef sources) still run here — ``auto`` then *is* the
    interpreter, and the differential degenerates to batch-vs-scalar, which is
    exactly the fallback contract being checked.

    Each seed runs the :meth:`_SourceGen.module` corpus for 4 cycles with
    reset in the first, then the :meth:`_SourceGen.clocked_module` corpus for
    16 cycles with reset in the first and again partway through.
    """
    _three_way(_SourceGen(seed).module(), random.Random(seed * 7919 + 1), cycles=_FUZZ_STEPS, resets={0})
    rng = random.Random(seed * 7919 + 2)
    _three_way(
        _SourceGen(seed).clocked_module(),
        rng,
        cycles=_CLOCKED_CYCLES,
        resets={0, rng.randrange(5, 11)},
    )


_CLOCKED_CYCLES = 16


def _three_way(source: str, rng: random.Random, cycles: int, resets: set[int]) -> None:
    """Drive one module through all three engines; compare after every phase.

    When one engine raises :class:`SimulationError` (a combinational loop
    that does not settle), every engine must raise on that same phase: the
    scalar simulator on some lane, the batch engines over all of them.
    """
    compiled = DesignDatabase().compile(source)
    widths = compiled.input_widths()
    data_inputs = sorted(set(widths) - {"clk", "rst"})
    outputs = [port.name for port in compiled.template.output_ports()]

    def raised(apply) -> bool:
        try:
            apply()
        except SimulationError:
            return True
        return False

    engines = [
        BatchSimulator(compiled, lanes=_FUZZ_LANES, backend=backend)
        for backend in ("auto", "interpret")
    ]
    scalars = [ModuleSimulator(compiled) for _ in range(_FUZZ_LANES)]

    for step in range(cycles):
        data = {
            name: [rng.randrange(1 << widths[name]) for _ in range(_FUZZ_LANES)]
            for name in data_inputs
        }
        rst = 1 if step in resets else 0
        for phase in (
            {**data, "rst": [rst] * _FUZZ_LANES, "clk": [0] * _FUZZ_LANES},
            {"clk": [1] * _FUZZ_LANES},
            {"clk": [0] * _FUZZ_LANES},
        ):
            batch_raised = [
                raised(lambda engine=engine: engine.apply_inputs(
                    {name: list(values) for name, values in phase.items()}
                ))
                for engine in engines
            ]
            scalar_raised = [
                raised(lambda lane=lane, scalar=scalar: scalar.apply_inputs(
                    {name: values[lane] for name, values in phase.items()}
                ))
                for lane, scalar in enumerate(scalars)
            ]
            assert batch_raised == [any(scalar_raised)] * len(engines), (
                f"step {step}: batch engines raised {batch_raised}, "
                f"scalar lanes raised {scalar_raised}\n{source}"
            )
            if any(scalar_raised):
                return
            for engine in engines:
                _snapshot(engine, scalars, outputs)


def test_roundtrip_preserves_number_literal_text():
    source = "module m(output [7:0] y); assign y = 8'hA5 + 8'b0001_0010; endmodule"
    emitted = write_module(parse_module(source))
    assert "8'hA5" in emitted
    assert parse_module(emitted) == parse_module(source)
