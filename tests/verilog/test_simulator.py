"""Tests for the module simulator (elaboration + execution)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.verilog.errors import ElaborationError, SimulationError
from repro.verilog.simulator.scheduler import _case_matches
from repro.verilog.simulator.simulator import (
    MAX_SIGNAL_WIDTH,
    ModuleSimulator,
    simulate_combinational,
)
from repro.verilog.simulator.values import LogicVector


class TestElaboration:
    def test_ports_and_widths(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        assert simulator.input_names() == ["clk", "rst", "en"]
        assert simulator.output_names() == ["count"]
        assert simulator.get("count").width == 4

    def test_parameter_override_changes_width(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source, parameter_overrides={"WIDTH": 8})
        assert simulator.get("count").width == 8

    def test_localparam_resolution(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        assert simulator.design.parameters["A"] == 0
        assert simulator.design.parameters["B"] == 1

    def test_uninitialised_regs_are_x(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        assert simulator.get("count").has_unknown

    def test_net_initialiser_applied(self):
        simulator = ModuleSimulator.from_source(
            "module m(output [3:0] y); wire [3:0] t = 4'd9; assign y = t; endmodule"
        )
        assert simulator.get_int("y") == 9

    def test_initial_block_executes(self):
        simulator = ModuleSimulator.from_source(
            "module m(output [3:0] y); reg [3:0] r; initial r = 4'd5; assign y = r; endmodule"
        )
        assert simulator.get_int("y") == 5

    def test_memory_array_rejected(self):
        source = "module m(input clk, output y); reg [7:0] mem [0:3]; assign y = 1'b0; endmodule"
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source(source)

    def test_module_instance_rejected(self):
        source = "module m(input a, output y); sub u0 (a, y); endmodule"
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source(source)

    def test_port_without_direction_rejected(self):
        with pytest.raises(ElaborationError):
            ModuleSimulator.from_source("module m(a); wire a; endmodule")


class TestCombinational:
    def test_and_gate(self):
        source = "module g(input a, input b, output y); assign y = a & b; endmodule"
        results = simulate_combinational(source, [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)])
        values = [result["y"].to_int() for result in results]
        assert values == [0, 0, 0, 1]

    def test_always_star_block(self):
        source = """
        module g(input a, input b, output reg y);
            always @(*) begin
                if (a & b) y = 1'b1;
                else y = 1'b0;
            end
        endmodule
        """
        results = simulate_combinational(source, [{"a": 1, "b": 1}, {"a": 1, "b": 0}])
        assert [r["y"].to_int() for r in results] == [1, 0]

    def test_chained_combinational_settles(self):
        source = """
        module chain(input a, output y);
            wire t1, t2;
            assign t1 = ~a;
            assign t2 = ~t1;
            assign y = ~t2;
        endmodule
        """
        results = simulate_combinational(source, [{"a": 0}, {"a": 1}])
        assert [r["y"].to_int() for r in results] == [1, 0]

    def test_combinational_loop_detected(self):
        source = """
        module loop(input a, output y);
            reg t = 1'b0;
            always @(*) t = ~t;
            assign y = t & a;
        endmodule
        """
        with pytest.raises(SimulationError):
            ModuleSimulator.from_source(source)

    def test_x_feedback_loop_settles_to_x(self):
        # A feedback loop through undefined values settles (conservatively) at x
        # instead of looping forever.
        source = """
        module loop(input a, output y);
            wire t;
            assign t = ~t;
            assign y = t & a;
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"a": 1})
        assert simulator.get("y").has_unknown

    def test_case_statement_combinational(self):
        source = """
        module mux(input [1:0] sel, input [3:0] a, input [3:0] b, input [3:0] c, output reg [3:0] y);
            always @(*) begin
                case (sel)
                    2'd0: y = a;
                    2'd1: y = b;
                    default: y = c;
                endcase
            end
        endmodule
        """
        results = simulate_combinational(
            source,
            [{"sel": 0, "a": 1, "b": 2, "c": 3}, {"sel": 1, "a": 1, "b": 2, "c": 3}, {"sel": 3, "a": 1, "b": 2, "c": 3}],
        )
        assert [r["y"].to_int() for r in results] == [1, 2, 3]

    def test_adder_carry(self, adder_source):
        simulator = ModuleSimulator.from_source(adder_source)
        simulator.apply_inputs({"a": 9, "b": 8})
        assert simulator.get_int("sum") == 1
        assert simulator.get_int("carry_out") == 1

    def test_function_call_in_assign(self):
        source = """
        module f(input [3:0] a, output [3:0] y);
            function [3:0] double;
                input [3:0] value;
                double = value << 1;
            endfunction
            assign y = double(a);
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"a": 5})
        assert simulator.get_int("y") == 10


class TestSequential:
    def test_counter_counts(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        assert simulator.get_int("count") == 0
        simulator.apply_inputs({"rst": 0, "en": 1})
        for _ in range(5):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 5

    def test_counter_enable_gates_updates(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0, "en": 0})
        for _ in range(3):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 0

    def test_counter_wraps(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "en": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0, "en": 1})
        for _ in range(17):
            simulator.clock_cycle()
        assert simulator.get_int("count") == 1

    def test_async_reset_applies_without_clock(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        simulator.apply_inputs({"clk": 0, "x": 0, "rst": 0})
        simulator.apply_inputs({"rst": 1})  # asynchronous reset edge, no clock edge
        assert simulator.get_int("out") == 0
        simulator.apply_inputs({"rst": 0})

    def test_fsm_trace_matches_reference(self, fsm_source):
        simulator = ModuleSimulator.from_source(fsm_source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "x": 0})
        simulator.apply_inputs({"rst": 0})
        outputs = []
        for x in [0, 1, 0, 0, 1, 1]:
            simulator.apply_inputs({"x": x})
            simulator.apply_inputs({"clk": 1})
            simulator.apply_inputs({"clk": 0})
            outputs.append(simulator.get_int("out"))
        assert outputs == [1, 1, 0, 1, 1, 1]

    def test_nonblocking_swap_semantics(self):
        source = """
        module swap(input clk, input rst, output reg a, output reg b);
            always @(posedge clk) begin
                if (rst) begin
                    a <= 1'b0;
                    b <= 1'b1;
                end else begin
                    a <= b;
                    b <= a;
                end
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 0, "rst": 1})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        simulator.clock_cycle()
        # Non-blocking semantics: values swap rather than both becoming equal.
        assert simulator.get_int("a") == 1
        assert simulator.get_int("b") == 0

    def test_negedge_clocking(self):
        source = """
        module d(input clk, input din, output reg q);
            always @(negedge clk) q <= din;
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 1, "din": 1})
        simulator.apply_inputs({"din": 1})
        simulator.apply_inputs({"clk": 0})  # falling edge captures din
        assert simulator.get_int("q") == 1

    def test_shift_register(self):
        source = """
        module sr(input clk, input rst, input din, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= {q[2:0], din};
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        simulator.apply_inputs({"clk": 0, "rst": 1, "din": 0})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        for bit in [1, 0, 1, 1]:
            simulator.clock_cycle(inputs={"din": bit})
        assert simulator.get_int("q") == 0b1011

    def test_pulse_helper(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        simulator.apply_inputs({"clk": 0, "rst": 0, "en": 1})
        simulator.clock_cycle()  # count becomes x+1 => x, then reset below
        simulator.apply_inputs({"rst": 1})
        simulator.clock_cycle()
        simulator.apply_inputs({"rst": 0})
        assert simulator.get_int("count") == 0

    def test_unknown_input_raises(self, counter_source):
        simulator = ModuleSimulator.from_source(counter_source)
        with pytest.raises(SimulationError):
            simulator.apply_inputs({"nonexistent": 1})

    def test_display_log_captured(self):
        source = """
        module m(input clk, output reg y);
            initial begin
                $display("hello");
                y = 1'b0;
            end
        endmodule
        """
        simulator = ModuleSimulator.from_source(source)
        assert any("hello" in line for line in simulator.display_log)


#: Net-declaration assignments: ``wire w = expr;`` is a continuous assign.
WIRE_INIT = """
module top_module(input [3:0] a, input [3:0] b, output [3:0] y, output z);
    wire [3:0] t = a ^ b;
    wire p = &t, q = |a;
    assign y = t + 4'd1;
    assign z = p | q;
endmodule
"""

#: The same design spelled with separate ``assign`` statements.
ASSIGN_TWIN = """
module top_module(input [3:0] a, input [3:0] b, output [3:0] y, output z);
    wire [3:0] t;
    wire p, q;
    assign t = a ^ b;
    assign p = &t;
    assign q = |a;
    assign y = t + 4'd1;
    assign z = p | q;
endmodule
"""

#: A clocked design reading a net-declaration assignment (scalar engine path).
WIRE_INIT_CLOCKED = """
module top_module(input clk, input rst, input [3:0] d, output reg [3:0] q);
    wire [3:0] next = q + d;
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= next;
    end
endmodule
"""


class TestNetDeclarationAssignment:
    """``wire w = a;`` scores like its ``assign`` twin on every engine."""

    VECTORS = [{"a": a, "b": b} for a in range(16) for b in range(0, 16, 3)]

    @staticmethod
    def _expected(vector):
        t = vector["a"] ^ vector["b"]
        return {"y": (t + 1) & 0xF, "z": int(t == 0xF or vector["a"] != 0)}

    def _golden(self):
        from repro.bench.golden import VectorFunctionGolden

        return VectorFunctionGolden(self._expected)

    def test_scalar_engine(self):
        for source in (WIRE_INIT, ASSIGN_TWIN):
            outputs = simulate_combinational(source, self.VECTORS)
            for vector, values in zip(self.VECTORS, outputs):
                actual = {name: value.to_int() for name, value in values.items()}
                assert actual == self._expected(vector)

    @pytest.mark.parametrize("backend", ["interpret", "codegen"])
    def test_batch_engines(self, backend):
        from repro.verilog.simulator.batch import BatchSimulator

        inputs = {name: [vector[name] for vector in self.VECTORS] for name in ("a", "b")}
        for source in (WIRE_INIT, ASSIGN_TWIN):
            simulator = BatchSimulator.from_source(source, lanes=len(self.VECTORS), backend=backend)
            simulator.apply_inputs(inputs)
            for lane, vector in enumerate(self.VECTORS):
                expected = self._expected(vector)
                assert simulator.get_lane("y", lane).to_int() == expected["y"]
                assert simulator.get_lane("z", lane).to_int() == expected["z"]

    def test_testbench_verdicts_match_the_twin(self):
        from repro.verilog.simulator.testbench import BatchTestbenchRunner, TestbenchRunner

        for runner in (TestbenchRunner(), BatchTestbenchRunner(differential=True)):
            for source in (WIRE_INIT, ASSIGN_TWIN):
                assert runner.run(source, self._golden(), list(self.VECTORS)).passed

    def test_formal_engine(self):
        from repro.bench.golden import formal_equivalence_check

        assert formal_equivalence_check(WIRE_INIT, ASSIGN_TWIN, session=None).equivalent
        wrong = ASSIGN_TWIN.replace("assign q = |a;", "assign q = &a;")
        assert not formal_equivalence_check(WIRE_INIT, wrong, session=None).equivalent

    def test_clocked_design_on_the_scalar_engine(self):
        simulator = ModuleSimulator.from_source(WIRE_INIT_CLOCKED)
        simulator.apply_inputs({"clk": 0, "rst": 1, "d": 0})
        simulator.clock_cycle(inputs={"rst": 1, "d": 0})
        total = 0
        for d in (3, 5, 9, 2):
            simulator.clock_cycle(inputs={"rst": 0, "d": d})
            total = (total + d) & 0xF
            assert simulator.get_int("q") == total

    def test_reg_initialiser_stays_a_constant(self):
        simulator = ModuleSimulator.from_source(
            "module m(input [3:0] a, output [3:0] y); reg [3:0] r = 4'd5;"
            " assign y = r; endmodule"
        )
        simulator.apply_inputs({"a": 3})
        assert simulator.get_int("y") == 5


def _case_matches_bitwise(kind: str, subject: LogicVector, candidate: LogicVector) -> bool:
    """Reference case-item match: the bit-by-bit loop word-wide matching replaced."""
    width = max(subject.width, candidate.width)
    subject = subject.resized(width)
    candidate = candidate.resized(width)
    for index in range(width):
        subject_bit = subject.bit(index)
        candidate_bit = candidate.bit(index)
        if kind == "casez":
            if candidate_bit == "z" or subject_bit == "z":
                continue
        elif kind == "casex":
            if candidate_bit in "xz" or subject_bit in "xz":
                continue
        if subject_bit != candidate_bit:
            return False
    return True


_four_state = st.text(alphabet="01xz", min_size=1, max_size=12).map(LogicVector.from_string)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["case", "casez", "casex"]), _four_state, _four_state)
def test_word_wide_case_match_equals_the_bit_loop(kind, subject, candidate):
    assert _case_matches(kind, subject, candidate) == _case_matches_bitwise(kind, subject, candidate)


class TestEventDrivenSettle:
    """Settle skips only processes whose run would leave the store as it is."""

    def test_two_drivers_of_one_wire_still_do_not_settle(self):
        simulator = ModuleSimulator.from_source(
            "module m(input a, input b, output w); assign w = a; assign w = b; endmodule"
        )
        simulator.apply_inputs({"a": 1, "b": 1})
        assert simulator.get_int("w") == 1
        with pytest.raises(SimulationError, match="did not settle"):
            simulator.apply_inputs({"b": 0})

    def test_self_inverting_assign_still_does_not_settle(self):
        simulator = ModuleSimulator.from_source(
            "module m(input a, output y); assign y = a ? ~y : 1'b0; endmodule"
        )
        simulator.apply_inputs({"a": 0})
        assert simulator.get_int("y") == 0
        with pytest.raises(SimulationError, match="did not settle"):
            simulator.apply_inputs({"a": 1})

    def test_display_in_always_star_logs_once_per_sweep(self):
        # The display block precedes the assign it reads, so most changes take
        # several sweeps; it must log on each one.  The counts were recorded
        # with the simulator that ran every process on every sweep.
        simulator = ModuleSimulator.from_source(
            """
            module m(input a, input b, output reg y, output t);
                always @(*) begin
                    y = t & b;
                    $display("y=", y);
                end
                assign t = a ^ b;
            endmodule
            """
        )
        counts = [len(simulator.display_log)]
        for vector in ({"a": 1, "b": 0}, {"b": 1}, {"b": 1}, {"a": 0}, {"a": 0, "b": 0}):
            simulator.apply_inputs(vector)
            counts.append(len(simulator.display_log))
        assert counts == [1, 4, 8, 9, 13, 16]

    def test_function_reading_a_module_signal_tracks_it(self):
        simulator = ModuleSimulator.from_source(
            """
            module m(input [3:0] a, input [3:0] k, output [3:0] y);
                function [3:0] mix;
                    input [3:0] v;
                    mix = v ^ k;
                endfunction
                assign y = mix(a);
            endmodule
            """
        )
        simulator.apply_inputs({"a": 1, "k": 0})
        assert simulator.get_int("y") == 1
        simulator.apply_inputs({"k": 3})  # only the function body reads k
        assert simulator.get_int("y") == 2

    def test_out_of_order_chain_settles_across_sweeps(self):
        simulator = ModuleSimulator.from_source(
            """
            module m(input [3:0] a, output [3:0] y);
                wire [3:0] s1, s2;
                assign y = s2 + 4'd1;
                assign s2 = s1 ^ 4'b1010;
                assign s1 = a;
            endmodule
            """
        )
        for a in (0, 5, 5, 15):
            simulator.apply_inputs({"a": a})
            assert simulator.get_int("y") == ((a ^ 0b1010) + 1) & 0xF

    def test_clones_share_one_schedule_index(self):
        from repro.verilog.design import DesignDatabase

        compiled = DesignDatabase().compile(
            "module m(input a, output y); assign y = ~a; endmodule"
        )
        first, second = ModuleSimulator(compiled), ModuleSimulator(compiled)
        assert first.schedule is second.schedule is compiled.template.schedule


class TestWidthCap:
    def test_declaration_above_the_cap_is_an_elaboration_error(self):
        for declaration in (
            f"reg [{MAX_SIGNAL_WIDTH}:0] r;",
            "wire [99999999:0] w;",
            f"function [{MAX_SIGNAL_WIDTH}:0] f; input a; f = a; endfunction",
        ):
            source = f"module m(input a, output y); {declaration} assign y = a; endmodule"
            with pytest.raises(ElaborationError, match="bits wide"):
                ModuleSimulator.from_source(source)
        with pytest.raises(ElaborationError, match="bits wide"):
            ModuleSimulator.from_source("module m(input [99999999:0] a, output y); assign y = a[0]; endmodule")

    def test_declaration_at_the_cap_elaborates(self):
        simulator = ModuleSimulator.from_source(
            f"module m(input a, output y); reg [{MAX_SIGNAL_WIDTH - 1}:0] r; assign y = a; endmodule"
        )
        assert simulator.get("r").width == MAX_SIGNAL_WIDTH
