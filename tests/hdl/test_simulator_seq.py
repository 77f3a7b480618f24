"""Sequential simulation semantics: edges, NBA ordering, memories."""

import pytest

from repro.hdl.compile import simulate


def clock(sim, cycles=1, **inputs):
    """Drive one or more full clock cycles (inputs applied while low)."""
    for _ in range(cycles):
        sim.step(inputs)
        sim.step({"clk": 1})
        sim.step({"clk": 0})
        inputs = {}


class TestRegisters:
    def test_dff_captures_on_posedge_only(self):
        sim = simulate(
            "module t (input clk, input d, output reg q);\n"
            "always @(posedge clk) q <= d;\nendmodule"
        )
        sim.step({"clk": 0, "d": 1})
        assert sim.peek("q").has_x  # nothing captured yet
        sim.step({"clk": 1})
        assert sim.peek("q").to_uint() == 1
        sim.step({"d": 0})  # changing d without an edge
        assert sim.peek("q").to_uint() == 1

    def test_negedge_dff(self):
        sim = simulate(
            "module t (input clk, input d, output reg q);\n"
            "always @(negedge clk) q <= d;\nendmodule"
        )
        sim.step({"clk": 1, "d": 1})
        sim.step({"clk": 0})
        assert sim.peek("q").to_uint() == 1

    def test_async_reset_fires_without_clock(self):
        sim = simulate(
            "module t (input clk, input rst_n, input d, output reg q);\n"
            "always @(posedge clk or negedge rst_n)\n"
            "    if (!rst_n) q <= 0; else q <= d;\nendmodule"
        )
        sim.step({"clk": 0, "rst_n": 1, "d": 1})
        sim.step({"clk": 1})
        assert sim.peek("q").to_uint() == 1
        sim.step({"rst_n": 0})  # no clock edge, reset alone
        assert sim.peek("q").to_uint() == 0

    def test_sync_reset_waits_for_clock(self):
        sim = simulate(
            "module t (input clk, input rst, input d, output reg q);\n"
            "always @(posedge clk) if (rst) q <= 0; else q <= d;\nendmodule"
        )
        sim.step({"clk": 0, "rst": 0, "d": 1})
        sim.step({"clk": 1})
        sim.step({"clk": 0, "rst": 1})
        assert sim.peek("q").to_uint() == 1  # reset not applied yet
        sim.step({"clk": 1})
        assert sim.peek("q").to_uint() == 0


class TestNonblockingSemantics:
    def test_swap_via_nba(self):
        sim = simulate(
            "module t (input clk, input load, output reg a, output reg b);\n"
            "always @(posedge clk) begin\n"
            "    if (load) begin a <= 1'b1; b <= 1'b0; end\n"
            "    else begin a <= b; b <= a; end\nend\nendmodule"
        )
        clock(sim, load=1)
        assert (sim.peek("a").to_uint(), sim.peek("b").to_uint()) == (1, 0)
        clock(sim, load=0)
        assert (sim.peek("a").to_uint(), sim.peek("b").to_uint()) == (0, 1)

    def test_shift_chain_order_independent(self):
        sim = simulate(
            "module t (input clk, input d, output wire q);\n"
            "reg [2:0] sr;\n"
            "always @(posedge clk) begin\n"
            "    sr[2] <= sr[1];\n"
            "    sr[1] <= sr[0];\n"
            "    sr[0] <= d;\nend\n"
            "assign q = sr[2];\nendmodule"
        )
        sim.step({"clk": 0, "d": 1})
        clock(sim, 3)
        assert sim.peek("q").to_uint() == 1

    def test_last_nba_write_wins(self):
        sim = simulate(
            "module t (input clk, input d, output reg q);\n"
            "always @(posedge clk) begin q <= 1'b0; q <= d; end\nendmodule"
        )
        sim.step({"clk": 0, "d": 1})
        clock(sim)
        assert sim.peek("q").to_uint() == 1

    def test_blocking_in_clocked_block_visible_downstream(self):
        sim = simulate(
            "module t (input clk, input [3:0] d, output reg [3:0] q);\n"
            "reg [3:0] tmp;\n"
            "always @(posedge clk) begin\n"
            "    tmp = d + 1;\n"
            "    q <= tmp << 1;\nend\nendmodule"
        )
        sim.step({"clk": 0, "d": 3})
        clock(sim)
        assert sim.peek("q").to_uint() == ((3 + 1) << 1) & 0xF

    def test_nba_index_evaluated_at_schedule_time(self):
        sim = simulate(
            "module t (input clk, input [1:0] sel, input d, output reg [3:0] q);\n"
            "always @(posedge clk) q[sel] <= d;\nendmodule"
        )
        sim.step({"clk": 0, "sel": 2, "d": 1})
        clock(sim)
        assert sim.peek("q").bit(2).to_uint() == 1


class TestMemories:
    RAM = (
        "module t (input clk, input we, input [1:0] a, input [7:0] d,\n"
        "          output wire [7:0] q);\n"
        "reg [7:0] mem [0:3];\n"
        "always @(posedge clk) if (we) mem[a] <= d;\n"
        "assign q = mem[a];\nendmodule"
    )

    def test_write_then_read(self):
        sim = simulate(self.RAM)
        sim.step({"clk": 0, "we": 1, "a": 1, "d": 0x5A})
        clock(sim)
        sim.step({"we": 0})
        assert sim.peek("q").to_uint() == 0x5A

    def test_uninitialised_word_is_x(self):
        sim = simulate(self.RAM)
        sim.step({"clk": 0, "we": 0, "a": 3, "d": 0})
        assert sim.peek("q").has_x

    def test_async_read_tracks_address(self):
        sim = simulate(self.RAM)
        sim.step({"clk": 0, "we": 1, "a": 0, "d": 10})
        clock(sim)
        clock(sim, a=1, d=20)
        sim.step({"we": 0, "a": 0})
        assert sim.peek("q").to_uint() == 10
        sim.step({"a": 1})
        assert sim.peek("q").to_uint() == 20

    def test_out_of_range_write_ignored(self):
        sim = simulate(
            "module t (input clk, input [2:0] a, input [7:0] d, output [7:0] q);\n"
            "reg [7:0] mem [0:3];\n"
            "always @(posedge clk) mem[a] <= d;\n"
            "assign q = mem[0];\nendmodule"
        )
        sim.step({"clk": 0, "a": 0, "d": 7})
        clock(sim)
        clock(sim, a=5, d=99)  # out of range: no effect anywhere
        assert sim.peek("q").to_uint() == 7

    def test_reset_loop_clears_memory(self):
        sim = simulate(
            "module t (input clk, input rst, input [1:0] a, output [7:0] q);\n"
            "reg [7:0] mem [0:3];\ninteger i;\n"
            "always @(posedge clk)\n"
            "    if (rst) for (i = 0; i < 4; i = i + 1) mem[i] <= 8'd0;\n"
            "assign q = mem[a];\nendmodule"
        )
        sim.step({"clk": 0, "rst": 1, "a": 2})
        clock(sim)
        assert sim.peek("q").to_uint() == 0

    @pytest.mark.parametrize("base", [0, 1])
    def test_partial_word_write_keeps_other_bits(self, base):
        sim = simulate(
            "module t (input clk, output [7:0] q);\n"
            f"reg [7:0] mem [{base}:{base + 3}];\n"
            f"initial mem[{base}] = 8'hA5;\n"
            f"always @(posedge clk) mem[{base}][3:0] <= 4'd3;\n"
            f"assign q = mem[{base}];\nendmodule"
        )
        sim.step({"clk": 0})
        assert sim.peek("q").to_uint() == 0xA5
        clock(sim)
        assert not sim.peek("q").has_x
        assert sim.peek("q").to_uint() == 0xA3


class TestInitialBlocks:
    def test_initial_sets_register(self):
        sim = simulate(
            "module t (input clk, output reg [3:0] q);\n"
            "initial q = 4'd9;\n"
            "always @(posedge clk) q <= q + 1;\nendmodule"
        )
        assert sim.peek("q").to_uint() == 9
        clock(sim)
        assert sim.peek("q").to_uint() == 10


class TestDerivedClocks:
    def test_divided_clock_triggers_downstream(self):
        sim = simulate(
            "module t (input clk, output reg q, output reg div);\n"
            "initial begin div = 0; q = 0; end\n"
            "always @(posedge clk) div <= ~div;\n"
            "always @(posedge div) q <= ~q;\nendmodule"
        )
        # div rises on every second clk posedge; q toggles on div rises.
        clock(sim)  # div: 0->1, q toggles
        assert sim.peek("q").to_uint() == 1
        clock(sim)  # div: 1->0
        assert sim.peek("q").to_uint() == 1
        clock(sim)  # div: 0->1, q toggles again
        assert sim.peek("q").to_uint() == 0
