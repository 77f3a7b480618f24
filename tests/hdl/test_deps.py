"""Dependency-graph and cone-of-influence analysis."""

import pytest

from repro.evalsets import get_problem
from repro.hdl.compile import compile_design
from repro.hdl.deps import (
    cone_of_influence,
    dependency_graph,
    fan_in_cone,
    outputs_in_cone,
)

SRC = """
module t (input clk, input a, input b, output wire y, output reg q);
    wire mid;
    assign mid = a & b;
    assign y = mid | a;
    always @(posedge clk) q <= mid;
endmodule
"""


def test_edges_follow_data_flow():
    graph = dependency_graph(compile_design(SRC))
    assert "mid" in graph["a"]
    assert "y" in graph["mid"]
    assert "q" in graph["mid"]
    assert "mid" not in graph["y"]


def test_clock_influences_registers():
    graph = dependency_graph(compile_design(SRC))
    assert "q" in graph["clk"]


def test_cone_of_influence_transitive():
    design = compile_design(SRC)
    cone = cone_of_influence(design, "a")
    assert {"a", "mid", "y", "q"} <= cone


def test_fan_in_cone():
    design = compile_design(SRC)
    fan_in = fan_in_cone(design, "q")
    assert {"q", "mid", "a", "b", "clk"} <= fan_in
    assert "y" not in fan_in


def test_outputs_in_cone():
    design = compile_design(SRC)
    assert outputs_in_cone(design, "b") == {"y", "q"}
    assert outputs_in_cone(design, "mid") == {"y", "q"}


def test_unknown_signal_has_empty_cone():
    design = compile_design(SRC)
    assert cone_of_influence(design, "ghost") == frozenset()


def test_memory_participates():
    design = compile_design(
        "module t (input clk, input [1:0] a, input [7:0] d, output [7:0] q);\n"
        "reg [7:0] mem [0:3];\n"
        "always @(posedge clk) mem[a] <= d;\n"
        "assign q = mem[a];\nendmodule"
    )
    assert "q" in cone_of_influence(design, "d")
    assert outputs_in_cone(design, "mem") == {"q"}


def _closure(graph, signal):
    """Reference transitive closure by fixpoint iteration (no BFS)."""
    reached = {signal}
    while True:
        grown = reached | {t for s in reached for t in graph[s]}
        if grown == reached:
            return frozenset(reached)
        reached = grown


def test_every_edge_endpoint_is_a_node():
    design = compile_design(SRC)
    graph = dependency_graph(design)
    assert set(design.signals) <= set(graph)
    for targets in graph.values():
        assert targets <= set(graph)


def test_register_feedback_adds_no_self_edge():
    design = compile_design(
        "module t (input clk, input [3:0] a, output reg [3:0] q);\n"
        "always @(posedge clk) q <= q + a;\nendmodule"
    )
    graph = dependency_graph(design)
    assert "q" not in graph["q"]
    assert "q" in graph["a"]
    assert cone_of_influence(design, "q") == {"q"}


def test_cycles_terminate_and_close_over_both_registers():
    design = compile_design(
        "module t (input clk, output reg r1, output reg r2);\n"
        "always @(posedge clk) r1 <= r2;\n"
        "always @(posedge clk) r2 <= r1;\nendmodule"
    )
    graph = dependency_graph(design)
    assert "r2" in graph["r1"] and "r1" in graph["r2"]
    assert cone_of_influence(design, "r1") == {"r1", "r2"}
    assert fan_in_cone(design, "r1") == {"r1", "r2", "clk"}
    assert outputs_in_cone(design, "clk") == {"r1", "r2"}


def test_unknown_signal_has_empty_fan_in():
    design = compile_design(SRC)
    assert fan_in_cone(design, "ghost") == frozenset()
    assert outputs_in_cone(design, "ghost") == frozenset()


@pytest.mark.parametrize(
    "problem_id", ["cb_kmap_mux", "fs_vending", "ar_addsub8", "sq_counter_ud"]
)
def test_cones_equal_the_fixpoint_closure(problem_id):
    design = compile_design(get_problem(problem_id).golden)
    graph = dependency_graph(design)
    reverse = {name: set() for name in graph}
    for source, targets in graph.items():
        for target in targets:
            reverse[target].add(source)
    for signal in graph:
        assert cone_of_influence(design, signal) == _closure(graph, signal)
        assert fan_in_cone(design, signal) == _closure(reverse, signal)
