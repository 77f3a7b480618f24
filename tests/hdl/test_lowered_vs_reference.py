"""Differential test: the lowered simulator against the reference walker.

``repro.hdl.simulator.Simulation`` runs closures built by
``repro.hdl.lower``; ``reference_sim.ReferenceSimulation`` walks the AST
the way the package did before lowering existed.  Both are driven through
the same script of pokes and settles, and after every settle they must
agree on ``values``, ``memories``, ``display_log`` and ``finished``.  When
one raises, the other must raise the same exception type with the same
message at the same point of the script.

Inputs come from three places:

- modules built around generated expressions (``test_parser_properties``'s
  generator and a richer one with selects, casts, replication, x-valued
  literals and every operator), placed in continuous assigns,
  ``always @(*)`` blocks, case statements, functions and clocked blocks;
- every registered problem's golden design, driven by its golden steps;
- mutants of those designs (``sample_faults`` + ``apply_faults``).

A last test runs a small mage grid twice, once with the reference class
patched into ``repro.tb.runner``: rows and canonical event streams must
be identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_sim import ReferenceSimulation
from test_parser_properties import expressions

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import all_problems, get_problem, input_steps
from repro.hdl import ast_nodes as ast
from repro.hdl.compile import compile_design
from repro.hdl.elaborator import Elaborator
from repro.hdl.errors import HdlError
from repro.hdl.parser import parse_source
from repro.hdl.simulator import Simulation
from repro.hdl.unparse import unparse_expr, unparse_module
from repro.hdl.values import LogicVec
from repro.llm.mutation import apply_faults, sample_faults
from repro.runtime import SerialExecutor, evaluate_many
from repro.tb import runner

PROBLEMS = all_problems()


# ----------------------------------------------------------------------
# Running one script against one simulator class
# ----------------------------------------------------------------------


def _snapshot(sim) -> tuple:
    return (
        dict(sim.values),
        {name: list(words) for name, words in sim.memories.items()},
        list(sim.display_log),
        sim.finished,
    )


def _error(exc: BaseException) -> tuple:
    return ("error", type(exc).__name__, str(exc))


def observe(cls, design, script) -> list:
    """Snapshots after construction and after every settle, then any error.

    ``script`` holds ``("poke", name, value)`` and ``("settle",)`` entries.
    """
    try:
        sim = cls(design)
    except Exception as exc:  # compared, type and message, with the other side
        return [_error(exc)]
    trace = [_snapshot(sim)]
    for index, op in enumerate(script):
        try:
            if op[0] == "poke":
                sim.poke(op[1], op[2])
            else:
                sim.time = index
                sim.settle()
        except Exception as exc:  # compared, type and message, with the other side
            trace.append(_error(exc))
            return trace
        if op[0] == "settle":
            trace.append(_snapshot(sim))
    return trace


def assert_same(design, script) -> None:
    lowered = observe(Simulation, design, script)
    reference = observe(ReferenceSimulation, design, script)
    assert len(lowered) == len(reference), (lowered[-1], reference[-1])
    for step, (got, want) in enumerate(zip(lowered, reference)):
        assert got == want, f"diverged at snapshot {step}"


def _script_for(design, steps, clock) -> list:
    """The poke/settle sequence ``repro.tb.runner`` drives for these steps."""
    script: list = []
    inputs = set(design.inputs)
    if clock is not None and clock in inputs:
        script += [("poke", clock, 0), ("settle",)]
    for step in steps:
        script += [("poke", n, v) for n, v in step.items() if n in inputs]
        script.append(("settle",))
        if clock is not None and clock in inputs:
            script += [("poke", clock, 1), ("settle",), ("poke", clock, 0), ("settle",)]
    return script


# ----------------------------------------------------------------------
# Golden designs and their mutants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.id)
def test_golden_design_matches_reference(problem):
    design = compile_design(problem.golden, problem.top)
    script = _script_for(design, input_steps(problem), problem.clock)
    assert_same(design, script)


def _mutant_design(problem, seed: int, count: int):
    module = parse_source(problem.golden).module(problem.top)
    faults = sample_faults(module, count, np.random.default_rng(seed))
    source = unparse_module(apply_faults(module, faults))
    try:
        return compile_design(source, problem.top)
    except (HdlError, RecursionError):
        return None  # a mutant that does not compile has nothing to simulate


@given(
    problem=st.sampled_from(PROBLEMS),
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 4),
)
# Derandomized: a mutant can turn a loop endless, and the reference takes
# seconds to reach the loop limit, so a fixed draw keeps tier-1's time fixed.
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutants_match_reference(problem, seed, count):
    design = _mutant_design(problem, seed, count)
    if design is None:
        return
    script = _script_for(design, input_steps(problem, n_random=8), problem.clock)
    assert_same(design, script)


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.id)
def test_every_problem_has_a_matching_mutant(problem):
    """One fixed mutant per problem, so every design family is exercised."""
    design = _mutant_design(problem, seed=problem.seed_for(7), count=2)
    if design is None:
        pytest.skip("this mutant does not compile")
    script = _script_for(design, input_steps(problem, n_random=8), problem.clock)
    assert_same(design, script)


# ----------------------------------------------------------------------
# Generated expressions in generated modules
# ----------------------------------------------------------------------

_OPERANDS = ["a", "b", "c", "s", "i"]
_BINARY = [
    "+", "-", "*", "/", "%", "**", "&", "|", "^", "~^", "==", "!=", "===",
    "!==", "<", "<=", ">", ">=", "&&", "||", "<<", ">>", "<<<", ">>>",
]  # fmt: skip
_UNARY = ["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"]


def _number(draw) -> ast.Number:
    width = draw(st.integers(1, 12))
    mask = (1 << width) - 1
    val = draw(st.integers(0, mask))
    xmask = draw(st.sampled_from([0, 0, 0, draw(st.integers(0, mask))]))
    return ast.Number(value=LogicVec(width, val, xmask))


def _small(value: int) -> ast.Number:
    return ast.Number(value=LogicVec.from_int(value, 32))


@st.composite
def rich_expressions(draw, depth=3):
    """Expressions over every operator, select, cast and literal shape."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return ast.Ident(name=draw(st.sampled_from(_OPERANDS)))
        return _number(draw)
    kind = draw(st.integers(0, 8))
    sub = rich_expressions(depth=depth - 1)
    if kind == 0:
        return ast.Binary(op=draw(st.sampled_from(_BINARY)), left=draw(sub), right=draw(sub))
    if kind == 1:
        return ast.Unary(op=draw(st.sampled_from(_UNARY)), operand=draw(sub))
    if kind == 2:
        return ast.Ternary(cond=draw(sub), then=draw(sub), els=draw(sub))
    if kind == 3:
        parts = draw(st.lists(sub, min_size=1, max_size=3))
        return ast.Concat(parts=tuple(parts))
    if kind == 4:
        return ast.Replicate(count=_small(draw(st.integers(1, 3))), inner=draw(sub))
    name = draw(st.sampled_from(["a", "b", "c"]))
    base = ast.Ident(name=name)
    if kind == 5:
        index = draw(st.one_of(st.just(ast.Ident(name="i")), st.builds(_small, st.integers(0, 9))))
        return ast.BitSelect(base=base, index=index)
    if kind == 6:
        lsb = draw(st.integers(0, 9))
        msb = lsb + draw(st.integers(0, 4))
        return ast.PartSelect(base=base, msb=_small(msb), lsb=_small(lsb))
    if kind == 7:
        start = draw(st.one_of(st.just(ast.Ident(name="i")), st.builds(_small, st.integers(0, 9))))
        return ast.IndexedPartSelect(
            base=base, start=start, width=_small(draw(st.integers(1, 4))), down=draw(st.booleans())
        )
    return ast.FuncCall(name=draw(st.sampled_from(["$signed", "$unsigned"])), args=(draw(sub),))


_HEADER = (
    "module t (input clk, input [7:0] a, input [7:0] b, input signed [5:0] c,\n"
    "          input s, input [2:0] i, output reg [15:0] y, output reg [7:0] q,\n"
    "          output wire [11:0] z);\n"
    "    reg [7:0] mem [0:3];\n"
)

_TEMPLATES = {
    "assign": "    assign z = {0};\n    always @(*) y = {1};\n",
    "if": (
        "    always @(*) begin\n"
        "        if ({0}) y = {1};\n"
        "        else begin y = {2}; y[3:0] = {0}; end\n"
        "    end\n    assign z = {2};\n"
    ),
    "case": (
        "    always @(*) begin\n"
        "        case ({0})\n"
        "            2'd0: y = {1};\n"
        "            8'h3, 4'b1x01: y = {2};\n"
        "            default: y = {0};\n"
        "        endcase\n"
        "    end\n    assign z = {{{1}}} + 1;\n"
    ),
    "casez": (
        "    always @(*) begin\n"
        "        casez ({0})\n"
        "            4'b1??0: y = {1};\n"
        "            8'b0000_0001: y = {2};\n"
        "            default: y = 16'hdead;\n"
        "        endcase\n"
        "    end\n    assign z = {2};\n"
    ),
    "function": (
        "    function [7:0] f;\n"
        "        input [7:0] p;\n"
        "        reg [3:0] r;\n"
        "        begin r = p[3:0] ^ {1}; f = {{r, p[7:4]}} + {0}; end\n"
        "    endfunction\n"
        "    assign z = f({2});\n    always @(*) y = f(a) - {1};\n"
    ),
    "clocked": (
        "    always @(posedge clk) begin\n"
        "        q <= {0};\n"
        "        mem[i[1:0]] <= {1};\n"
        "        if ({2}) q[2] <= s;\n"
        "    end\n"
        "    assign z = q + mem[b[1:0]];\n    always @(*) y = {{mem[0], q}} ^ {2};\n"
    ),
    "loop": (
        "    integer k;\n"
        "    always @(*) begin\n"
        "        y = {0};\n"
        "        for (k = 0; k < 4; k = k + 1) y[k] = y[k] ^ {1};\n"
        "    end\n    assign z = {2};\n"
    ),
}


def _module(template: str, exprs: list[ast.Expr]) -> str:
    body = _TEMPLATES[template].format(*(unparse_expr(e) for e in exprs))
    return _HEADER + body + "endmodule\n"


_inputs = st.fixed_dictionaries(
    {
        "a": st.integers(0, 255),
        "b": st.integers(0, 255),
        "c": st.integers(0, 63),
        "s": st.integers(0, 1),
        "i": st.integers(0, 7),
    }
)


@given(
    template=st.sampled_from(sorted(_TEMPLATES)),
    exprs=st.lists(st.one_of(expressions(), rich_expressions()), min_size=3, max_size=3),
    steps=st.lists(_inputs, min_size=1, max_size=4),
)
@settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_generated_modules_match_reference(template, exprs, steps):
    source = _module(template, exprs)
    if len(source) > 3000:
        return
    try:
        design = compile_design(source, "t")
    except (HdlError, RecursionError):
        return  # both simulators start from the same elaborated design
    assert_same(design, _script_for(design, steps, "clk"))


# ----------------------------------------------------------------------
# Faults at run time: the same error, at the same point
# ----------------------------------------------------------------------

_FAULTY = {
    "x_bound": (
        "module t (input [7:0] a, input [2:0] i, output [7:0] y);\n"
        "    assign y = a[i:0];\nendmodule\n"
    ),
    "replicate_zero": (
        "module t (input [7:0] a, output [7:0] y);\n"
        "    assign y = {0{a}};\nendmodule\n"
    ),
    "memory_without_index": (
        "module t (input [7:0] a, output reg [7:0] y);\n"
        "    reg [7:0] mem [0:3];\n"
        "    always @(*) begin y = a; y = mem + 1; end\nendmodule\n"
    ),
    "oscillation": (
        "module t (input a, output y);\n"
        "    wire w;\n    assign y = a ? ~w : 1'b0;\n    assign w = y;\nendmodule\n"
    ),
    "endless_loop": (
        "module t (input [3:0] a, output reg [3:0] y);\n"
        "    integer k;\n"
        "    always @(*) for (k = 0; k < 8; k = k) y = a;\nendmodule\n"
    ),
    "function_arity": (
        "module t (input [7:0] a, output [7:0] y);\n"
        "    function [7:0] f; input [7:0] p; f = p + 1; endfunction\n"
        "    assign y = f(a, a);\nendmodule\n"
    ),
    "display_then_x_bound": (
        "module t (input clk, input [7:0] a, input [2:0] i, output reg [7:0] y);\n"
        "    always @(posedge clk) begin\n"
        "        $display(a, i);\n"
        "        y <= a[i +: 2] + a[i:1];\n"
        "    end\nendmodule\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_FAULTY))
def test_runtime_faults_match_reference(name):
    design = compile_design(_FAULTY[name], "t")
    # The x-valued index in the last step leaves select bounds unknown.
    steps = [{"a": 200, "i": 2}, {"a": 3, "i": LogicVec.all_x(3)}]
    script = _script_for(design, steps, "clk")
    assert_same(design, script)
    assert observe(Simulation, design, script)[-1][0] == "error"


# ----------------------------------------------------------------------
# A whole grid under each simulator
# ----------------------------------------------------------------------

GRID_PROBLEMS = ("cb_kmap_mux", "fs_vending", "ar_addsub8")


def _canonical(events) -> list[str]:
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0  # wall clock, the one field allowed to differ
        payloads.append(json.dumps(payload, sort_keys=True))
    return payloads


def _digest(payloads: list[str]) -> str:
    return hashlib.sha256("\n".join(payloads).encode()).hexdigest()


def _grid_and_streams() -> tuple:
    """A serial mage grid (caches off) plus each problem's full solve stream."""
    problems = [get_problem(pid) for pid in GRID_PROBLEMS]
    cells = ListSink()
    result, _ = evaluate_many(
        SYSTEMS["mage"].factory,
        "verilogeval-v2",
        runs=2,
        problems=problems,
        executor=SerialExecutor(),
        cache=False,
        solve_cache=False,
        events=cells,
    )
    rows = [(o.problem_id, o.runs, o.passes, o.scores) for o in result.outcomes]
    streams = []
    for problem in problems:
        sink = ListSink()
        source = SYSTEMS["mage"].factory().solve(
            DesignTask.from_problem(problem), seed=2, sink=sink
        )
        streams.append((source, _digest(_canonical(sink.events))))
    # A serial grid streams its cell events in submission order.
    return result.render_row(), rows, _digest(_canonical(cells.events)), streams


def test_grid_rows_and_events_match_under_reference(monkeypatch):
    shipped = _grid_and_streams()
    monkeypatch.setattr(runner, "Simulation", ReferenceSimulation)
    assert _grid_and_streams() == shipped


def test_threads_share_one_lowered_design():
    """Closures carry no per-simulation state: eight threads lowering and
    simulating one new design at once, switching every microsecond, each
    see the serial run."""
    problem = get_problem("fs_vending")

    def elaborate():  # a new Design object, not the memoized one
        tree = parse_source(problem.golden)
        return Elaborator.from_source(tree).elaborate(problem.top)

    design = elaborate()
    script = _script_for(design, input_steps(problem), problem.clock)
    expected = observe(Simulation, elaborate(), script)
    results: list = []

    def run():
        results.append(observe(Simulation, design, script))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8
